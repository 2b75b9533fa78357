package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of an
// ascending slice, or NaN when it is empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(rank, 0), len(sorted)-1)]
}

// sortedKeys returns the keys of m in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// median returns the middle value of v (the mean of the two middle values
// for an even count), or NaN when it is empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	v = append([]float64(nil), v...)
	sort.Float64s(v)
	mid := len(v) / 2
	if len(v)%2 == 1 {
		return v[mid]
	}
	return (v[mid-1] + v[mid]) / 2
}

// quartiles returns Q1 and Q3 of v the way Python's
// statistics.quantiles(v, n=4) does (the default "exclusive" method), so the
// spreads -agree prints are the ones the driver computes.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := min(max(int(pos), 1), len(s)-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// scrape is the sum of one or more Prometheus text expositions: every
// sample of a family is added up across its label sets (sites, documents),
// and histogram buckets are kept per upper bound.
type scrape struct {
	sum  map[string]float64             // family -> sum over label sets
	n    map[string]int                 // family -> label sets added
	hist map[string]map[float64]float64 // histogram family -> le -> cumulative count
}

func newScrape() *scrape {
	return &scrape{
		sum:  map[string]float64{},
		n:    map[string]int{},
		hist: map[string]map[float64]float64{},
	}
}

// add folds one exposition into the scrape.
func (s *scrape) add(text string) error {
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return fmt.Errorf("metrics: malformed sample %q", line)
		}
		val, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return fmt.Errorf("metrics: sample %q: %w", line, err)
		}
		name, labels := line[:sp], ""
		if open := strings.IndexByte(name, '{'); open >= 0 {
			name, labels = name[:open], name[open:]
		}
		if fam, ok := strings.CutSuffix(name, "_bucket"); ok {
			if _, rest, ok := strings.Cut(labels, `le="`); ok {
				bound, _, _ := strings.Cut(rest, `"`)
				le, err := strconv.ParseFloat(bound, 64)
				if err != nil {
					return fmt.Errorf("metrics: sample %q: %w", line, err)
				}
				if s.hist[fam] == nil {
					s.hist[fam] = map[float64]float64{}
				}
				s.hist[fam][le] += val
				continue
			}
		}
		s.sum[name] += val
		s.n[name]++
	}
	return nil
}

// delta returns the counter increase of a family since before.
func (s *scrape) delta(before *scrape, family string) float64 {
	return s.sum[family] - before.sum[family]
}

// quantile estimates the q-quantile of the observations a histogram family
// received since before (obs.QuantileOverBuckets: linear interpolation inside
// the bucket that holds it). It returns the observation count too; the
// quantile is NaN when that is zero.
func (s *scrape) quantile(before *scrape, family string, q float64) (value float64, count float64) {
	cur := s.hist[family]
	if len(cur) == 0 {
		return math.NaN(), 0
	}
	bounds := make([]float64, 0, len(cur))
	for le := range cur {
		bounds = append(bounds, le)
	}
	sort.Float64s(bounds) // +Inf sorts last
	counts := make([]int64, len(bounds))
	below := 0.0
	for i, le := range bounds {
		cum := cur[le] - before.hist[family][le]
		counts[i] = int64(cum - below)
		below = cum
	}
	return obs.QuantileOverBuckets(q, bounds[:len(bounds)-1], counts), below
}
