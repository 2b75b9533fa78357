package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchSpec is the part of BENCHMARK.json -agree needs.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// readRecords groups an -out file's untraced results as
// workload -> metric -> one value per run.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Trace != 0 || !rec.Correct {
			continue
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// spread is the distance between the first and third quartile as a share of
// the median; 0 for fewer than two values, which have no quartiles.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / median(v)
}

// agreeFiles compares two sets of runs of one commit, metric by metric and
// workload by workload, against the bounds in the spec: "unresolved" when
// either set's spread exceeds the bound (the runs cannot tell), "outside"
// when the second median is worse than the first by more than the bound,
// "within" otherwise. It reports whether nothing was outside.
func agreeFiles(specPath, pathA, pathB string, w io.Writer) (bool, error) {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return false, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return false, fmt.Errorf("%s: %w", specPath, err)
	}
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	ok := true
	for _, wl := range spec.Workloads {
		fmt.Fprintf(w, "%s (%d vs %d runs)\n", wl.Name, len(a[wl.Name]["setup_s"]), len(b[wl.Name]["setup_s"]))
		for _, m := range spec.EndToEnd {
			va, vb := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "  %-20s missing\n", m.Name)
				ok = false
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(va), spread(vb)
			verdict := "within"
			switch {
			case m.Name != "setup_s" && max(sa, sb) > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "outside"
				ok = false
			}
			fmt.Fprintf(w, "  %-20s %12.4f -> %12.4f  %+6.1f%% worse  spread %4.1f%% / %4.1f%%  bound %4.1f%%  %s\n",
				m.Name, ma, mb, 100*worse, 100*sa, 100*sb, 100*m.Bound, verdict)
		}
	}
	return ok, nil
}
