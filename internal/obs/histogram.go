package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// LatencyBuckets are the default bounds (seconds) for operation and 2PC
// phase latencies: 50µs to 2.5s, roughly ×2..×2.5 per step — the scheduler's
// hot paths sit around 100µs–50ms depending on contention and latency
// injection.
var LatencyBuckets = []float64{
	0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// SizeBuckets are the default bounds for small-count distributions (persist
// batch sizes, replication span lengths).
var SizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128}

// Histogram is a fixed-bucket histogram. Observations are gated on the
// owning registry's armed flag: unarmed, Observe is a single atomic load.
// Buckets are stored non-cumulatively (each observation increments exactly
// one bucket), so exposition-time cumulation can never tear a bucket count
// against the total. The sum is a CAS-looped float64.
type Histogram struct {
	name  string
	help  string
	label string // rendered variable label when owned by a Vec, else ""

	armed   *atomic.Int32
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1; last is the +Inf overflow
	sumBits atomic.Uint64
}

func newHistogram(r *Registry, name, help, label string, bounds []float64) *Histogram {
	return &Histogram{
		name: name, help: help, label: label,
		armed:   &r.armed,
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one value if the registry is armed.
func (h *Histogram) Observe(v float64) {
	if h.armed.Load() == 0 {
		return
	}
	h.observe(v)
}

// ObserveDuration records a latency in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	if h.armed.Load() == 0 {
		return
	}
	h.observe(d.Seconds())
}

func (h *Histogram) observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	return math.Float64frombits(h.sumBits.Load())
}

// Quantile estimates the q-quantile of this histogram alone.
func (h *Histogram) Quantile(q float64) float64 { return Quantile(q, h) }

func (h *Histogram) metricName() string { return h.name }

// Span measures one interval against the armed gate. The zero Span is a
// no-op: Registry.Span returns it when unarmed, so the fast path costs one
// atomic load and no clock read.
type Span struct {
	start time.Time
}

// Span starts a measurement if the registry is armed. Nil-safe.
func (r *Registry) Span() Span {
	if !r.Armed() {
		return Span{}
	}
	return Span{start: time.Now()}
}

// Active reports whether the span is measuring (registry was armed at start).
func (sp Span) Active() bool { return !sp.start.IsZero() }

// Elapsed returns the time since the span started, zero for inactive spans.
func (sp Span) Elapsed() time.Duration {
	if sp.start.IsZero() {
		return 0
	}
	return time.Since(sp.start)
}

// Done records the elapsed time into the histogram; inactive spans no-op.
func (sp Span) Done(h *Histogram) {
	if sp.start.IsZero() {
		return
	}
	h.ObserveDuration(time.Since(sp.start))
}
