// Package obs is the dependency-free observability core: atomic counters,
// gauges and fixed-bucket histograms collected in a per-site Registry and
// exposed in Prometheus text format (expo.go), over the scheduler transport
// (sched's MetricsReq handler) and to the harness (Quantile).
//
// The design contract is that instrumentation is effectively free when
// nobody is looking. Counters are single atomic adds and are always live:
// the registry is the only place a site's event counts are kept, and Count
// is how callers read them.
// Everything with a time.Now in it (histogram observations, Span) is gated
// on ONE atomic load of the registry's armed flag: an unarmed registry takes
// the load, sees zero and returns before touching the clock or any bucket.
// Arm() is called by consumers that actually read the data (dtxd's
// -metrics-addr listener, the harness's latency breakdown); embedded library
// use never arms and never pays.
//
// Label dimensions are deliberately minimal: every sample carries the
// registry's constant labels (the site), and a Vec adds exactly one variable
// label (the document, or the peer site for replication shipping). Vec
// children are resolved once at document-attach time and cached on the
// scheduler's per-document state, so the hot path never does a map lookup.
// Cardinality is bounded: past maxCardinality distinct label values a Vec
// folds further labels into the "__other__" child instead of growing without
// bound on adversarial document names.
package obs

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// maxCardinality bounds the distinct label values a Vec will track; further
// values share the overflow child.
const maxCardinality = 64

// OverflowLabel is the label value under which a Vec aggregates observations
// once maxCardinality distinct labels exist.
const OverflowLabel = "__other__"

// Registry holds one process-component's metrics (one per scheduler site).
// All registration methods are idempotent on the metric name: re-requesting
// a name returns the existing metric, so independent subsystems can share
// one without coordination. Registration is mutex-guarded and expected at
// construction time; reads and writes of registered metrics are lock-free.
type Registry struct {
	armed atomic.Int32

	mu     sync.Mutex
	labels []labelPair // constant labels stamped on every sample
	order  []metric    // exposition order = registration order
	byName map[string]metric
}

type labelPair struct{ k, v string }

// metric is anything the registry can expose.
type metric interface {
	metricName() string
	expo(w *expoWriter)
}

// New builds an empty, unarmed registry.
func New() *Registry {
	return &Registry{byName: make(map[string]metric)}
}

// SetLabel sets a constant label rendered on every sample of this registry
// (e.g. site="3"). Intended for construction time, before exposition.
func (r *Registry) SetLabel(key, value string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.labels {
		if r.labels[i].k == key {
			r.labels[i].v = value
			return
		}
	}
	r.labels = append(r.labels, labelPair{key, value})
}

// Arm enables the gated instrumentation (histogram observations, spans).
// Counters are live regardless. Arm is sticky and safe to call repeatedly.
func (r *Registry) Arm() {
	if r != nil {
		r.armed.Store(1)
	}
}

// Armed reports whether gated instrumentation is enabled. Nil-safe: a nil
// registry is never armed, so call sites can gate on it without a nil check.
func (r *Registry) Armed() bool {
	return r != nil && r.armed.Load() != 0
}

// register installs m under its name, or returns the already-registered
// metric of that name. The caller asserts the concrete type; a name reused
// across kinds is a programming error and panics at construction time.
func (r *Registry) register(name string, m metric) metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.byName[name]; ok {
		return old
	}
	r.byName[name] = m
	r.order = append(r.order, m)
	return m
}

// Counter registers (or returns) a monotonically increasing counter.
func (r *Registry) Counter(name, help string) *Counter {
	m := r.register(name, &Counter{name: name, help: help})
	c, ok := m.(*Counter)
	if !ok {
		panic(fmt.Sprintf("obs: %s already registered as a different kind", name))
	}
	return c
}

// Gauge registers (or returns) a settable gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	m := r.register(name, &Gauge{name: name, help: help})
	g, ok := m.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("obs: %s already registered as a different kind", name))
	}
	return g
}

// GaugeFunc registers a gauge whose value is computed at exposition time —
// the zero-write-cost shape for values that already live in the instrumented
// subsystem (queue depths, chain lengths, lag).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, &funcMetric{name: name, help: help, kind: "gauge", fn: fn})
}

// CounterFunc is GaugeFunc with counter semantics: the function must be
// monotonic (e.g. summing per-document reclaim counters).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(name, &funcMetric{name: name, help: help, kind: "counter", fn: fn})
}

// LabeledGaugeFunc registers a gauge family whose (label, value) samples are
// enumerated at exposition time under the given label key.
func (r *Registry) LabeledGaugeFunc(name, help, labelKey string, fn func() []LabeledValue) {
	r.register(name, &labeledFuncMetric{name: name, help: help, key: labelKey, fn: fn})
}

// Histogram registers (or returns) a fixed-bucket histogram. bounds are the
// ascending bucket upper bounds; observations above the last bound land in
// the implicit +Inf bucket.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	m := r.register(name, newHistogram(r, name, help, "", bounds))
	h, ok := m.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("obs: %s already registered as a different kind", name))
	}
	return h
}

// HistogramVec registers (or returns) a histogram family keyed by one
// variable label. Children are created by With and cached by callers.
func (r *Registry) HistogramVec(name, help, labelKey string, bounds []float64) *HistogramVec {
	m := r.register(name, &HistogramVec{
		reg: r, name: name, help: help, key: labelKey,
		bounds: append([]float64(nil), bounds...),
		kids:   make(map[string]*Histogram),
	})
	v, ok := m.(*HistogramVec)
	if !ok {
		panic(fmt.Sprintf("obs: %s already registered as a different kind", name))
	}
	return v
}

// CounterVec registers (or returns) a counter family keyed by one variable
// label.
func (r *Registry) CounterVec(name, help, labelKey string) *CounterVec {
	m := r.register(name, &CounterVec{name: name, help: help, key: labelKey, kids: make(map[string]*Counter)})
	v, ok := m.(*CounterVec)
	if !ok {
		panic(fmt.Sprintf("obs: %s already registered as a different kind", name))
	}
	return v
}

// Count reads the counter registered under name; a CounterVec reads as the
// sum of its children. It registers nothing: a name that was never
// registered, or one registered as another kind, is an error rather than a
// silent zero.
func (r *Registry) Count(name string) (int64, error) {
	r.mu.Lock()
	m, ok := r.byName[name]
	r.mu.Unlock()
	switch m := m.(type) {
	case *Counter:
		return m.Value(), nil
	case *CounterVec:
		return m.Total(), nil
	}
	if !ok {
		return 0, fmt.Errorf("obs: no metric %q", name)
	}
	return 0, fmt.Errorf("obs: %q is not a counter", name)
}

// ---- Counter ----

// Counter is a monotonically increasing atomic counter. Always live, armed
// or not.
type Counter struct {
	v     atomic.Int64
	name  string
	help  string
	label string // rendered variable label (`doc="d1"`) when owned by a Vec
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) metricName() string { return c.name }

// ---- Gauge ----

// Gauge is a settable atomic value.
type Gauge struct {
	v    atomic.Int64
	name string
	help string
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value reads the gauge.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) metricName() string { return g.name }

// ---- function-backed metrics ----

// LabeledValue is one exposition-time sample of a LabeledGaugeFunc.
type LabeledValue struct {
	Label string
	Value float64
}

type funcMetric struct {
	name, help, kind string
	fn               func() float64
}

func (f *funcMetric) metricName() string { return f.name }

type labeledFuncMetric struct {
	name, help, key string
	fn              func() []LabeledValue
}

func (f *labeledFuncMetric) metricName() string { return f.name }

// ---- CounterVec ----

// CounterVec is a counter family over one variable label.
type CounterVec struct {
	name, help, key string
	mu              sync.Mutex
	kids            map[string]*Counter
	order           []string
}

// With returns the child counter for the label value, creating it on first
// use. Past maxCardinality distinct labels, the overflow child is shared.
func (v *CounterVec) With(label string) *Counter {
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.kids[label]; ok {
		return c
	}
	if len(v.kids) >= maxCardinality {
		label = OverflowLabel
		if c, ok := v.kids[label]; ok {
			return c
		}
	}
	c := &Counter{name: v.name, help: v.help, label: renderLabel(v.key, label)}
	v.kids[label] = c
	v.order = append(v.order, label)
	return c
}

// Total sums all children.
func (v *CounterVec) Total() int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	var t int64
	for _, c := range v.kids {
		t += c.Value()
	}
	return t
}

func (v *CounterVec) metricName() string { return v.name }

func (v *CounterVec) children() []*Counter {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]*Counter, 0, len(v.order))
	for _, l := range v.order {
		out = append(out, v.kids[l])
	}
	return out
}

// ---- HistogramVec ----

// HistogramVec is a histogram family over one variable label.
type HistogramVec struct {
	reg             *Registry
	name, help, key string
	bounds          []float64
	mu              sync.Mutex
	kids            map[string]*Histogram
	order           []string
}

// With returns the child histogram for the label value, creating it on
// first use, folding into the overflow child past maxCardinality.
func (v *HistogramVec) With(label string) *Histogram {
	v.mu.Lock()
	defer v.mu.Unlock()
	if h, ok := v.kids[label]; ok {
		return h
	}
	if len(v.kids) >= maxCardinality {
		label = OverflowLabel
		if h, ok := v.kids[label]; ok {
			return h
		}
	}
	h := newHistogram(v.reg, v.name, v.help, renderLabel(v.key, label), v.bounds)
	v.kids[label] = h
	v.order = append(v.order, label)
	return h
}

// Children snapshots the current child histograms (for cross-label merges
// like the harness quantile breakdown).
func (v *HistogramVec) Children() []*Histogram {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]*Histogram, 0, len(v.order))
	for _, l := range v.order {
		out = append(out, v.kids[l])
	}
	return out
}

func (v *HistogramVec) metricName() string { return v.name }

// ---- quantile estimation ----

// Quantile estimates the q-quantile (0 < q <= 1) of the merged distribution
// of the given histograms, by linear interpolation inside the bucket where
// the cumulative count crosses q. Histograms must share bucket bounds (all
// children of one family do). Returns NaN when there are no observations.
func Quantile(q float64, hists ...*Histogram) float64 {
	if len(hists) == 0 {
		return math.NaN()
	}
	bounds := hists[0].bounds
	counts := make([]int64, len(bounds)+1)
	for _, h := range hists {
		for i := range counts {
			counts[i] += h.buckets[i].Load()
		}
	}
	return QuantileOverBuckets(q, bounds, counts)
}

// QuantileOverBuckets estimates the q-quantile of an explicit non-cumulative
// bucket-count vector over the given bounds (len(counts) == len(bounds)+1,
// the last entry being the +Inf overflow). Returns NaN when the counts sum
// to zero.
func QuantileOverBuckets(q float64, bounds []float64, counts []int64) float64 {
	var total int64
	for _, n := range counts {
		total += n
	}
	if total == 0 {
		return math.NaN()
	}
	rank := q * float64(total)
	var cum int64
	for i, n := range counts {
		prev := cum
		cum += n
		if float64(cum) < rank {
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		if i == len(bounds) {
			// Overflow bucket: no upper bound to interpolate toward.
			return bounds[len(bounds)-1]
		}
		hi := bounds[i]
		if n == 0 {
			return hi
		}
		frac := (rank - float64(prev)) / float64(n)
		return lo + (hi-lo)*frac
	}
	return bounds[len(bounds)-1]
}
