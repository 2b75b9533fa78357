package obs

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Idempotent registration returns the same instance.
	if again := r.Counter("c_total", "a counter"); again != c {
		t.Fatalf("re-registration returned a different counter")
	}
	g := r.Gauge("g", "a gauge")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
}

// TestCount reads counters and counter families by name, and refuses names
// that were never registered or are not counters — without registering them.
func TestCount(t *testing.T) {
	r := New()
	r.Counter("c_total", "a counter").Add(3)
	v := r.CounterVec("v_total", "a family", "doc")
	v.With("a").Add(2)
	v.With("b").Inc()
	r.Histogram("h_seconds", "latency", LatencyBuckets)
	for name, want := range map[string]int64{"c_total": 3, "v_total": 3} {
		if got, err := r.Count(name); err != nil || got != want {
			t.Fatalf("Count(%q) = %d, %v; want %d", name, got, err, want)
		}
	}
	for _, name := range []string{"c_totl", "h_seconds"} {
		if _, err := r.Count(name); err == nil {
			t.Fatalf("Count(%q) succeeded", name)
		}
	}
	if strings.Contains(r.Text(), "c_totl") {
		t.Fatal("Count registered the name it looked up")
	}
}

func TestHistogramGatedOnArm(t *testing.T) {
	r := New()
	h := r.Histogram("h_seconds", "latency", LatencyBuckets)
	h.Observe(0.001)
	if sp := r.Span(); sp.Active() {
		t.Fatalf("unarmed registry produced an active span")
	}
	if got := h.Count(); got != 0 {
		t.Fatalf("unarmed histogram recorded %d observations", got)
	}
	r.Arm()
	h.Observe(0.001)
	sp := r.Span()
	if !sp.Active() {
		t.Fatalf("armed registry produced an inactive span")
	}
	sp.Done(h)
	if got := h.Count(); got != 2 {
		t.Fatalf("armed histogram count = %d, want 2", got)
	}
	if h.Sum() <= 0 {
		t.Fatalf("armed histogram sum = %v, want > 0", h.Sum())
	}
}

func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	if r.Armed() {
		t.Fatalf("nil registry reports armed")
	}
	r.Arm() // must not panic
	sp := r.Span()
	if sp.Active() {
		t.Fatalf("nil registry produced an active span")
	}
	sp.Done(nil) // inactive span never touches the histogram
}

func TestQuantileInterpolation(t *testing.T) {
	r := New()
	r.Arm()
	h := r.Histogram("q_seconds", "q", []float64{0.001, 0.01, 0.1})
	for i := 0; i < 90; i++ {
		h.Observe(0.0005) // first bucket
	}
	for i := 0; i < 10; i++ {
		h.Observe(0.05) // third bucket
	}
	p50 := h.Quantile(0.5)
	if p50 <= 0 || p50 > 0.001 {
		t.Fatalf("p50 = %v, want within first bucket (0, 0.001]", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 <= 0.01 || p99 > 0.1 {
		t.Fatalf("p99 = %v, want within third bucket (0.01, 0.1]", p99)
	}
	if !math.IsNaN(Quantile(0.5, r.Histogram("empty_seconds", "e", LatencyBuckets))) {
		t.Fatalf("quantile of empty histogram should be NaN")
	}
}

func TestQuantileMergesChildren(t *testing.T) {
	r := New()
	r.Arm()
	v := r.HistogramVec("v_seconds", "v", "doc", []float64{0.001, 0.01})
	v.With("a").Observe(0.0005)
	v.With("b").Observe(0.005)
	q := Quantile(1.0, v.Children()...)
	if q <= 0.001 || q > 0.01+1e-9 {
		t.Fatalf("merged max quantile = %v, want within second bucket", q)
	}
}

func TestVecCardinalityBound(t *testing.T) {
	r := New()
	r.Arm()
	v := r.HistogramVec("card_seconds", "card", "doc", SizeBuckets)
	for i := 0; i < maxCardinality+20; i++ {
		v.With(fmt.Sprintf("doc-%d", i)).Observe(1)
	}
	kids := v.Children()
	if len(kids) != maxCardinality+1 {
		t.Fatalf("vec grew to %d children, want cap %d + overflow", len(kids), maxCardinality)
	}
	over := v.With(OverflowLabel)
	if over.Count() != 20 {
		t.Fatalf("overflow child holds %d observations, want 20", over.Count())
	}
	cv := r.CounterVec("card_total", "card", "doc")
	for i := 0; i < maxCardinality+5; i++ {
		cv.With(fmt.Sprintf("doc-%d", i)).Inc()
	}
	if got := cv.Total(); got != int64(maxCardinality+5) {
		t.Fatalf("counter vec total = %d, want %d", got, maxCardinality+5)
	}
}

func TestExpositionFormat(t *testing.T) {
	r := New()
	r.SetLabel("site", "3")
	r.Arm()
	c := r.Counter("dtx_test_total", "test counter")
	c.Add(2)
	h := r.HistogramVec("dtx_test_seconds", "test latency", "doc", []float64{0.01, 0.1})
	h.With(`we"ird`).Observe(0.05)
	r.GaugeFunc("dtx_depth", "queue depth", func() float64 { return 4 })
	r.LabeledGaugeFunc("dtx_lag", "lag", "doc", func() []LabeledValue {
		return []LabeledValue{{Label: "d1", Value: 9}}
	})

	text := r.Text()
	for _, want := range []string{
		"# TYPE dtx_test_total counter",
		`dtx_test_total{site="3"} 2`,
		"# TYPE dtx_test_seconds histogram",
		`dtx_test_seconds_bucket{site="3",doc="we\"ird",le="0.01"} 0`,
		`dtx_test_seconds_bucket{site="3",doc="we\"ird",le="0.1"} 1`,
		`dtx_test_seconds_bucket{site="3",doc="we\"ird",le="+Inf"} 1`,
		`dtx_test_seconds_count{site="3",doc="we\"ird"} 1`,
		"# TYPE dtx_depth gauge",
		`dtx_depth{site="3"} 4`,
		`dtx_lag{site="3",doc="d1"} 9`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestConcurrentWritersVsExposition drives counters, histogram observations
// and vec child creation from many goroutines while scraping — the suite is
// run under -race in CI, so surviving it is the race-cleanliness assertion.
func TestConcurrentWritersVsExposition(t *testing.T) {
	r := New()
	r.Arm()
	c := r.Counter("cw_total", "c")
	v := r.HistogramVec("cw_seconds", "h", "doc", LatencyBuckets)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h := v.With(fmt.Sprintf("doc-%d", i%4))
			for {
				select {
				case <-done:
					return
				default:
				}
				c.Inc()
				h.Observe(0.0001)
				sp := r.Span()
				sp.Done(h)
			}
		}(i)
	}
	deadline := time.After(100 * time.Millisecond)
	for {
		select {
		case <-deadline:
			close(done)
			wg.Wait()
			text := r.Text()
			if !strings.Contains(text, "cw_total") || !strings.Contains(text, "cw_seconds_bucket") {
				t.Fatalf("exposition lost metrics under concurrency:\n%s", text)
			}
			if c.Value() == 0 {
				t.Fatalf("no writes observed")
			}
			return
		default:
			_ = r.Text()
		}
	}
}
