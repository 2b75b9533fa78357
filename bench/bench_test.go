package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataguide"
	"repro/internal/txn"
	"repro/internal/xupdate"
)

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, b, c := streamHash(w, 7, 2, 200), streamHash(w, 7, 2, 200), streamHash(w, 8, 2, 200)
		if a != b {
			t.Errorf("%s: same seed gave different streams", w.name)
		}
		if a == c {
			t.Errorf("%s: different seeds gave the same stream", w.name)
		}
	}
}

// Every workload's updates must leave the documents the size they found
// them: a run that grows its document drifts in latency as it goes.
func TestStreamsAreSizeStationary(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		docs := w.genDocs(3)
		guides := map[string]*dataguide.DataGuide{}
		before := 0
		for _, d := range docs {
			guides[d.Name] = dataguide.Build(d)
			before += d.ByteSize()
		}
		updates := 0
		for _, g := range w.generators(3, docs, 2) {
			for n := 0; n < 3000; n++ {
				for _, op := range g.next().ops {
					if op.Kind != txn.OpUpdate {
						continue
					}
					updates++
					for _, d := range docs {
						if d.Name == op.Doc {
							if _, _, err := xupdate.Apply(op.Update, d, guides[d.Name]); err != nil {
								t.Fatalf("%s: %s: %v", w.name, op, err)
							}
						}
					}
				}
			}
		}
		after := 0
		for _, d := range docs {
			after += d.ByteSize()
		}
		if ratio := float64(after) / float64(before); ratio < 0.95 || ratio > 1.05 {
			t.Errorf("%s: %d updates changed the documents' size by a factor %.3f", w.name, updates, ratio)
		}
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ p, want float64 }{{0.5, 5}, {0.95, 10}, {0.9, 9}, {0.01, 1}, {1, 10}} {
		if got := percentile(v, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing must be NaN")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v, want 3.5, 31", q1, q3)
	}
}

const expoBefore = `# HELP dtx_lock_wait_seconds Lock-wait time.
# TYPE dtx_lock_wait_seconds histogram
dtx_lock_wait_seconds_bucket{site="0",doc="d0",le="0.001"} 10
dtx_lock_wait_seconds_bucket{site="0",doc="d0",le="0.01"} 10
dtx_lock_wait_seconds_bucket{site="0",doc="d0",le="+Inf"} 10
dtx_lock_wait_seconds_sum{site="0",doc="d0"} 0.005
dtx_lock_wait_seconds_count{site="0",doc="d0"} 10
dtx_txns_committed_total{site="0"} 100
dtx_mvcc_chain_length{site="0",doc="d0"} 3
dtx_mvcc_chain_length{site="0",doc="d1"} 1
`

const expoAfter = `dtx_lock_wait_seconds_bucket{site="0",doc="d0",le="0.001"} 20
dtx_lock_wait_seconds_bucket{site="0",doc="d0",le="0.01"} 40
dtx_lock_wait_seconds_bucket{site="0",doc="d0",le="+Inf"} 50
dtx_lock_wait_seconds_sum{site="0",doc="d0"} 0.9
dtx_lock_wait_seconds_count{site="0",doc="d0"} 50
dtx_txns_committed_total{site="0"} 160
dtx_txns_committed_total{site="1"} 40
dtx_mvcc_chain_length{site="0",doc="d0"} 4
dtx_mvcc_chain_length{site="0",doc="d1"} 2
`

func TestScrapeDeltasAndHistogramQuantiles(t *testing.T) {
	before, after := newScrape(), newScrape()
	if err := before.add(expoBefore); err != nil {
		t.Fatal(err)
	}
	if err := after.add(expoAfter); err != nil {
		t.Fatal(err)
	}
	if got := after.delta(before, "dtx_txns_committed_total"); got != 100 {
		t.Errorf("counter delta over two sites = %v, want 100", got)
	}
	if after.sum["dtx_mvcc_chain_length"] != 6 || after.n["dtx_mvcc_chain_length"] != 2 {
		t.Errorf("gauge sum/n = %v/%v, want 6/2", after.sum["dtx_mvcc_chain_length"], after.n["dtx_mvcc_chain_length"])
	}
	// The window saw 40 observations: 10 up to 1 ms, 20 more up to 10 ms, 10
	// beyond. The median is the 20th: half-way through the second bucket.
	p50, n := after.quantile(before, "dtx_lock_wait_seconds", 0.5)
	if n != 40 || math.Abs(p50-0.0055) > 1e-12 {
		t.Errorf("p50 = %v over %v observations, want 0.0055 over 40", p50, n)
	}
	// The 99th percentile lies past the last finite bound, which is reported.
	if p99, _ := after.quantile(before, "dtx_lock_wait_seconds", 0.99); p99 != 0.01 {
		t.Errorf("p99 = %v, want 0.01", p99)
	}
	if _, n := after.quantile(before, "dtx_absent_seconds", 0.5); n != 0 {
		t.Errorf("absent family has %v observations", n)
	}
	if err := newScrape().add("dtx_broken{site=\"0\"} notanumber\n"); err == nil {
		t.Error("malformed sample accepted")
	}
}

func TestAgreeVerdicts(t *testing.T) {
	dir := t.TempDir()
	spec := `{"workloads":[{"name":"w"}],"end_to_end":[
		{"name":"tput","better":"higher","bound":0.10},
		{"name":"lat","better":"lower","bound":0.10},
		{"name":"noisy","better":"lower","bound":0.10},
		{"name":"setup_s","better":"lower","bound":0.25}]}`
	write := func(name string, tput, lat, noisy []float64) string {
		var buf bytes.Buffer
		for i := range tput {
			rec := record{Workload: "w", Seed: int64(i), result: result{Correct: true, Attempted: 1, Metrics: map[string]metric{
				"tput": {Value: tput[i]}, "lat": {Value: lat[i]}, "noisy": {Value: noisy[i]}, "setup_s": {Value: 1},
			}}}
			line, _ := json.Marshal(rec)
			buf.Write(append(line, '\n'))
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	specPath := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	a := write("a.jsonl", []float64{100, 101, 99, 100}, []float64{10, 10.1, 9.9, 10}, []float64{1, 2, 3, 4})
	b := write("b.jsonl", []float64{98, 99, 97, 98}, []float64{12, 12.1, 11.9, 12}, []float64{1, 2, 3, 4})
	var out bytes.Buffer
	ok, err := agreeFiles(specPath, a, b, &out)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("a 20 % latency regression must be reported")
	}
	for metric, verdict := range map[string]string{"tput": "within", "lat": "outside", "noisy": "unresolved", "setup_s": "within"} {
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			if f := strings.Fields(line); len(f) > 0 && f[0] == metric {
				found = f[len(f)-1] == verdict
			}
		}
		if !found {
			t.Errorf("%s: want verdict %q in:\n%s", metric, verdict, out.String())
		}
	}
}

// TestSmoke runs every workload end to end, untraced and traced, for about
// two seconds each against freshly built dtxd. Off by default: it starts 3
// processes per run and takes ~30 s.
func TestSmoke(t *testing.T) {
	if os.Getenv("DTXBENCH_SMOKE") == "" {
		t.Skip("set DTXBENCH_SMOKE=1 to run the end-to-end smoke test")
	}
	dir := t.TempDir()
	dtxd := filepath.Join(dir, "dtxd")
	build := exec.Command("go", "build", "-o", dtxd, "./cmd/dtxd")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build dtxd: %v\n%s", err, out)
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for i := range workloads {
		for _, trace := range []bool{false, true} {
			w := &workloads[i]
			res, err := run(config{workload: w, seed: 1, seconds: 2, trace: trace, dtxd: dtxd, work: dir, traceOut: dir})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if !res.Correct || res.Attempted < 1 || len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: correct=%v attempted=%d, %d metrics, want %d", w.name, trace, res.Correct, res.Attempted, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s: got %+v, want unit %s", w.name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}
