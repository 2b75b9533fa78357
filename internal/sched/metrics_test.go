package sched

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/txn"
	"repro/internal/xupdate"
)

// histCount sums a family's observations across its children.
func histCount(v *obs.HistogramVec) int64 {
	var n int64
	for _, h := range v.Children() {
		n += h.Count()
	}
	return n
}

// withJournal gives every site of a cluster its own journal, enabling the
// durable 2PC decision record (and its latency span) on the commit path.
func withJournal(t *testing.T) func(*Config) {
	t.Helper()
	dir := t.TempDir()
	return func(cfg *Config) {
		j, err := store.OpenJournal(filepath.Join(dir, fmt.Sprintf("site%d.log", cfg.SiteID)))
		if err != nil {
			t.Fatal(err)
		}
		cfg.Journal = j
	}
}

// TestMetricsContention drives conflicting writers over one replicated
// document with the registry armed and asserts the gated histograms actually
// filled: a contended workload must leave lock-wait observations, and every
// distributed commit a decision-write and commit-fanout sample.
func TestMetricsContention(t *testing.T) {
	sites, _ := newCluster(t, 2, withJournal(t))
	s0, s1 := sites[0], sites[1]
	addDoc(t, s0, "d2", productsXML)
	addDoc(t, s1, "d2", productsXML)
	s0.Metrics().Arm()
	s1.Metrics().Arm()

	const writers, txns = 8, 5
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < txns; i++ {
				_, _ = s0.Submit([]txn.Operation{
					txn.NewUpdate("d2", &xupdate.Update{Kind: xupdate.Change,
						Target: "//product[id='4']/price", Value: "9.99"}),
				})
			}
		}()
	}
	wg.Wait()

	committed := count(t, s0, "dtx_txns_committed_total")
	if committed == 0 {
		t.Fatal("no commits")
	}
	if n := histCount(s0.m.opExec); n == 0 {
		t.Error("dtx_op_exec_seconds empty after committed work")
	}
	if n := histCount(s0.m.lockWait); n == 0 {
		t.Error("dtx_lock_wait_seconds empty after contended workload")
	}
	if n := s0.m.decisionWrite.Count(); n < committed || n == 0 {
		t.Errorf("dtx_2pc_decision_write_seconds count = %d, want >= %d (one per distributed commit)",
			n, committed)
	}
	if n := s0.m.commitFanout.Count(); n < committed || n == 0 {
		t.Errorf("dtx_2pc_commit_fanout_seconds count = %d, want >= %d (one per distributed commit)",
			n, committed)
	}
	s0.Sync()
	if n := histCount(s0.m.persistSave); n == 0 {
		t.Error("dtx_persist_save_seconds empty after synced commits")
	}

	// The same numbers must survive the trip through the exposition text.
	text := s0.MetricsText()
	for _, want := range []string{
		"dtx_lock_wait_seconds_bucket",
		`dtx_op_conflicts_total{site="0",doc="d2"}`,
		"dtx_2pc_decision_write_seconds_count",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestSlowTxnTrace configures the tracer with threshold zero — trace every
// transaction — and checks one committed distributed update emits a JSON
// line whose timeline covers begin, execute and both 2PC phases.
func TestSlowTxnTrace(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	journal := withJournal(t)
	sites, _ := newCluster(t, 2, func(cfg *Config) {
		journal(cfg)
		if cfg.SiteID == 0 {
			cfg.TraceSink = func(line string) {
				mu.Lock()
				lines = append(lines, line)
				mu.Unlock()
			}
		}
	})
	s0, s1 := sites[0], sites[1]
	addDoc(t, s0, "d2", productsXML)
	addDoc(t, s1, "d2", productsXML)

	if _, err := s0.Submit([]txn.Operation{
		txn.NewUpdate("d2", &xupdate.Update{Kind: xupdate.Change,
			Target: "//product[id='14']/price", Value: "99.00"}),
	}); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(lines) != 1 {
		t.Fatalf("trace lines = %d, want 1", len(lines))
	}
	var tl struct {
		Txn    string  `json:"txn"`
		State  string  `json:"state"`
		Total  float64 `json:"total_ms"`
		Events []struct {
			Ev string `json:"ev"`
		} `json:"events"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &tl); err != nil {
		t.Fatalf("trace line not JSON: %v\n%s", err, lines[0])
	}
	if tl.State != "committed" || tl.Txn == "" {
		t.Fatalf("trace line = %+v", tl)
	}
	seen := map[string]bool{}
	for _, e := range tl.Events {
		seen[e.Ev] = true
	}
	for _, ev := range []string{"begin", "exec", "2pc-decision-write", "2pc-commit-fanout", "finish"} {
		if !seen[ev] {
			t.Errorf("trace timeline missing %q event: %s", ev, lines[0])
		}
	}
}

// TestMetricsQuorumAck pins the quorum-replication phase: in quorum mode a
// committed update at the primary must leave a quorum-ack wait sample and,
// with tracing on, the matching timeline event.
func TestMetricsQuorumAck(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	sites := quorumCluster(t, 2, func(cfg *Config) {
		if cfg.SiteID == 0 {
			cfg.TraceSink = func(line string) {
				mu.Lock()
				lines = append(lines, line)
				mu.Unlock()
			}
		}
	})
	s0, s1 := sites[0], sites[1]
	addDoc(t, s0, "d1", peopleXML)
	addDoc(t, s1, "d1", peopleXML)

	res, err := s0.Submit([]txn.Operation{
		txn.NewUpdate("d1", &xupdate.Update{Kind: xupdate.Change,
			Target: "//person[id='4']/name", Value: "Zoe"}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.State != txn.Committed {
		t.Fatalf("state = %v (%s)", res.State, res.Reason)
	}
	if n := s0.m.quorumAck.Count(); n == 0 {
		t.Error("dtx_2pc_quorum_ack_seconds empty after quorum commit")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(lines) == 0 || !strings.Contains(lines[0], `"2pc-quorum-ack"`) {
		t.Errorf("trace missing 2pc-quorum-ack event: %v", lines)
	}
}

// TestSlowTxnThresholdFilters sets a threshold no real transaction reaches
// and checks nothing is emitted.
func TestSlowTxnThresholdFilters(t *testing.T) {
	var mu sync.Mutex
	count := 0
	sites, _ := newCluster(t, 1, func(cfg *Config) {
		cfg.SlowTxnThreshold = 10 * time.Minute
		cfg.TraceSink = func(string) {
			mu.Lock()
			count++
			mu.Unlock()
		}
	})
	s := sites[0]
	addDoc(t, s, "d2", productsXML)
	if _, err := s.Submit([]txn.Operation{txn.NewQuery("d2", "//product/price")}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if count != 0 {
		t.Fatalf("fast transaction traced %d time(s)", count)
	}
}

// TestOpEvalHistogram: dtx_op_eval_seconds takes one observation per query
// evaluated at the participant, on the locked path and on the snapshot path,
// under the queried document's label — and none while the registry is
// unarmed.
func TestOpEvalHistogram(t *testing.T) {
	sites, _ := newCluster(t, 1, nil)
	s := sites[0]
	addDoc(t, s, "d1", peopleXML)
	addDoc(t, s, "d2", productsXML)
	query := []txn.Operation{txn.NewQuery("d1", "//person/name")}
	if _, err := s.Submit(query); err != nil {
		t.Fatal(err)
	}
	if n := histCount(s.m.opEval); n != 0 {
		t.Fatalf("unarmed registry recorded %d evaluations", n)
	}

	s.Metrics().Arm()
	const locked, snapshot = 5, 3
	for range locked {
		if res, err := s.Submit(query); err != nil || res.State != txn.Committed {
			t.Fatalf("locked query: %v %+v", err, res)
		}
	}
	for range snapshot {
		if res, err := s.SubmitReadOnly(query); err != nil || res.State != txn.Committed {
			t.Fatalf("snapshot query: %v %+v", err, res)
		}
	}
	if n := s.m.opEval.With("d1").Count(); n != locked+snapshot {
		t.Fatalf("dtx_op_eval_seconds{doc=d1} count = %d, want %d", n, locked+snapshot)
	}
	if n := s.m.opEval.With("d2").Count(); n != 0 {
		t.Fatalf("dtx_op_eval_seconds{doc=d2} count = %d, want 0", n)
	}
	if text := s.MetricsText(); !strings.Contains(text, fmt.Sprintf(`dtx_op_eval_seconds_count{site="0",doc="d1"} %d`, locked+snapshot)) {
		t.Fatalf("exposition lacks the d1 eval count:\n%s", text)
	}
}
