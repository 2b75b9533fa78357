package harness

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/lock"
	"repro/internal/sched"
	"repro/internal/txn"
)

func quickParams(mut func(*Params)) Params {
	p := Params{
		Sites: 2, Clients: 4, TxPerClient: 2, OpsPerTx: 3,
		UpdateTxPct: 30, UpdateOpPct: 20, BaseBytes: 24 << 10,
		Partial: true, Protocol: "xdgl", Seed: 11,
	}
	if mut != nil {
		mut(&p)
	}
	return p
}

func TestRunCompletesAndAccounts(t *testing.T) {
	res, err := Run(quickParams(nil))
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed+res.Aborted+res.Failed != res.Total {
		t.Fatalf("accounting broken: %+v", res)
	}
	if res.Committed == 0 {
		t.Fatal("nothing committed")
	}
	if res.Failed != 0 {
		t.Fatalf("failures in a healthy run: %d", res.Failed)
	}
	if res.MeanRespMs <= 0 {
		t.Fatal("no response time measured")
	}
	if len(res.CommitTimes) != res.Committed {
		t.Fatal("commit timeline incomplete")
	}
	if res.String() == "" {
		t.Fatal("empty render")
	}
}

func TestRunTotalReplication(t *testing.T) {
	res, err := Run(quickParams(func(p *Params) { p.Partial = false }))
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed == 0 {
		t.Fatal("nothing committed under total replication")
	}
}

func TestRunAllProtocols(t *testing.T) {
	for _, proto := range []string{"xdgl", "node2pl", "doclock"} {
		res, err := Run(quickParams(func(p *Params) { p.Protocol = proto }))
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if res.Committed == 0 {
			t.Fatalf("%s: nothing committed", proto)
		}
	}
	if _, err := Run(quickParams(func(p *Params) { p.Protocol = "bogus" })); err == nil {
		t.Fatal("bogus protocol accepted")
	}
}

func TestRunSerializabilityChecked(t *testing.T) {
	res, err := Run(quickParams(func(p *Params) {
		p.CheckSerializability = true
		p.Clients = 6
		p.UpdateTxPct = 50
	}))
	if err != nil {
		t.Fatalf("serializability check failed: %v", err)
	}
	if res.Committed == 0 {
		t.Fatal("nothing committed")
	}
}

func TestHistoryCheckerCatchesCycle(t *testing.T) {
	// Construct a history that is NOT serializable: t1 and t2 each write
	// two paths in opposite order with interleaved acquisition.
	h := NewHistory()
	t1 := txn.ID{Site: 1, Seq: 1}
	t2 := txn.ID{Site: 1, Seq: 2}
	gA := []sched.GrantInfo{{Path: "/a", Mode: lock.X}}
	gB := []sched.GrantInfo{{Path: "/b", Mode: lock.X}}
	h.OnAcquired(0, t1, 0, "d", true, gA) // t1 holds /a
	h.OnAcquired(0, t2, 0, "d", true, gB) // t2 holds /b
	h.OnAcquired(0, t2, 1, "d", true, gA) // t2 then /a  (t1 -> t2)
	h.OnAcquired(0, t1, 1, "d", true, gB) // t1 then /b  (t2 -> t1)
	h.OnFinished(t1, true)
	h.OnFinished(t2, true)
	if err := h.CheckSerializable(); err == nil {
		t.Fatal("checker accepted a cyclic history")
	}
}

func TestHistoryAbortedTxnsIgnored(t *testing.T) {
	h := NewHistory()
	t1 := txn.ID{Site: 1, Seq: 1}
	t2 := txn.ID{Site: 1, Seq: 2}
	gA := []sched.GrantInfo{{Path: "/a", Mode: lock.X}}
	gB := []sched.GrantInfo{{Path: "/b", Mode: lock.X}}
	h.OnAcquired(0, t1, 0, "d", true, gA)
	h.OnAcquired(0, t2, 0, "d", true, gB)
	h.OnAcquired(0, t2, 1, "d", true, gA)
	h.OnAcquired(0, t1, 1, "d", true, gB)
	h.OnFinished(t1, true)
	h.OnFinished(t2, false) // t2 aborted: cycle disappears
	if err := h.CheckSerializable(); err != nil {
		t.Fatalf("aborted txn still counted: %v", err)
	}
	if h.Committed() != 1 {
		t.Fatalf("committed = %d", h.Committed())
	}
}

func TestHistoryUndoneOpsIgnored(t *testing.T) {
	h := NewHistory()
	t1 := txn.ID{Site: 1, Seq: 1}
	t2 := txn.ID{Site: 1, Seq: 2}
	gA := []sched.GrantInfo{{Path: "/a", Mode: lock.X}}
	gB := []sched.GrantInfo{{Path: "/b", Mode: lock.X}}
	h.OnAcquired(0, t1, 0, "d", true, gA)
	h.OnAcquired(0, t2, 0, "d", true, gB)
	h.OnAcquired(0, t2, 1, "d", true, gA)
	h.OnAcquired(0, t1, 1, "d", true, gB)
	h.OnUndone(0, t1, 1) // t1's second op undone: edge t2->t1 vanishes
	h.OnFinished(t1, true)
	h.OnFinished(t2, true)
	if err := h.CheckSerializable(); err != nil {
		t.Fatalf("undone op still counted: %v", err)
	}
}

func TestFormatFigure(t *testing.T) {
	fig := Figure{
		Name: "f", Title: "Test figure", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Label: "a", Points: []Point{{X: 1, Y: 2}, {X: 2, Y: 3}}},
			{Label: "b", Points: []Point{{X: 1, Y: 5}}},
		},
	}
	out := Format(fig)
	if !strings.Contains(out, "Test figure") || !strings.Contains(out, "2.00") {
		t.Fatalf("format:\n%s", out)
	}
	if !strings.Contains(out, "-") { // missing point placeholder
		t.Fatalf("missing placeholder:\n%s", out)
	}
}

func TestFig12SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep in -short mode")
	}
	sc := Scale{BaseBytes: 24 << 10, ClientDiv: 10, Seed: 3, Latency: 50 * time.Microsecond}
	figs, err := Fig12(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 1 || len(figs[0].Series) != 2 {
		t.Fatalf("fig12 shape: %+v", figs)
	}
	for _, s := range figs[0].Series {
		if len(s.Points) != 10 {
			t.Fatalf("series %s has %d points", s.Label, len(s.Points))
		}
		// Cumulative: monotone non-decreasing.
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].Y < s.Points[i-1].Y {
				t.Fatalf("series %s not cumulative", s.Label)
			}
		}
	}
}

func TestFig9SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep in -short mode")
	}
	sc := Scale{BaseBytes: 24 << 10, ClientDiv: 10, Seed: 3, Latency: 50 * time.Microsecond}
	figs, err := Fig9(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 2 {
		t.Fatalf("fig9 panels = %d", len(figs))
	}
	for _, fig := range figs {
		if len(fig.Series) != 2 {
			t.Fatalf("%s series = %d", fig.Name, len(fig.Series))
		}
		for _, s := range fig.Series {
			if len(s.Points) != 5 {
				t.Fatalf("%s/%s points = %d", fig.Name, s.Label, len(s.Points))
			}
		}
	}
}

func TestFig8Table(t *testing.T) {
	table, err := Fig8(64<<10, 1, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Fig. 8", "s0", "s1", "s2", "s3", "xmark#0", "KB"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
	if _, err := Fig8(1<<10, 1, []int{1000}); err == nil {
		t.Fatal("absurd site count accepted")
	}
}

func TestBuildClusterInvariants(t *testing.T) {
	p := quickParams(nil)
	cluster, err := BuildCluster(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	if len(cluster.Sites) != p.Sites {
		t.Fatalf("sites = %d", len(cluster.Sites))
	}
	if len(cluster.Docs) != p.Sites {
		t.Fatalf("partial replication must yield one fragment per site, got %d", len(cluster.Docs))
	}
	// Every fragment is held by exactly one site, and that site has it in
	// memory with at least one workload section.
	for _, d := range cluster.Docs {
		sites := cluster.Sites[0].Catalog().Sites(d.Name)
		if len(sites) != 1 {
			t.Fatalf("fragment %s at %v", d.Name, sites)
		}
		if len(d.Sections) == 0 {
			t.Fatalf("fragment %s has no sections", d.Name)
		}
		if _, err := cluster.Sites[sites[0]].Document(d.Name); err != nil {
			t.Fatalf("fragment %s not loaded at site %d", d.Name, sites[0])
		}
	}
}

func TestRunWithGuardAblationProtocol(t *testing.T) {
	res, err := Run(quickParams(func(p *Params) {
		p.Protocol = "xdgl-noguard"
		p.CheckSerializability = true
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed == 0 {
		t.Fatal("nothing committed under xdgl-noguard")
	}
}

// TestCrashInjectionWorkload: a chaos run — a replica dies mid-checkpoint
// under the auction workload (enough update transactions for its document to
// come due for one); the run completes, the survivors keep committing, and
// the victim is verifiably dead.
func TestCrashInjectionWorkload(t *testing.T) {
	p := Params{
		Sites:       3,
		Clients:     6,
		TxPerClient: 24,
		UpdateTxPct: 100,
		BaseBytes:   32 << 10,
		Heartbeat:   5 * time.Millisecond,
		Crash:       &CrashSpec{Site: 1, Stage: CrashMidCheckpoint},
		Seed:        11,
	}
	cluster, err := BuildCluster(p.withDefaults(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()

	res := RunOn(context.Background(), cluster, p)
	if !cluster.Sites[1].Killed() {
		t.Fatal("crash spec never fired")
	}
	if res.Committed == 0 {
		t.Fatalf("no transaction committed around the crash: %+v", res)
	}
	// With total replication every post-crash write needs the dead site, so
	// the blast radius shows up as failed transactions — reads and
	// pre-crash writes account for the commits.
	if res.Committed+res.Aborted+res.Failed != res.Total {
		t.Fatalf("lost transactions: %+v", res)
	}
}

// TestQuorumReplicationLagWorkload drives the standard mixed workload in
// quorum-replication mode with every follower's apply delayed by the
// fault-injection hook: commits must wait out a follower ack (quorum 2 of 3)
// and snapshot readers run against followers that knowingly lag, exercising
// the stale-refusal reroute under load. A healthy quorum means no
// transaction may FAIL — lag converts into latency, not unavailability.
func TestQuorumReplicationLagWorkload(t *testing.T) {
	p := Params{
		Sites: 3, Clients: 6, TxPerClient: 4, OpsPerTx: 3,
		UpdateTxPct: 100, UpdateOpPct: 50, ReadOnlyPct: 40,
		BaseBytes: 24 << 10, Partial: false, Protocol: "xdgl", Seed: 11,
		Heartbeat:    5 * time.Millisecond,
		Replication:  "quorum",
		WriteQuorum:  2,
		ReplApplyLag: time.Millisecond,
	}
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed == 0 {
		t.Fatalf("nothing committed under replication lag: %+v", res)
	}
	if res.Failed != 0 {
		t.Fatalf("%d transactions failed despite a reachable quorum: %+v", res.Failed, res)
	}
	if res.Committed+res.Aborted+res.Failed != res.Total {
		t.Fatalf("lost transactions: %+v", res)
	}
	if res.ReadOnlyCommitted == 0 {
		t.Fatal("no read-only transaction committed against the lagging followers")
	}
}

// TestSnapshotReadersVsLockedReaders pits two workloads with the same
// read/write balance against each other on one hot document: in A the
// readers take the locking path (pure-query transactions still acquire
// read locks and can deadlock with writers); in B the same share of
// transactions goes through the MVCC snapshot path. Snapshot readers
// must never abort — they hold no locks and add no wait-for edges, so
// they cannot be deadlock victims — and total deadlock victims must not
// exceed the locked run's.
func TestSnapshotReadersVsLockedReaders(t *testing.T) {
	base := Params{
		Sites: 2, Clients: 8, TxPerClient: 4, OpsPerTx: 5,
		UpdateOpPct: 100, BaseBytes: 16 << 10, Docs: 1,
		Partial: false, Protocol: "xdgl", Seed: 11,
		OpDelay: 300 * time.Microsecond,
	}

	locked := base
	locked.UpdateTxPct = 50 // half the transactions are pure queries, on the locking path

	snap := base
	snap.UpdateTxPct = 100 // every locking transaction writes...
	snap.ReadOnlyPct = 50  // ...because the read half rides the snapshot path

	lockedRes, err := Run(locked)
	if err != nil {
		t.Fatal(err)
	}
	snapRes, err := Run(snap)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("locked:   %s", lockedRes)
	t.Logf("snapshot: %s", snapRes)

	if snapRes.ReadOnlyCommitted == 0 {
		t.Fatal("no read-only transaction committed — snapshot path never exercised")
	}
	if snapRes.SnapshotReads == 0 {
		t.Fatal("no snapshot reads recorded")
	}
	if snapRes.ReadOnlyAborted != 0 {
		t.Fatalf("snapshot readers aborted %d times; lock-free readers cannot be deadlock victims",
			snapRes.ReadOnlyAborted)
	}
	if snapRes.Deadlocks > lockedRes.Deadlocks {
		t.Fatalf("snapshot run saw more deadlock victims (%d) than the locked run (%d)",
			snapRes.Deadlocks, lockedRes.Deadlocks)
	}
}

// TestSnapshotHotDocZipfWorkload smoke-tests the skewed-access knob
// together with the read-only mix: the run must complete and account for
// every transaction.
func TestSnapshotHotDocZipfWorkload(t *testing.T) {
	p := quickParams(func(p *Params) {
		p.Docs = 4
		p.HotDocZipf = 1.5
		p.ReadOnlyPct = 50
		p.UpdateTxPct = 80
	})
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed+res.Aborted+res.Failed != res.Total {
		t.Fatalf("accounting broken: %+v", res)
	}
	if res.Committed == 0 {
		t.Fatal("nothing committed")
	}
	if res.ReadOnlyCommitted == 0 {
		t.Fatal("no read-only transaction committed")
	}
}

// TestLatencyProfileBreakdown pins the registry-backed per-phase view:
// LatencyProfile arms every site, fills Result.Breakdown from the merged
// histograms, and String() renders the phase row ablation runs compare on.
func TestLatencyProfileBreakdown(t *testing.T) {
	res, err := Run(quickParams(func(p *Params) {
		p.LatencyProfile = true
		p.Clients = 6
		p.TxPerClient = 4
		p.UpdateTxPct = 60
		p.UpdateOpPct = 60
	}))
	if err != nil {
		t.Fatal(err)
	}
	bd := res.Breakdown
	if bd == nil {
		t.Fatal("LatencyProfile set but Result.Breakdown is nil")
	}
	// Every transaction executes operations, so the exec phase must have
	// observations; lock-wait and 2PC phases may legitimately be zero on an
	// uncontended or single-site run, so only exec is asserted non-zero.
	if bd.Exec.P99Ms <= 0 {
		t.Fatalf("exec phase unobserved: %+v", bd)
	}
	if bd.Exec.P50Ms > bd.Exec.P99Ms {
		t.Fatalf("p50 %.3f > p99 %.3f", bd.Exec.P50Ms, bd.Exec.P99Ms)
	}
	if row := res.String(); !strings.Contains(row, "phase ms") {
		t.Fatalf("String() missing breakdown row:\n%s", row)
	}
}
