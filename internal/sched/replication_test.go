package sched

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/txn"
	"repro/internal/xmltree"
	"repro/internal/xupdate"
)

// quorumCluster builds n sites in quorum-replication mode with optional
// extra config mutation.
func quorumCluster(t *testing.T, n int, mutate func(*Config)) []*Site {
	t.Helper()
	sites, _ := newCluster(t, n, func(cfg *Config) {
		cfg.Replication = ReplicationQuorum
		if mutate != nil {
			mutate(cfg)
		}
	})
	return sites
}

// TestReplicationLogShipToFollower: a committed update at the primary is
// shipped, applied at the follower, and both trees converge.
func TestReplicationLogShipToFollower(t *testing.T) {
	sites := quorumCluster(t, 2, nil)
	for _, s := range sites {
		addDoc(t, s, "d1", peopleXML)
	}

	res, err := sites[0].Submit([]txn.Operation{
		txn.NewUpdate("d1", &xupdate.Update{Kind: xupdate.Change,
			Target: "//person[id='4']/name", Value: "Zoe"}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.State != txn.Committed {
		t.Fatalf("state = %v (%s)", res.State, res.Reason)
	}

	// The write quorum (majority of 2 = 2) includes the follower, so the
	// applied effects are there by the time the commit acknowledged.
	d0, err := sites[0].Document("d1")
	if err != nil {
		t.Fatal(err)
	}
	d1, err := sites[1].Document("d1")
	if err != nil {
		t.Fatal(err)
	}
	if d0.String() != d1.String() {
		t.Fatalf("follower diverged:\nprimary  %s\nfollower %s", d0, d1)
	}
	if got := count(t, sites[0], "dtx_repl_records_shipped_total"); got < 1 {
		t.Fatalf("records shipped = %d, want >= 1", got)
	}
	if got := count(t, sites[1], "dtx_repl_records_applied_total"); got < 1 {
		t.Fatalf("records applied = %d, want >= 1", got)
	}
}

// TestReplicationFollowerStaleRefusal: a follower that knows it lags beyond
// maxStaleness refuses the snapshot read and the coordinator retries at the
// primary — the read succeeds and observes the committed write.
func TestReplicationFollowerStaleRefusal(t *testing.T) {
	const lag = maxStaleness + time.Second
	sites := quorumCluster(t, 2, func(cfg *Config) {
		cfg.WriteQuorum = 1 // commit must not wait out the lagging follower
		if cfg.SiteID == 1 {
			cfg.Hooks = &CrashHooks{BeforeReplApply: func(string, int) { time.Sleep(lag) }}
		}
	})
	for _, s := range sites {
		addDoc(t, s, "d1", peopleXML)
	}

	res, err := sites[0].Submit([]txn.Operation{
		txn.NewUpdate("d1", &xupdate.Update{Kind: xupdate.Change,
			Target: "//person[id='4']/name", Value: "Zoe"}),
	})
	if err != nil || res.State != txn.Committed {
		t.Fatalf("commit: %v / %+v", err, res)
	}

	// Let the ship's head notification land at the follower (it records the
	// lag BEFORE the delayed apply) and the staleness bound expire while the
	// apply is still held back.
	time.Sleep(maxStaleness + 200*time.Millisecond)

	ro, err := sites[1].SubmitReadOnly([]txn.Operation{
		txn.NewQuery("d1", "//person[id='4']/name"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if ro.State != txn.Committed {
		t.Fatalf("read-only state = %v (%s)", ro.State, ro.Reason)
	}
	if len(ro.Results[0]) != 1 || ro.Results[0][0] != "Zoe" {
		t.Fatalf("stale read served: %v (want the primary's committed value)", ro.Results[0])
	}
	if got := count(t, sites[1], "dtx_repl_stale_refusals_total"); got < 1 {
		t.Fatalf("stale refusals = %d, want >= 1", got)
	}
}

// TestReplicationReadYourWrites: a read-only transaction at the site that
// just committed a write is routed to the primary even though the local
// follower is still within the staleness bound (and therefore would serve
// the stale version).
func TestReplicationReadYourWrites(t *testing.T) {
	const lag = 150 * time.Millisecond
	sites := quorumCluster(t, 2, func(cfg *Config) {
		cfg.WriteQuorum = 1 // the lag stays inside maxStaleness: no refusal
		if cfg.SiteID == 1 {
			cfg.Hooks = &CrashHooks{BeforeReplApply: func(string, int) { time.Sleep(lag) }}
		}
	})
	for _, s := range sites {
		addDoc(t, s, "d1", peopleXML)
	}

	// The write is submitted THROUGH site 1 (the follower); quorum routing
	// executes it at the primary, site 0.
	res, err := sites[1].Submit([]txn.Operation{
		txn.NewUpdate("d1", &xupdate.Update{Kind: xupdate.Change,
			Target: "//person[id='4']/name", Value: "Zoe"}),
	})
	if err != nil || res.State != txn.Committed {
		t.Fatalf("commit: %v / %+v", err, res)
	}

	// An immediate read-only transaction at site 1 must observe the write:
	// the local replica has not applied it yet, so read-your-writes pinning
	// must route the read to the primary.
	ro, err := sites[1].SubmitReadOnly([]txn.Operation{
		txn.NewQuery("d1", "//person[id='4']/name"),
	})
	if err != nil || ro.State != txn.Committed {
		t.Fatalf("read-only: %v / %+v", err, ro)
	}
	if len(ro.Results[0]) != 1 || ro.Results[0][0] != "Zoe" {
		t.Fatalf("read-your-writes violated: %v", ro.Results[0])
	}
}

// TestReplicationShipRewindOnGap: a follower that missed a span (simulated
// by seeding the primary's acked bookkeeping too far ahead) NACKs with
// NeedFrom and the primary rewinds within the same commit.
func TestReplicationShipRewindOnGap(t *testing.T) {
	sites := quorumCluster(t, 2, nil)
	for _, s := range sites {
		addDoc(t, s, "d1", peopleXML)
	}
	// First commit replicates index 1 normally.
	if res, err := sites[0].Submit([]txn.Operation{
		txn.NewUpdate("d1", &xupdate.Update{Kind: xupdate.Change,
			Target: "//person[id='4']/name", Value: "One"}),
	}); err != nil || res.State != txn.Committed {
		t.Fatalf("commit 1: %v / %+v", err, res)
	}
	// Corrupt the primary's view of the follower's position: pretend it has
	// acked far ahead, so the next ship sends an empty span with a gap.
	ds := sites[0].doc("d1")
	ds.mu.Lock()
	ds.replAcked[1] = 5
	ds.mu.Unlock()

	if res, err := sites[0].Submit([]txn.Operation{
		txn.NewUpdate("d1", &xupdate.Update{Kind: xupdate.Change,
			Target: "//person[id='4']/name", Value: "Two"}),
	}); err != nil || res.State != txn.Committed {
		t.Fatalf("commit 2 (rewind path): %v / %+v", err, res)
	}
	d0, _ := sites[0].Document("d1")
	d1, _ := sites[1].Document("d1")
	if d0.String() != d1.String() {
		t.Fatalf("follower diverged after rewind:\nprimary  %s\nfollower %s", d0, d1)
	}
}

// TestReplicationEagerModeUnchanged: without Replication set the legacy
// write path is untouched — nothing is shipped and writes still execute at
// every replica directly.
func TestReplicationEagerModeUnchanged(t *testing.T) {
	sites, _ := newCluster(t, 2, nil)
	for _, s := range sites {
		addDoc(t, s, "d1", peopleXML)
	}
	if sites[0].quorum {
		t.Fatal("quorum mode on without Replication set")
	}
	res, err := sites[0].Submit([]txn.Operation{
		txn.NewUpdate("d1", &xupdate.Update{Kind: xupdate.Change,
			Target: "//person[id='4']/name", Value: "Zoe"}),
	})
	if err != nil || res.State != txn.Committed {
		t.Fatalf("commit: %v / %+v", err, res)
	}
	if got := count(t, sites[0], "dtx_repl_records_shipped_total"); got != 0 {
		t.Fatalf("records shipped = %d in eager mode", got)
	}
	d1, err := sites[1].Document("d1")
	if err != nil {
		t.Fatal(err)
	}
	if want := "Zoe"; !contains(d1, want) {
		t.Fatalf("replica missing eager write: %s", d1)
	}
}

// changeName is an update of one person's name in peopleXML.
func changeName(id, name string) txn.Operation {
	return txn.NewUpdate("d1", &xupdate.Update{Kind: xupdate.Change,
		Target: "//person[id='" + id + "']/name", Value: name})
}

// commitCrossed runs two transactions on disjoint persons whose updates
// interleave in the undo log (A, B, A) and commits them in the opposite
// order: B takes the lower record index although A applied first. It
// returns their IDs.
func commitCrossed(t *testing.T, s *Site, a1, a2, b string) (idA, idB txn.ID) {
	t.Helper()
	begin := func() *Session {
		sess, err := s.Begin(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return sess
	}
	exec := func(sess *Session, op txn.Operation) {
		if _, err := sess.Exec(op); err != nil {
			t.Fatal(err)
		}
	}
	sa, sb := begin(), begin()
	exec(sa, changeName("4", a1))
	exec(sb, changeName("7", b))
	exec(sa, changeName("4", a2))
	for _, sess := range []*Session{sb, sa} {
		if err := sess.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	return sa.ID(), sb.ID()
}

// values lists the Change values of a record's operations.
func values(rec store.ReplRecord) []string {
	var out []string
	for _, op := range rec.Ops {
		out = append(out, op.Update.Value)
	}
	return out
}

// TestReplicationSpanInIndexOrder: the primary reads a span back from the
// undo log, where entries sit in apply order. Two transactions that commit
// in the opposite order to their updates still come back as one record
// each, in index order, each carrying only its own operations.
func TestReplicationSpanInIndexOrder(t *testing.T) {
	// Predicate-disjoint writers on one document need xdgl's guarded locks.
	sites, _ := newClusterWithProtocol(t, 2, "xdgl", func(cfg *Config) { cfg.Replication = ReplicationQuorum })
	for _, s := range sites {
		addDoc(t, s, "d1", peopleXML)
	}
	idA, idB := commitCrossed(t, sites[0], "A1", "A2", "B")

	resp := sites[0].handleLogFetch(transport.LogFetchReq{Doc: "d1", After: 0})
	if !resp.Found || resp.PastHorizon || resp.Head != 2 || len(resp.Records) != 2 {
		t.Fatalf("fetch after 0 = found %v, past horizon %v, head %d, %d records",
			resp.Found, resp.PastHorizon, resp.Head, len(resp.Records))
	}
	want := []struct {
		id   txn.ID
		vals string
	}{{idB, "[B]"}, {idA, "[A1 A2]"}}
	for i, rec := range resp.Records {
		if rec.Index != int64(i+1) || rec.Txn != want[i].id || fmt.Sprint(values(rec)) != want[i].vals {
			t.Fatalf("record %d = index %d, txn %s, ops %v; want index %d, txn %s, ops %s",
				i, rec.Index, rec.Txn, values(rec), i+1, want[i].id, want[i].vals)
		}
	}
	// The follower applied the same span through shipping.
	d0, _ := sites[0].Document("d1")
	d1, _ := sites[1].Document("d1")
	if d0.String() != d1.String() {
		t.Fatalf("follower diverged:\nprimary  %s\nfollower %s", d0, d1)
	}
}

// TestReplicationSpanMatchesJournal: before any checkpoint seals them, the
// primary's journal holds every record it committed, decoded from its own
// encoding. The span read back from the undo log must carry the same index,
// transaction and operations for each. (TS differs by design: the journal
// stores the clock reading taken before the commit tick.)
func TestReplicationSpanMatchesJournal(t *testing.T) {
	journal := withJournal(t)
	sites, _ := newClusterWithProtocol(t, 2, "xdgl", func(cfg *Config) {
		cfg.Replication = ReplicationQuorum
		journal(cfg)
	})
	for _, s := range sites {
		addDoc(t, s, "d1", peopleXML)
	}
	p := sites[0]
	for i := 0; i < 3; i++ {
		commitCrossed(t, p, fmt.Sprintf("a%d", i), fmt.Sprintf("A%d", i), fmt.Sprintf("B%d", i))
		if res, err := p.Submit([]txn.Operation{txn.NewUpdate("d1", &xupdate.Update{
			Kind: xupdate.Insert, Target: "/people", Pos: xmltree.Into, New: personSpec(fmt.Sprint(10+i), "N"),
		})}); err != nil || res.State != txn.Committed {
			t.Fatalf("insert %d: %v / %+v", i, err, res)
		}
	}

	want, err := p.Journal().OpenRecords("d1")
	if err != nil {
		t.Fatal(err)
	}
	resp := p.handleLogFetch(transport.LogFetchReq{Doc: "d1", After: 0})
	if resp.PastHorizon || len(resp.Records) != len(want) || len(want) != 9 {
		t.Fatalf("fetch after 0: past horizon %v, %d records; journal holds %d, want 9",
			resp.PastHorizon, len(resp.Records), len(want))
	}
	opsOf := func(rec store.ReplRecord) string {
		enc, err := store.EncodeReplRecord(store.ReplRecord{Ops: rec.Ops})
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}
	for i, rec := range resp.Records {
		w := want[i]
		if rec.Index != w.Index || rec.Txn != w.Txn || opsOf(rec) != opsOf(w) {
			t.Fatalf("record %d = index %d, txn %s, ops %v; journal has index %d, txn %s, ops %v",
				i, rec.Index, rec.Txn, rec.Ops, w.Index, w.Txn, w.Ops)
		}
	}
}

// TestReplicationSpanWindow: the incremental window is the undo log's. After
// 3×checkpointEvery commits the commits have trimmed the oldest records,
// so a follower resuming from 0 must take the whole-document fallback,
// while one checkpointEvery records behind still gets exactly the
// contiguous span up to the head.
func TestReplicationSpanWindow(t *testing.T) {
	sites := quorumCluster(t, 2, nil)
	for _, s := range sites {
		addDoc(t, s, "d1", peopleXML)
	}
	p := sites[0]
	const commits = 3 * checkpointEvery
	for i := 1; i <= commits; i++ {
		if res, err := p.Submit([]txn.Operation{changeName("4", fmt.Sprintf("v%d", i))}); err != nil || res.State != txn.Committed {
			t.Fatalf("commit %d: %v / %+v", i, err, res)
		}
	}

	if resp := p.handleLogFetch(transport.LogFetchReq{Doc: "d1", After: 0}); !resp.Found || !resp.PastHorizon || len(resp.Records) != 0 {
		t.Fatalf("fetch after 0 = found %v, past horizon %v, %d records; want past horizon",
			resp.Found, resp.PastHorizon, len(resp.Records))
	}
	after := int64(commits - checkpointEvery)
	resp := p.handleLogFetch(transport.LogFetchReq{Doc: "d1", After: after})
	if resp.PastHorizon || resp.Head != commits || len(resp.Records) != checkpointEvery {
		t.Fatalf("fetch after %d = past horizon %v, head %d, %d records; want head %d, %d records",
			after, resp.PastHorizon, resp.Head, len(resp.Records), commits, checkpointEvery)
	}
	for i, rec := range resp.Records {
		idx := after + 1 + int64(i)
		if rec.Index != idx || fmt.Sprint(values(rec)) != fmt.Sprintf("[v%d]", idx) {
			t.Fatalf("record %d = index %d, ops %v; want index %d, ops [v%d]", i, rec.Index, values(rec), idx, idx)
		}
	}
}

// TestUndoLogTrimsWithoutCheckpoint: the undo log is trimmed by the commits
// themselves, not by a checkpoint or a reader's publish. On a memory-only
// site — where no commit makes a checkpoint due — 3×checkpointEvery commits
// with no read in between still move the catch-up window past index 0 and
// the reader horizon past a reader that began before them.
func TestUndoLogTrimsWithoutCheckpoint(t *testing.T) {
	sites := quorumCluster(t, 2, nil)
	for _, s := range sites {
		addDoc(t, s, "d1", peopleXML)
	}
	p := sites[0]
	reader, err := p.BeginReadOnly(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	const commits = 3 * checkpointEvery
	for i := 1; i <= commits; i++ {
		if res, err := p.Submit([]txn.Operation{changeName("4", fmt.Sprintf("v%d", i))}); err != nil || res.State != txn.Committed {
			t.Fatalf("commit %d: %v / %+v", i, err, res)
		}
	}
	p.Quiesce()
	ds := p.doc("d1")
	ds.mu.Lock()
	saved := ds.savedIdx
	ds.mu.Unlock()
	if saved != 0 {
		t.Fatalf("a memory-only site checkpointed at index %d", saved)
	}

	if resp := p.handleLogFetch(transport.LogFetchReq{Doc: "d1", After: 0}); !resp.Found || !resp.PastHorizon {
		t.Fatalf("fetch after 0 = found %v, past horizon %v; want past horizon", resp.Found, resp.PastHorizon)
	}
	if _, err := reader.Exec(txn.NewQuery("d1", "//person/id")); !errors.Is(err, txn.ErrSnapshotUnavailable) {
		t.Fatalf("reader begun before the commits = %v, want ErrSnapshotUnavailable", err)
	}
}

func contains(doc *xmltree.Document, sub string) bool {
	s := doc.String()
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
