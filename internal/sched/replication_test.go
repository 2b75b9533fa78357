package sched

import (
	"testing"
	"time"

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
// MaxStaleness refuses the snapshot read and the coordinator retries at the
// primary — the read succeeds and observes the committed write.
func TestReplicationFollowerStaleRefusal(t *testing.T) {
	const lag = 150 * time.Millisecond
	sites := quorumCluster(t, 2, func(cfg *Config) {
		cfg.WriteQuorum = 1 // commit must not wait out the lagging follower
		cfg.MaxStaleness = 5 * time.Millisecond
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
	// lag BEFORE the delayed apply) and the staleness bound expire.
	time.Sleep(30 * time.Millisecond)

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
		cfg.WriteQuorum = 1
		cfg.MaxStaleness = 10 * time.Second // follower never refuses
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
// write path is untouched — no shipping log exists and writes still execute
// at every replica directly.
func TestReplicationEagerModeUnchanged(t *testing.T) {
	sites, _ := newCluster(t, 2, nil)
	for _, s := range sites {
		addDoc(t, s, "d1", peopleXML)
	}
	if sites[0].replLog != nil {
		t.Fatal("replication log allocated without quorum mode")
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

func contains(doc *xmltree.Document, sub string) bool {
	s := doc.String()
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
