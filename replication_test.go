package dtx_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	dtx "repro"
)

// quorumConfig is the shared 3-replica quorum-mode cluster configuration of
// this suite: journaled, heartbeat-driven failure detection, write quorum 2
// of 3 — one follower may be down without stalling writes.
func quorumConfig(t *testing.T) dtx.Config {
	t.Helper()
	return dtx.Config{
		Sites:             3,
		StoreDir:          t.TempDir(),
		HeartbeatInterval: 10 * time.Millisecond,
		HeartbeatMisses:   2,
		Replication:       dtx.ReplicationQuorum,
		WriteQuorum:       2,
	}
}

// TestQuorumWriteSurvivesFollowerCrash is the availability win the quorum
// mode exists for: with a 3-replica document and WriteQuorum 2, killing a
// follower does NOT stop writes (eager mode fails them with
// ErrReplicaUnavailable), and the restarted follower converges through
// incremental replication-log catch-up rather than whole-document transfer.
func TestQuorumWriteSurvivesFollowerCrash(t *testing.T) {
	cluster, err := dtx.New(quorumConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if err := cluster.LoadXML("d1",
		`<people><person><id>4</id><name>Ana</name></person></people>`); err != nil {
		t.Fatal(err)
	}

	// Committed traffic before the crash.
	if _, err := cluster.Submit(0, dtx.Change("d1", "//person[id='4']/name", "Bea")); err != nil {
		t.Fatal(err)
	}
	cluster.Sync()

	// Kill a FOLLOWER of d1 (the primary is the lowest catalog site, 0).
	if err := cluster.KillSite(2); err != nil {
		t.Fatal(err)
	}

	// Writes keep committing on the remaining quorum — every single one, not
	// just eventually: the dead follower simply never acks, and primary +
	// follower 1 are the quorum.
	for i := 0; i < 5; i++ {
		res, err := cluster.Submit(0, dtx.Change("d1", "//person[id='4']/name",
			fmt.Sprintf("Cal%d", i)))
		if err != nil {
			if errors.Is(err, dtx.ErrReplicaUnavailable) {
				t.Fatalf("write %d refused with ErrReplicaUnavailable despite a live quorum", i)
			}
			t.Fatalf("write %d under one-follower-down: %v", i, err)
		}
		if !res.Committed {
			t.Fatalf("write %d not committed: %s", i, res.Reason)
		}
	}

	// The surviving follower is current, so reads served there see the tail.
	waitFor(t, 5*time.Second, "surviving follower current", func() bool {
		res, err := cluster.SubmitReadOnly(1, dtx.Query("d1", "//person[id='4']/name"))
		return err == nil && res.Committed && len(res.Results[0]) == 1 && res.Results[0][0] == "Cal4"
	})

	// Restart the dead follower: recovery must converge it through the
	// incremental log — the missed span is within the horizon — not by
	// replacing the whole document.
	report, err := cluster.RestartSite(2)
	if err != nil {
		t.Fatal(err)
	}
	if report.ReplRecords == 0 {
		t.Fatalf("restart used no incremental catch-up (report %s)", report)
	}

	// Every replica converges to identical XML.
	want := mustXML(t, cluster, 0, "d1")
	for site := 1; site < 3; site++ {
		if got := mustXML(t, cluster, site, "d1"); got != want {
			t.Fatalf("site %d diverged (report %s):\nwant %s\ngot  %s", site, report, want, got)
		}
	}

	// And the readmitted follower receives post-restart writes by shipping.
	waitFor(t, 5*time.Second, "writes replicate to restarted follower", func() bool {
		res, err := cluster.Submit(1, dtx.Change("d1", "//person[id='4']/name", "Dan"))
		if err != nil || !res.Committed {
			return false
		}
		return mustXML(t, cluster, 2, "d1") == mustXML(t, cluster, 0, "d1")
	})
}

// TestQuorumPrimaryDownFailsWrites: quorum mode routes every write through
// the document's primary, so losing IT is the one crash that still refuses
// writes — while followers, which are fully applied, keep serving snapshot
// reads.
func TestQuorumPrimaryDownFailsWrites(t *testing.T) {
	cluster, err := dtx.New(quorumConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if err := cluster.LoadXML("d1",
		`<people><person><id>4</id><name>Ana</name></person></people>`); err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.Submit(1, dtx.Change("d1", "//person[id='4']/name", "Bea")); err != nil {
		t.Fatal(err)
	}
	cluster.Sync()

	if err := cluster.KillSite(0); err != nil { // d1's primary
		t.Fatal(err)
	}

	// Once the failure detector convicts the primary, writes fail fast with
	// the typed replica error.
	waitFor(t, 5*time.Second, "typed write failure", func() bool {
		_, err := cluster.Submit(1, dtx.Change("d1", "//person[id='4']/name", "Cal"))
		return errors.Is(err, dtx.ErrReplicaUnavailable)
	})

	// The followers applied everything before the crash, so they are not
	// stale and snapshot reads keep succeeding.
	res, err := cluster.SubmitReadOnly(1, dtx.Query("d1", "//person[id='4']/name"))
	if err != nil || !res.Committed {
		t.Fatalf("follower read with primary down: %v / %+v", err, res)
	}
	if len(res.Results[0]) != 1 || res.Results[0][0] != "Bea" {
		t.Fatalf("follower read = %v, want [Bea]", res.Results[0])
	}
}

// TestQuorumCatchUpPastHorizon: a follower that missed more records than the
// primary's undo log retains (at least the last 64 per document, trimmed at
// each checkpoint; 520 missed records are well past it) cannot catch up
// incrementally —
// recovery falls back to whole-document transfer and re-anchors the
// replication position at the transferred head, after which incremental
// shipping resumes.
func TestQuorumCatchUpPastHorizon(t *testing.T) {
	const horizon = 512
	cluster, err := dtx.New(quorumConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if err := cluster.LoadXML("d1",
		`<people><person><id>4</id><name>Ana</name></person></people>`); err != nil {
		t.Fatal(err)
	}

	if err := cluster.KillSite(2); err != nil {
		t.Fatal(err)
	}

	// Push the primary's log past the horizon while the follower is down:
	// its resume position (0) falls behind the compaction floor.
	for i := 0; i < horizon+8; i++ {
		if res, err := cluster.Submit(0, dtx.Change("d1", "//person[id='4']/name",
			fmt.Sprintf("N%d", i))); err != nil || !res.Committed {
			t.Fatalf("write %d: %v / %+v", i, err, res)
		}
	}

	report, err := cluster.RestartSite(2)
	if err != nil {
		t.Fatal(err)
	}
	if report.ReplRecords != 0 {
		t.Fatalf("incremental catch-up crossed the compaction horizon (report %s)", report)
	}
	if len(report.CaughtUp) == 0 {
		t.Fatalf("whole-document fallback did not run (report %s)", report)
	}

	want := mustXML(t, cluster, 0, "d1")
	if got := mustXML(t, cluster, 2, "d1"); got != want {
		t.Fatalf("restarted follower diverged:\nwant %s\ngot  %s", want, got)
	}

	// The re-anchored position accepts incremental shipping again.
	waitFor(t, 5*time.Second, "incremental shipping after re-anchor", func() bool {
		res, err := cluster.Submit(0, dtx.Change("d1", "//person[id='4']/name", "Zoe"))
		if err != nil || !res.Committed {
			return false
		}
		return mustXML(t, cluster, 2, "d1") == mustXML(t, cluster, 0, "d1")
	})
}

// TestQuorumCatchUpFromOlderReplica: a recovering follower whose own journal
// replay is ahead of the only reachable replica still takes that replica's
// copy (the primary is down, nothing vouches for the local one) — but at the
// position the copy was cut at, not at its own newer index. Labelling the
// older bytes with the newer index would seal the local records behind it and
// tell the primary there is nothing to refill: acknowledged commits 2 and 3
// would be gone from site 2 for good.
func TestQuorumCatchUpFromOlderReplica(t *testing.T) {
	cluster, err := dtx.New(quorumConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if err := cluster.LoadXML("d1", `<ps/>`); err != nil {
		t.Fatal(err)
	}
	insert := func(i int) {
		t.Helper()
		waitFor(t, 5*time.Second, fmt.Sprintf("insert %d", i), func() bool {
			res, err := cluster.Submit(0, dtx.Insert("d1", "/ps", dtx.Into, dtx.Elem("p", fmt.Sprint(i))))
			return err == nil && res.Committed
		})
	}
	kill := func(sites ...int) {
		t.Helper()
		for _, s := range sites {
			if err := cluster.KillSite(s); err != nil {
				t.Fatal(err)
			}
		}
	}

	insert(1)
	waitFor(t, 5*time.Second, "site 1 applies record 1", func() bool {
		return mustXML(t, cluster, 1, "d1") == mustXML(t, cluster, 0, "d1")
	})
	kill(1)
	insert(2)
	insert(3)
	waitFor(t, 5*time.Second, "site 2 applies record 3", func() bool {
		return mustXML(t, cluster, 2, "d1") == mustXML(t, cluster, 0, "d1")
	})
	kill(2, 0)

	// Site 1 comes back alone at record 1; site 2 replays to 3, finds the
	// primary down and fetches site 1's copy; the primary returns last.
	for _, s := range []int{1, 2, 0} {
		if _, err := cluster.RestartSite(s); err != nil {
			t.Fatalf("restart site %d: %v", s, err)
		}
	}
	insert(4)

	const want = `<ps><p>1</p><p>2</p><p>3</p><p>4</p></ps>`
	holds := func(s int) bool { return strings.Join(strings.Fields(mustXML(t, cluster, s, "d1")), "") == want }
	for s := 0; s < 3; s++ {
		waitFor(t, 5*time.Second, fmt.Sprintf("site %d holds all four commits", s), func() bool { return holds(s) })
	}

	// Site 2's journal now carries records 2 and 3 twice (its own intents
	// past the fetched position stayed open, then the primary shipped them
	// again): a replay applies each once.
	kill(2)
	if _, err := cluster.RestartSite(2); err != nil {
		t.Fatal(err)
	}
	if !holds(2) {
		t.Fatalf("site 2 after a second restart: %s", mustXML(t, cluster, 2, "d1"))
	}
}

// TestQuorumFirstCommitAfterPrimaryRestart: a restarted primary has no record
// of its followers' positions, and its span from index 0 reaches past its
// undo log, so its first ship carries only the head. The followers' acks say
// where they are, and the primary must re-ship from there: the first commit
// after the restart commits, with both followers live and current.
func TestQuorumFirstCommitAfterPrimaryRestart(t *testing.T) {
	cluster, err := dtx.New(quorumConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if err := cluster.LoadXML("d1", `<ps/>`); err != nil {
		t.Fatal(err)
	}
	insert := func(i int) {
		t.Helper()
		res, err := cluster.Submit(0, dtx.Insert("d1", "/ps", dtx.Into, dtx.Elem("p", fmt.Sprint(i))))
		if err != nil || !res.Committed {
			t.Fatalf("insert %d: %v / %+v", i, err, res)
		}
	}
	for i := 1; i <= 70; i++ {
		insert(i)
	}
	for s := 1; s < 3; s++ {
		waitFor(t, 5*time.Second, fmt.Sprintf("site %d applies record 70", s), func() bool {
			return mustXML(t, cluster, s, "d1") == mustXML(t, cluster, 0, "d1")
		})
	}
	if err := cluster.KillSite(0); err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.RestartSite(0); err != nil {
		t.Fatal(err)
	}
	insert(71)
}
