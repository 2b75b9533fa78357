package sched

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/txn"
	"repro/internal/xmltree"
	"repro/internal/xupdate"
)

// TestSnapshotReadZeroLocks is the subsystem's core claim: a read-only
// transaction acquires zero locks and adds zero wait-for edges, even while a
// writer holds exclusive locks on the very document it reads.
func TestSnapshotReadZeroLocks(t *testing.T) {
	sites, _ := newCluster(t, 1, nil)
	s := sites[0]
	addDoc(t, s, "d1", peopleXML)

	// Writer takes X locks on /people and stays open.
	writer, err := s.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := writer.Exec(txn.NewUpdate("d1", &xupdate.Update{
		Kind: xupdate.Insert, Target: "/people", Pos: xmltree.Into,
		New: personSpec("9", "Carla"),
	})); err != nil {
		t.Fatal(err)
	}
	locksBefore := s.Stats().LocksAcquired

	reader, err := s.BeginReadOnly(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reader.ReadOnly() {
		t.Fatal("BeginReadOnly session does not report ReadOnly")
	}
	names, err := reader.Exec(txn.NewQuery("d1", "//person/name"))
	if err != nil {
		t.Fatalf("snapshot read blocked or failed: %v", err)
	}
	if len(names) != 2 {
		t.Fatalf("snapshot read = %v, want the 2 committed names (writer's insert is uncommitted)", names)
	}
	if got := s.Stats().LocksAcquired; got != locksBefore {
		t.Fatalf("read-only transaction acquired %d locks, want 0", got-locksBefore)
	}
	if edges := s.localEdges(); len(edges) != 0 {
		t.Fatalf("read-only transaction left wait-for edges: %v", edges)
	}
	if err := reader.Commit(); err != nil {
		t.Fatalf("vacuous commit: %v", err)
	}
	if err := writer.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotIsolationNeverMidTxn: a snapshot reader never observes a
// writer's uncommitted state, and observes it promptly once committed.
func TestSnapshotIsolationNeverMidTxn(t *testing.T) {
	sites, _ := newCluster(t, 1, nil)
	s := sites[0]
	addDoc(t, s, "d1", peopleXML)

	writer, err := s.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := writer.Exec(txn.NewUpdate("d1", &xupdate.Update{
		Kind: xupdate.Insert, Target: "/people", Pos: xmltree.Into,
		New: personSpec("9", "Carla"),
	})); err != nil {
		t.Fatal(err)
	}

	// Mid-transaction: the insert must be invisible.
	res, err := s.SubmitReadOnly([]txn.Operation{txn.NewQuery("d1", "//person/id")})
	if err != nil || res.State != txn.Committed {
		t.Fatalf("mid-txn snapshot read: %v %+v", err, res)
	}
	if len(res.Results[0]) != 2 {
		t.Fatalf("mid-txn snapshot saw %v, want the 2 committed ids", res.Results[0])
	}

	if err := writer.Commit(); err != nil {
		t.Fatal(err)
	}

	// Post-commit: a fresh snapshot transaction sees the insert.
	res, err = s.SubmitReadOnly([]txn.Operation{txn.NewQuery("d1", "//person/id")})
	if err != nil || res.State != txn.Committed {
		t.Fatalf("post-commit snapshot read: %v %+v", err, res)
	}
	if len(res.Results[0]) != 3 {
		t.Fatalf("post-commit snapshot saw %v, want 3 ids", res.Results[0])
	}
}

// TestSnapshotRepeatableRead: re-reading a document inside one read-only
// transaction observes the same pinned version, across intervening commits.
func TestSnapshotRepeatableRead(t *testing.T) {
	sites, _ := newCluster(t, 1, nil)
	s := sites[0]
	addDoc(t, s, "d1", peopleXML)

	reader, err := s.BeginReadOnly(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	first, err := reader.Exec(txn.NewQuery("d1", "//person/id"))
	if err != nil {
		t.Fatal(err)
	}

	// A writer commits between the reader's two reads.
	res, err := s.Submit([]txn.Operation{txn.NewUpdate("d1", &xupdate.Update{
		Kind: xupdate.Insert, Target: "/people", Pos: xmltree.Into,
		New: personSpec("9", "Carla"),
	})})
	if err != nil || res.State != txn.Committed {
		t.Fatalf("writer: %v %+v", err, res)
	}

	second, err := reader.Exec(txn.NewQuery("d1", "//person/id"))
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != len(second) {
		t.Fatalf("repeatable read broken: first %v, second %v", first, second)
	}
	if err := reader.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotUpdateRefusedNonTerminal: an update on a read-only transaction
// is refused with ErrReadOnly without terminating the session.
func TestSnapshotUpdateRefusedNonTerminal(t *testing.T) {
	sites, _ := newCluster(t, 1, nil)
	s := sites[0]
	addDoc(t, s, "d1", peopleXML)

	reader, err := s.BeginReadOnly(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	_, err = reader.Exec(txn.NewUpdate("d1", &xupdate.Update{
		Kind: xupdate.Insert, Target: "/people", Pos: xmltree.Into,
		New: personSpec("9", "Carla"),
	}))
	if !errors.Is(err, txn.ErrReadOnly) {
		t.Fatalf("update on read-only txn = %v, want ErrReadOnly", err)
	}
	if reader.Done() {
		t.Fatal("ErrReadOnly refusal terminated the session")
	}
	if _, err := reader.Exec(txn.NewQuery("d1", "//person/id")); err != nil {
		t.Fatalf("session dead after refusal: %v", err)
	}
	if err := reader.Commit(); err != nil {
		t.Fatal(err)
	}

	// The batch submission path refuses before a transaction exists.
	if _, err := s.SubmitReadOnly([]txn.Operation{txn.NewUpdate("d1", &xupdate.Update{
		Kind: xupdate.Remove, Target: "//person",
	})}); !errors.Is(err, txn.ErrReadOnly) {
		t.Fatalf("SubmitReadOnly with update = %v, want ErrReadOnly", err)
	}
}

// TestSnapshotVersionGCBounded: the per-document version chain stays bounded
// while commits churn, even with a long-running reader pinning an old
// version — the pin shields that version, not unbounded growth.
func TestSnapshotVersionGCBounded(t *testing.T) {
	const maxKeep = 3
	sites, _ := newCluster(t, 1, func(cfg *Config) {
		cfg.SnapshotVersions = maxKeep
	})
	s := sites[0]
	addDoc(t, s, "d1", peopleXML)

	// Long reader pins the initial version.
	reader, err := s.BeginReadOnly(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	first, err := reader.Exec(txn.NewQuery("d1", "//person/id"))
	if err != nil {
		t.Fatal(err)
	}

	// Churn: every write transaction advances the chain; each snapshot read
	// in between forces materialisation so versions actually accumulate.
	for i := 0; i < 20; i++ {
		res, err := s.Submit([]txn.Operation{txn.NewUpdate("d1", &xupdate.Update{
			Kind: xupdate.Insert, Target: "/people", Pos: xmltree.Into,
			New: personSpec(fmt.Sprintf("g%d", i), "Churn"),
		})})
		if err != nil || res.State != txn.Committed {
			t.Fatalf("churn writer %d: %v %+v", i, err, res)
		}
		if _, err := s.SubmitReadOnly([]txn.Operation{txn.NewQuery("d1", "//person/id")}); err != nil {
			t.Fatalf("churn reader %d: %v", i, err)
		}
	}

	ds := s.doc("d1")
	if n := ds.versions.Len(); n > maxKeep+1 {
		t.Fatalf("version chain grew to %d under a pinned long reader, want <= %d", n, maxKeep+1)
	}
	// The pinned version is still served, unchanged.
	again, err := reader.Exec(txn.NewQuery("d1", "//person/id"))
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(first) {
		t.Fatalf("long reader's pinned version changed: %v -> %v", first, again)
	}
	if err := reader.Commit(); err != nil {
		t.Fatal(err)
	}
	// With the pin gone, the next publish compacts the chain to the bound.
	res, err := s.Submit([]txn.Operation{txn.NewUpdate("d1", &xupdate.Update{
		Kind: xupdate.Insert, Target: "/people", Pos: xmltree.Into,
		New: personSpec("last", "Churn"),
	})})
	if err != nil || res.State != txn.Committed {
		t.Fatalf("final writer: %v %+v", err, res)
	}
	if _, err := s.SubmitReadOnly([]txn.Operation{txn.NewQuery("d1", "//person/id")}); err != nil {
		t.Fatal(err)
	}
	if n := ds.versions.Len(); n > maxKeep {
		t.Fatalf("version chain = %d after pin release, want <= %d", n, maxKeep)
	}
}

// TestSnapshotUnavailableTooOld: a reader whose first read of a document
// comes more than checkpointEvery records after it began — further back than
// the undo log reaches — fails with the typed ErrSnapshotUnavailable
// ("snapshot too old"), which wraps ErrAborted so retry policies resubmit.
func TestSnapshotUnavailableTooOld(t *testing.T) {
	sites, _ := newCluster(t, 1, nil)
	s := sites[0]
	addDoc(t, s, "d1", peopleXML)

	// The reader resolves its begin timestamp now and waits.
	reader, err := s.BeginReadOnly(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i <= checkpointEvery; i++ {
		res, err := s.Submit([]txn.Operation{txn.NewUpdate("d1", &xupdate.Update{
			Kind: xupdate.Insert, Target: "/people", Pos: xmltree.Into,
			New: personSpec(fmt.Sprintf("w%d", i), "Writer"),
		})})
		if err != nil || res.State != txn.Committed {
			t.Fatalf("writer %d: %v %+v", i, err, res)
		}
	}
	s.Sync() // the checkpoint's cut trims the log past the reader's timestamp

	_, err = reader.Exec(txn.NewQuery("d1", "//person/id"))
	if !errors.Is(err, txn.ErrSnapshotUnavailable) {
		t.Fatalf("stale reader = %v, want ErrSnapshotUnavailable", err)
	}
	if !errors.Is(err, txn.ErrAborted) {
		t.Fatalf("ErrSnapshotUnavailable must wrap ErrAborted, got %v", err)
	}
	if !reader.Done() {
		t.Fatal("snapshot-unavailable reader not terminal")
	}
}

// TestSnapshotReadRemote: a read-only transaction reads a document held only
// at another site through the versioned-read transport request, and its
// terminal release frees the pins there.
func TestSnapshotReadRemote(t *testing.T) {
	sites, _ := newCluster(t, 2, nil)
	addDoc(t, sites[1], "d1", peopleXML)

	reader, err := sites[0].BeginReadOnly(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ids, err := reader.Exec(txn.NewQuery("d1", "//person/id"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Fatalf("remote snapshot read = %v, want 2 ids", ids)
	}
	sites[1].roMu.Lock()
	pinned := len(sites[1].roPins)
	sites[1].roMu.Unlock()
	if pinned != 1 {
		t.Fatalf("remote site holds %d pin sets mid-transaction, want 1", pinned)
	}
	if err := reader.Commit(); err != nil {
		t.Fatal(err)
	}
	sites[1].roMu.Lock()
	pinned = len(sites[1].roPins)
	sites[1].roMu.Unlock()
	if pinned != 0 {
		t.Fatalf("remote site still holds %d pin sets after commit", pinned)
	}
	if got := sites[1].Stats().SnapshotReads; got != 1 {
		t.Fatalf("remote SnapshotReads = %d, want 1", got)
	}
}

// TestSnapshotConcurrentReadersWriters races snapshot readers against
// writers on one document — the publish/pin/retire interleavings the race
// detector should sweep (this test runs under -race in CI's chaos job).
func TestSnapshotConcurrentReadersWriters(t *testing.T) {
	sites, _ := newCluster(t, 1, func(cfg *Config) {
		cfg.SnapshotVersions = 2
	})
	s := sites[0]
	addDoc(t, s, "d1", peopleXML)

	const writers, readers, rounds = 2, 4, 15
	var wg sync.WaitGroup
	errCh := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				res, err := s.Submit([]txn.Operation{txn.NewUpdate("d1", &xupdate.Update{
					Kind: xupdate.Insert, Target: "/people", Pos: xmltree.Into,
					New: personSpec(fmt.Sprintf("w%d-%d", w, i), "W"),
				})})
				if err != nil {
					errCh <- err
					return
				}
				if res.State != txn.Committed && !errors.Is(res.Err, txn.ErrAborted) {
					errCh <- fmt.Errorf("writer %d round %d: %s (%s)", w, i, res.State, res.Reason)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				res, err := s.SubmitReadOnly([]txn.Operation{
					txn.NewQuery("d1", "//person/id"),
					txn.NewQuery("d1", "//person/name"),
				})
				if err != nil {
					errCh <- err
					return
				}
				if res.State != txn.Committed {
					// GC under MaxVersions=2 may retire a slow reader's
					// snapshot; that typed outcome is legal here.
					if errors.Is(res.Err, txn.ErrSnapshotUnavailable) {
						continue
					}
					errCh <- fmt.Errorf("reader %d round %d: %s (%s)", r, i, res.State, res.Reason)
					return
				}
				// Both queries of one transaction read the same pinned
				// version: ids and names must agree in cardinality.
				if len(res.Results[0]) != len(res.Results[1]) {
					errCh <- fmt.Errorf("reader %d round %d: %d ids vs %d names from one snapshot",
						r, i, len(res.Results[0]), len(res.Results[1]))
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if t.Failed() {
		return
	}
	// No reader was ever a deadlock victim.
	if v := s.Stats().DeadlockAborts; v != 0 {
		t.Fatalf("deadlock victims = %d in a snapshot-reader workload, want 0", v)
	}
}

// TestSnapshotOrphanPinsSweep: pins left by a dead coordinator are released
// by the orphan sweep so version GC is not blocked forever.
func TestSnapshotOrphanPinsSweep(t *testing.T) {
	sites, _ := newCluster(t, 2, func(cfg *Config) {
		cfg.HeartbeatInterval = 10 * time.Millisecond
		cfg.HeartbeatMisses = 2
	})
	addDoc(t, sites[1], "d1", peopleXML)

	reader, err := sites[0].BeginReadOnly(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reader.Exec(txn.NewQuery("d1", "//person/id")); err != nil {
		t.Fatal(err)
	}
	// Coordinator dies holding the remote pin; its release never arrives.
	sites[0].Kill()

	deadline := time.Now().Add(5 * time.Second)
	for {
		sites[1].roMu.Lock()
		n := len(sites[1].roPins)
		sites[1].roMu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("orphaned snapshot pins not swept: %d sets remain", n)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestSnapshotReadSeesCommitBesideDirtyWriter: a read-only transaction sees
// every commit its site acknowledged before it began, regardless of writers
// in flight. Writer A holds an uncommitted change on one person, writer B
// commits a change on the other; a reader begun after B's acknowledgement
// sees B's change and not A's, and still does once A has aborted.
func TestSnapshotReadSeesCommitBesideDirtyWriter(t *testing.T) {
	// Predicate-disjoint writers on one document need xdgl's guarded locks.
	sites, _ := newClusterWithProtocol(t, 1, "xdgl", nil)
	s := sites[0]
	addDoc(t, s, "d1", peopleXML)

	a, err := s.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Exec(txn.NewUpdate("d1", &xupdate.Update{
		Kind: xupdate.Change, Target: "//person[id='7']/name", Value: "Uncommitted",
	})); err != nil {
		t.Fatal(err)
	}
	res, err := s.Submit([]txn.Operation{txn.NewUpdate("d1", &xupdate.Update{
		Kind: xupdate.Change, Target: "//person[id='4']/name", Value: "Zed",
	})})
	if err != nil || res.State != txn.Committed {
		t.Fatalf("B: %v %+v", err, res)
	}

	readNames := func(when string) {
		t.Helper()
		ro, err := s.SubmitReadOnly([]txn.Operation{txn.NewQuery("d1", "//person/name")})
		if err != nil || ro.State != txn.Committed {
			t.Fatalf("%s: %v %+v", when, err, ro)
		}
		if got := fmt.Sprint(ro.Results[0]); got != "[Zed Bruno]" {
			t.Fatalf("%s: snapshot read = %s, want [Zed Bruno] (B's commit, none of A's change)", when, got)
		}
	}
	readNames("beside the uncommitted writer")
	if err := a.Abort(); err != nil {
		t.Fatal(err)
	}
	readNames("after the writer aborted")
	live, _ := s.Document("d1")
	if xml := live.String(); strings.Contains(xml, "Uncommitted") || !strings.Contains(xml, "Zed") {
		t.Fatalf("live tree after the abort:\n%s", xml)
	}
}

// TestFetchDocBesideDirtyWriter: the document a catch-up fetch is served is
// the committed cut and its log position, whatever writers are in flight. B's
// commit is in it, the change A holds uncommitted is not, and once A has
// aborted the live tree serialises to exactly the bytes that were fetched.
func TestFetchDocBesideDirtyWriter(t *testing.T) {
	sites, _ := newClusterWithProtocol(t, 1, "xdgl", nil)
	s := sites[0]
	addDoc(t, s, "d1", peopleXML)

	a, err := s.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Exec(txn.NewUpdate("d1", &xupdate.Update{
		Kind: xupdate.Change, Target: "//person[id='7']/name", Value: "Uncommitted",
	})); err != nil {
		t.Fatal(err)
	}
	res, err := s.Submit([]txn.Operation{txn.NewUpdate("d1", &xupdate.Update{
		Kind: xupdate.Change, Target: "//person[id='4']/name", Value: "Zed",
	})})
	if err != nil || res.State != txn.Committed {
		t.Fatalf("B: %v %+v", err, res)
	}

	fetched := s.handleFetchDoc(transport.FetchDocReq{Doc: "d1"})
	if !fetched.Found || fetched.Head != 1 {
		t.Fatalf("fetch beside the writer: found=%v head=%d, want the document at index 1", fetched.Found, fetched.Head)
	}
	if err := a.Abort(); err != nil {
		t.Fatal(err)
	}
	live, _ := s.Document("d1")
	if fetched.XML != live.String() {
		t.Fatalf("fetched beside the uncommitted writer:\n%s\ncommitted:\n%s", fetched.XML, live)
	}
}

// TestSnapshotReadIgnoresCommitAfterBegin: a read-only transaction reads
// exactly the commits acknowledged before it began — none that land between
// its begin and its first read of the document, whatever other readers and
// the checkpointer publish in between.
func TestSnapshotReadIgnoresCommitAfterBegin(t *testing.T) {
	sites, _ := newCluster(t, 1, withJournal(t))
	s := sites[0]
	addDoc(t, s, "d1", peopleXML)
	rename := func(to string) {
		t.Helper()
		res, err := s.Submit([]txn.Operation{txn.NewUpdate("d1", &xupdate.Update{
			Kind: xupdate.Change, Target: "//person[id='4']/name", Value: to,
		})})
		if err != nil || res.State != txn.Committed {
			t.Fatalf("rename to %s: %v %+v", to, err, res)
		}
	}
	begin := func() *Session {
		t.Helper()
		sess, err := s.BeginReadOnly(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return sess
	}
	expect := func(sess *Session, want string) {
		t.Helper()
		names, err := sess.Exec(txn.NewQuery("d1", "//person/name"))
		if err != nil || fmt.Sprint(names) != want {
			t.Fatalf("snapshot read = %v (err %v), want %s", names, err, want)
		}
	}

	rename("X")
	r1 := begin()
	rename("Y")
	r2 := begin()
	rename("Z")
	// r2 reads first, so its state becomes the chain's head; r1's older one
	// is then cut past two commits and slots in below it.
	expect(r2, "[Y Bruno]")
	expect(r1, "[X Bruno]")
	expect(r2, "[Y Bruno]")

	// A checkpoint publishes the newest state before r3's first read.
	r3 := begin()
	for i := 1; i < checkpointEvery; i++ {
		rename(fmt.Sprint("v", i))
	}
	s.Sync()
	expect(r3, "[Z Bruno]")
	expect(begin(), fmt.Sprintf("[v%d Bruno]", checkpointEvery-1))
	saved, _, err := s.cfg.Store.Load("d1")
	if err != nil || !strings.Contains(saved.String(), fmt.Sprintf("v%d", checkpointEvery-1)) {
		t.Fatalf("checkpoint beside the older readers' cuts: %v\n%v", err, saved)
	}
}

// TestSnapshotReadExactUnderConcurrentWriters: four writers each keep
// committing the next integer to both fields of their own pair while readers
// begin, linger, and only then read. Whatever landed in between — other
// pairs' commits, other readers' cuts, checkpoints, log trims — a reader sees
// both fields of a pair equal (a commit is visible whole or not at all) and
// the value acknowledged when it began, or the one in flight then.
func TestSnapshotReadExactUnderConcurrentWriters(t *testing.T) {
	sites, _ := newClusterWithProtocol(t, 1, "xdgl", withJournal(t))
	s := sites[0]
	const pairs, commits = 4, 3 * checkpointEvery
	var xml strings.Builder
	xml.WriteString("<pairs>")
	for p := 0; p < pairs; p++ {
		fmt.Fprintf(&xml, "<pair><id>%d</id><a>0</a><b>0</b></pair>", p)
	}
	xml.WriteString("</pairs>")
	addDoc(t, s, "d1", xml.String())

	var acked [pairs]atomic.Int64
	var writers, readers sync.WaitGroup
	done := make(chan struct{})
	for p := 0; p < pairs; p++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for v := int64(1); v <= commits; v++ {
				var ops []txn.Operation
				for _, field := range []string{"a", "b"} {
					ops = append(ops, txn.NewUpdate("d1", &xupdate.Update{Kind: xupdate.Change,
						Target: fmt.Sprintf("//pair[id='%d']/%s", p, field), Value: fmt.Sprint(v)}))
				}
				if res, err := s.Submit(ops); err != nil || res.State != txn.Committed {
					t.Errorf("pair %d value %d: %v %+v", p, v, err, res)
					return
				}
				acked[p].Store(v)
			}
		}()
	}
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				// A pair's visible value is bracketed by what was acknowledged
				// just before the begin and just after it (plus the commit in
				// flight then: stamped, not yet acknowledged).
				var lo, hi [pairs]int64
				for p := range lo {
					lo[p] = acked[p].Load()
				}
				sess, err := s.BeginReadOnly(context.Background())
				if err != nil {
					t.Error(err)
					return
				}
				for p := range hi {
					hi[p] = acked[p].Load() + 1
				}
				time.Sleep(time.Duration(i%5*(r+1)) * 300 * time.Microsecond)
				as, err := sess.Exec(txn.NewQuery("d1", "//pair/a"))
				if errors.Is(err, txn.ErrSnapshotUnavailable) {
					continue // lingered past the undo log's reach
				}
				bs, err2 := sess.Exec(txn.NewQuery("d1", "//pair/b"))
				if err != nil || err2 != nil || len(as) != pairs || len(bs) != pairs {
					t.Errorf("reader: %v %v %v %v", err, err2, as, bs)
					return
				}
				for p := range lo {
					var v int64
					fmt.Sscan(as[p], &v)
					if as[p] != bs[p] || v < lo[p] || v > hi[p] {
						t.Errorf("pair %d read a=%s b=%s, want both in [%d, %d]", p, as[p], bs[p], lo[p], hi[p])
						return
					}
				}
				_ = sess.Commit()
			}
		}()
	}
	writers.Wait()
	close(done)
	readers.Wait()
}
