package sched

import (
	"testing"
	"time"

	"repro/internal/txn"
	"repro/internal/xmltree"
	"repro/internal/xupdate"
)

// TestPartialAcquireUndoneEverywhere pins Algorithm 1 l. 15–17: an
// operation that executes at one replica site but cannot lock at another is
// undone at the site where it ran, and the transaction waits; when the
// blocker releases, the operation re-executes and commits everywhere.
func TestPartialAcquireUndoneEverywhere(t *testing.T) {
	sites, _ := newCluster(t, 2, nil)
	s0, s1 := sites[0], sites[1]
	addDoc(t, s0, "d1", peopleXML)
	addDoc(t, s1, "d1", peopleXML)

	// A foreign transaction holds conflicting locks at site 1 only, via the
	// participant interface (as if coordinated elsewhere).
	blocker := txn.ID{Site: 1, Seq: 999}
	res := s1.processOperation(blocker, 50, 1, 0, txn.NewQuery("d1", "//person"))
	if !res.executed {
		t.Fatalf("blocker setup failed: %+v", res)
	}

	// The insert conflicts with the query's ST locks at site 1 but not at
	// site 0 — it must execute at site 0, be undone there, and wait.
	done := make(chan *Result, 1)
	go func() {
		r, err := s0.Submit([]txn.Operation{
			txn.NewUpdate("d1", &xupdate.Update{Kind: xupdate.Insert, Target: "/people",
				Pos: xmltree.Into, New: personSpec("22", "Patricia")}),
		})
		if err != nil {
			t.Error(err)
		}
		done <- r
	}()

	// While blocked, site 0's document must show no trace of the insert
	// (the partial execution was undone).
	deadline := time.Now().Add(2 * time.Second)
	for {
		conflicts := s0.Stats().OpConflicts + s1.Stats().OpConflicts
		if conflicts > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("transaction never blocked")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The conflict is counted at site 1's lock table before the coordinator
	// undoes the partial execution at site 0 (and each wait-mode retry
	// re-executes and re-undoes), so poll for the undone state rather than
	// sampling the execute/undo window.
	deadline = time.Now().Add(2 * time.Second)
	for {
		doc0, _ := s0.Document("d1")
		if len(doc0.Root.Children) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("partial insert still visible at site 0: %d persons", len(doc0.Root.Children))
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Release the blocker; the insert must now complete at both sites.
	if err := s1.abortLocal(blocker); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-done:
		if r.State != txn.Committed {
			t.Fatalf("state = %v (%s)", r.State, r.Reason)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("transaction never completed after release")
	}
	for i, s := range sites {
		doc, _ := s.Document("d1")
		if len(doc.Root.Children) != 3 {
			t.Fatalf("site %d persons = %d after commit", i, len(doc.Root.Children))
		}
	}
}

// TestFailedUpdateAbortsTransaction: an update that matches targets but
// fails during execution (transpose arity) aborts the whole transaction and
// rolls back its earlier effects.
func TestFailedUpdateAbortsTransaction(t *testing.T) {
	sites, _ := newCluster(t, 1, nil)
	s := sites[0]
	addDoc(t, s, "d2", productsXML)
	before, _ := s.Document("d2")

	res, err := s.Submit([]txn.Operation{
		txn.NewUpdate("d2", &xupdate.Update{Kind: xupdate.Insert, Target: "/products",
			Pos: xmltree.Into, New: productSpec("99", "Temp", "1")}),
		// Transpose with a multi-match path fails its arity check.
		txn.NewUpdate("d2", &xupdate.Update{Kind: xupdate.Transpose,
			Target: "//product", Target2: "//product[id='4']"}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.State != txn.Failed {
		t.Fatalf("state = %v (%s)", res.State, res.Reason)
	}
	after, _ := s.Document("d2")
	if !xmltree.Equal(before, after) {
		t.Fatal("failed transaction left effects")
	}
}

// TestStatsAccounting: commits, aborts and executed-op counters add up for
// a known sequence.
func TestStatsAccounting(t *testing.T) {
	sites, _ := newCluster(t, 1, nil)
	s := sites[0]
	addDoc(t, s, "d1", peopleXML)

	for i := 0; i < 3; i++ {
		if _, err := s.Submit([]txn.Operation{txn.NewQuery("d1", "//person")}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Submit([]txn.Operation{txn.NewQuery("missing", "/x")}); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.TxnsCommitted != 3 || st.TxnsFailed != 1 || st.TxnsAborted != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.OpsExecuted != 3 {
		t.Fatalf("ops executed = %d", st.OpsExecuted)
	}
	if st.LocksAcquired == 0 {
		t.Fatal("no locks recorded")
	}
}

// TestNoOpUpdateCommits: an update whose target matches nothing is a no-op
// but the transaction still commits (locks are class-level, protecting the
// phantom range).
func TestNoOpUpdateCommits(t *testing.T) {
	sites, _ := newCluster(t, 1, nil)
	s := sites[0]
	addDoc(t, s, "d1", peopleXML)
	res, err := s.Submit([]txn.Operation{
		txn.NewUpdate("d1", &xupdate.Update{Kind: xupdate.Remove, Target: "//person[id='404']"}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.State != txn.Committed {
		t.Fatalf("state = %v", res.State)
	}
}

// TestDocumentAccessors covers Documents and the error path of Document.
func TestDocumentAccessors(t *testing.T) {
	sites, _ := newCluster(t, 1, nil)
	s := sites[0]
	addDoc(t, s, "d1", peopleXML)
	if got := s.Documents(); len(got) != 1 || got[0] != "d1" {
		t.Fatalf("documents = %v", got)
	}
	if _, err := s.Document("nope"); err == nil {
		t.Fatal("missing document returned")
	}
}

// TestUndoneOperationLeavesDocumentClean: an operation undone by undoOpLocal
// (Algorithm 1 l. 16) leaves no trace on the document, so the commit that
// follows has nothing to redo there — it must not journal a record, advance
// the document's version chain or force a tree copy on the next reader.
func TestUndoneOperationLeavesDocumentClean(t *testing.T) {
	sites, _ := newCluster(t, 1, withJournal(t))
	s := sites[0]
	addDoc(t, s, "d1", peopleXML)
	if _, err := s.SubmitReadOnly([]txn.Operation{txn.NewQuery("d1", "//person/id")}); err != nil {
		t.Fatal(err)
	}
	publishes := s.Stats().SnapshotPublishes

	id := txn.ID{Site: 0, Seq: 999}
	res := s.processOperation(id, 50, 0, 0, txn.NewUpdate("d1", &xupdate.Update{
		Kind: xupdate.Insert, Target: "/people", Pos: xmltree.Into, New: personSpec("22", "Patricia"),
	}))
	if !res.executed {
		t.Fatalf("insert: %+v", res)
	}
	s.undoOpLocal(id, 0)
	if err := s.commitLocal(id); err != nil {
		t.Fatal(err)
	}

	ro, err := s.SubmitReadOnly([]txn.Operation{txn.NewQuery("d1", "//person/id")})
	if err != nil || len(ro.Results[0]) != 2 {
		t.Fatalf("read after the commit: %v %+v", err, ro)
	}
	if got := s.Stats().SnapshotPublishes; got != publishes {
		t.Fatalf("dtx_snapshot_publishes_total moved %d -> %d for a transaction that changed nothing", publishes, got)
	}
	if recs, err := s.cfg.Journal.OpenRecords("d1"); err != nil || len(recs) != 0 {
		t.Fatalf("journal records for a transaction that changed nothing: %+v (err %v)", recs, err)
	}
}
