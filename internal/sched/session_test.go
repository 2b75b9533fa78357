package sched

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/txn"
	"repro/internal/xmltree"
	"repro/internal/xupdate"
)

// TestSessionInteractive drives a read-branch-write transaction step by
// step: the query result is visible before the transaction commits, and the
// update decided from it persists after Commit.
func TestSessionInteractive(t *testing.T) {
	sites, _ := newCluster(t, 1, nil)
	s := sites[0]
	addDoc(t, s, "d2", productsXML)

	sess, err := s.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	prices, err := sess.Exec(txn.NewQuery("d2", "//product[id='4']/price"))
	if err != nil {
		t.Fatal(err)
	}
	if len(prices) != 1 || prices[0] != "50.00" {
		t.Fatalf("read %v", prices)
	}
	// Branch on the read: the price is under 100, so raise it.
	if _, err := sess.Exec(txn.NewUpdate("d2", &xupdate.Update{
		Kind: xupdate.Change, Target: "//product[id='4']/price", Value: "60.00",
	})); err != nil {
		t.Fatal(err)
	}
	if err := sess.Commit(); err != nil {
		t.Fatal(err)
	}
	if !sess.Done() || sess.Err() != nil {
		t.Fatalf("session not cleanly done: %v", sess.Err())
	}
	doc, _ := s.Document("d2")
	if doc.String() == "" || !containsText(doc, "60.00") {
		t.Fatal("committed update lost")
	}
	// Steps after the terminal state report ErrTxnDone.
	if _, err := sess.Exec(txn.NewQuery("d2", "//product")); !errors.Is(err, txn.ErrTxnDone) {
		t.Fatalf("step after commit = %v", err)
	}
	if err := sess.Commit(); !errors.Is(err, txn.ErrTxnDone) {
		t.Fatalf("second commit = %v", err)
	}
	if n := count(t, s, "dtx_txns_committed_total"); n != 1 {
		t.Fatalf("committed = %d, want 1", n)
	}
}

func containsText(doc *xmltree.Document, s string) bool {
	var walk func(n *xmltree.Node) bool
	walk = func(n *xmltree.Node) bool {
		if n.Text == s {
			return true
		}
		for _, c := range n.Children {
			if walk(c) {
				return true
			}
		}
		return false
	}
	return walk(doc.Root)
}

// TestSessionAbortRollsBack aborts an interactive transaction after an
// executed update: effects are undone and locks released.
func TestSessionAbortRollsBack(t *testing.T) {
	sites, _ := newCluster(t, 1, nil)
	s := sites[0]
	addDoc(t, s, "d2", productsXML)
	before, _ := s.Document("d2")

	sess, err := s.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec(txn.NewUpdate("d2", &xupdate.Update{
		Kind: xupdate.Insert, Target: "/products", Pos: xmltree.Into,
		New: productSpec("99", "Ghost", "1"),
	})); err != nil {
		t.Fatal(err)
	}
	if err := sess.Abort(); err != nil {
		t.Fatalf("clean abort returned %v", err)
	}
	after, _ := s.Document("d2")
	if !xmltree.Equal(before, after) {
		t.Fatalf("abort left effects:\n%s", after.String())
	}
	s.mu.Lock()
	grants := s.docs["d2"].table.GrantCount()
	s.mu.Unlock()
	if grants != 0 {
		t.Fatalf("%d grants leaked after abort", grants)
	}
	if err := sess.Abort(); !errors.Is(err, txn.ErrAborted) {
		t.Fatalf("second abort = %v", err)
	}
	if n := count(t, s, "dtx_txns_aborted_total"); n != 1 {
		t.Fatalf("aborted = %d, want 1", n)
	}
}

// TestSessionCancelWhileWaiting cancels a transaction blocked in lock-wait:
// the pending Exec returns an error wrapping ErrAborted (and the context
// cause), and the locks it held are released so the conflicting transaction
// can proceed.
func TestSessionCancelWhileWaiting(t *testing.T) {
	sites, _ := newCluster(t, 2, nil)
	for _, s := range sites {
		addDoc(t, s, "d1", peopleXML)
	}

	// T1 takes X locks on /people at both sites and stays open.
	hold, err := sites[0].Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hold.Exec(txn.NewUpdate("d1", &xupdate.Update{
		Kind: xupdate.Insert, Target: "/people", Pos: xmltree.Into,
		New: personSpec("h", "Holder"),
	})); err != nil {
		t.Fatal(err)
	}

	// T2 blocks behind T1's locks.
	ctx, cancel := context.WithCancel(context.Background())
	blocked, err := sites[1].Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	stepErr := make(chan error, 1)
	go func() {
		_, err := blocked.Exec(txn.NewUpdate("d1", &xupdate.Update{
			Kind: xupdate.Insert, Target: "/people", Pos: xmltree.Into,
			New: personSpec("b", "Blocked"),
		}))
		stepErr <- err
	}()
	time.Sleep(30 * time.Millisecond) // let T2 enter wait mode
	cancel()
	select {
	case err := <-stepErr:
		if !errors.Is(err, txn.ErrAborted) {
			t.Fatalf("cancelled step = %v, want ErrAborted", err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled step = %v, want context.Canceled cause", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not unblock the waiting step")
	}
	if !blocked.Done() {
		t.Fatal("cancelled session not terminal")
	}

	// T1 still commits, and afterwards a fresh transaction acquires the
	// locks T2 gave up — proof nothing leaked.
	if err := hold.Commit(); err != nil {
		t.Fatal(err)
	}
	res, err := sites[1].Submit([]txn.Operation{txn.NewUpdate("d1", &xupdate.Update{
		Kind: xupdate.Insert, Target: "/people", Pos: xmltree.Into,
		New: personSpec("f", "Fresh"),
	})})
	if err != nil || res.State != txn.Committed {
		t.Fatalf("post-cancel transaction: %v %+v", err, res)
	}
}

// TestSessionCancelIdle cancels a transaction between steps: the watcher
// aborts it, releases its locks, and later steps report the abort.
func TestSessionCancelIdle(t *testing.T) {
	sites, _ := newCluster(t, 1, nil)
	s := sites[0]
	addDoc(t, s, "d2", productsXML)

	ctx, cancel := context.WithCancel(context.Background())
	sess, err := s.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec(txn.NewUpdate("d2", &xupdate.Update{
		Kind: xupdate.Change, Target: "//product[id='4']/price", Value: "1.00",
	})); err != nil {
		t.Fatal(err)
	}
	cancel()
	// The watcher aborts asynchronously; wait for the terminal state.
	deadline := time.Now().Add(5 * time.Second)
	for !sess.Done() {
		if time.Now().After(deadline) {
			t.Fatal("idle cancellation did not abort the session")
		}
		time.Sleep(time.Millisecond)
	}
	if err := sess.Err(); !errors.Is(err, txn.ErrAborted) || !errors.Is(err, context.Canceled) {
		t.Fatalf("terminal error = %v", err)
	}
	s.mu.Lock()
	grants := s.docs["d2"].table.GrantCount()
	s.mu.Unlock()
	if grants != 0 {
		t.Fatalf("%d grants leaked after idle cancellation", grants)
	}
	// The change was rolled back.
	doc, _ := s.Document("d2")
	if containsText(doc, "1.00") {
		t.Fatal("cancelled update persisted")
	}
}

// TestSessionDeadlineExceeded: a deadline doubles as a statement timeout for
// a blocked step.
func TestSessionDeadlineExceeded(t *testing.T) {
	sites, _ := newCluster(t, 1, nil)
	s := sites[0]
	addDoc(t, s, "d2", productsXML)

	hold, err := s.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hold.Exec(txn.NewUpdate("d2", &xupdate.Update{
		Kind: xupdate.Change, Target: "//product[id='4']/price", Value: "2.00",
	})); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()
	sess, err := s.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sess.Exec(txn.NewQuery("d2", "//product[id='4']/price"))
	if !errors.Is(err, txn.ErrAborted) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline step = %v", err)
	}
	if err := hold.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestSessionUnknownDocument: a typed failure ends the transaction.
func TestSessionUnknownDocument(t *testing.T) {
	sites, _ := newCluster(t, 1, nil)
	sess, err := sites[0].Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	_, err = sess.Exec(txn.NewQuery("ghost", "/x"))
	if !errors.Is(err, txn.ErrUnknownDocument) {
		t.Fatalf("unknown document = %v", err)
	}
	if sess.Result().State != txn.Failed {
		t.Fatalf("state = %v", sess.Result().State)
	}
}

// TestSessionUnknownDocumentRemote: the typed classification survives the
// wire when the document is known to the catalog but missing at a
// participant.
func TestSessionUnknownDocumentRemote(t *testing.T) {
	sites, _ := newCluster(t, 2, nil)
	// Catalog claims d2 lives at site 1, but site 1 never loaded it.
	sites[0].Catalog().Place("d2", 1)
	sess, err := sites[0].Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	_, err = sess.Exec(txn.NewQuery("d2", "/x"))
	if !errors.Is(err, txn.ErrUnknownDocument) {
		t.Fatalf("remote unknown document = %v", err)
	}
}

// TestSessionStopTerminates: Site.Stop ends live sessions — the idle one
// via the watcher, and any session observes the stop at its next step even
// if the single-shot watcher already fired while a step was in flight.
func TestSessionStopTerminates(t *testing.T) {
	sites, _ := newCluster(t, 1, nil)
	s := sites[0]
	addDoc(t, s, "d2", productsXML)
	sess, err := s.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec(txn.NewQuery("d2", "//product")); err != nil {
		t.Fatal(err)
	}
	s.Stop()
	// Whether the watcher got there first (idle abort) or the next step
	// trips the boundary check, the session must end with ErrAborted and
	// never execute on the stopped site.
	if _, err := sess.Exec(txn.NewQuery("d2", "//product")); !errors.Is(err, txn.ErrAborted) {
		t.Fatalf("step after Stop = %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for !sess.Done() {
		if time.Now().After(deadline) {
			t.Fatal("session survived Site.Stop")
		}
		time.Sleep(time.Millisecond)
	}
	s.mu.Lock()
	grants := s.docs["d2"].table.GrantCount()
	s.mu.Unlock()
	if grants != 0 {
		t.Fatalf("%d grants leaked past Stop", grants)
	}
}

// TestSessionBeginAfterStop: no sessions on a stopped site.
func TestSessionBeginAfterStop(t *testing.T) {
	sites, _ := newCluster(t, 1, nil)
	sites[0].Stop()
	if _, err := sites[0].Begin(context.Background()); err == nil {
		t.Fatal("Begin on a stopped site accepted")
	}
}

// TestSessionBeginCancelledContext: a dead context never opens a session.
func TestSessionBeginCancelledContext(t *testing.T) {
	sites, _ := newCluster(t, 1, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sites[0].Begin(ctx); !errors.Is(err, txn.ErrAborted) {
		t.Fatalf("Begin with cancelled context = %v", err)
	}
}

// TestSubmitCtxCancelled: the batch wrapper inherits session cancellation
// and reports the typed outcome in Result.Err.
func TestSubmitCtxCancelled(t *testing.T) {
	sites, _ := newCluster(t, 1, func(c *Config) { c.OpDelay = 50 * time.Millisecond })
	s := sites[0]
	addDoc(t, s, "d2", productsXML)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	res, err := s.SubmitCtx(ctx, []txn.Operation{
		txn.NewQuery("d2", "//product"),
		txn.NewQuery("d2", "//product/price"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.State != txn.Aborted || !errors.Is(res.Err, txn.ErrAborted) {
		t.Fatalf("cancelled submit = %+v (err %v)", res.State, res.Err)
	}
	if len(res.Results) != 2 {
		t.Fatalf("results not padded: %d", len(res.Results))
	}
}

// TestQueryEvaluatedOnceLockedEverywhere: a locked query on a document held
// at every site takes its locks at all three replicas, but only the
// coordinator's copy evaluates it. The replicas that did not evaluate still
// hold the read locks, so a conflicting write waits for the reader's commit
// there, and the answer is a one-site evaluation's.
func TestQueryEvaluatedOnceLockedEverywhere(t *testing.T) {
	const query = "//product/price"
	oracle, _ := newCluster(t, 1, nil)
	addDoc(t, oracle[0], "d2", productsXML)
	want, err := oracle[0].Submit([]txn.Operation{txn.NewQuery("d2", query)})
	if err != nil || want.State != txn.Committed {
		t.Fatalf("oracle: %v %+v", err, want)
	}

	sites, _ := newCluster(t, 3, nil)
	for _, s := range sites {
		addDoc(t, s, "d2", productsXML)
		s.Metrics().Arm()
	}
	sess, err := sites[0].Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got, err := sess.Exec(txn.NewQuery("d2", query))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want.Results[0]) {
		t.Fatalf("answer %v, oracle %v", got, want.Results[0])
	}
	for i, s := range sites {
		wantEvals := int64(0)
		if i == 0 {
			wantEvals = 1
		}
		if n := histCount(s.m.opEval); n != wantEvals {
			t.Errorf("site %d evaluated the query %d time(s), want %d", i, n, wantEvals)
		}
		s.mu.Lock()
		grants := s.docs["d2"].table.GrantCount()
		s.mu.Unlock()
		if grants == 0 {
			t.Errorf("site %d holds no read lock", i)
		}
	}

	writer := make(chan *Result, 1)
	go func() {
		res, err := sites[2].Submit([]txn.Operation{txn.NewUpdate("d2", &xupdate.Update{
			Kind: xupdate.Change, Target: "//product[id='4']/price", Value: "99.99",
		})})
		if err != nil {
			t.Error(err)
		}
		writer <- res
	}()
	// The writer waits on the reader at both replicas that did not evaluate.
	blockedAt := func(s *Site) bool {
		for _, e := range s.localEdges() {
			if e.Holder == sess.ID() {
				return true
			}
		}
		return false
	}
	deadline := time.Now().Add(5 * time.Second)
	for !blockedAt(sites[1]) || !blockedAt(sites[2]) {
		if time.Now().After(deadline) {
			t.Fatal("the write never waited on the reader at sites 1 and 2")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case res := <-writer:
		t.Fatalf("conflicting write finished under the reader's locks: %+v", res)
	default:
	}
	if err := sess.Commit(); err != nil {
		t.Fatal(err)
	}
	if res := <-writer; res == nil || res.State != txn.Committed {
		t.Fatalf("writer after the reader's commit: %+v", res)
	}
}
