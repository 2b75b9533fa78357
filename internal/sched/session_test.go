package sched

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/txn"
	"repro/internal/wfg"
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

// TestSessionCancelIdle cancels a transaction between steps: its
// cancellation callback aborts it, releases its locks, and later steps
// report the abort.
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
	// The callback aborts asynchronously; wait for the terminal state.
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
// via its cancellation callback, and any session observes the stop at its
// next step even if the single-shot callback already fired while a step was
// in flight.
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
	// Whether the callback got there first (idle abort) or the next step
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

// TestLockWaitEndsOnSiteStop: a step blocked on a lock when its site stops
// aborts naming the stop, its wait ends as a cancel, and it keeps no grant.
func TestLockWaitEndsOnSiteStop(t *testing.T) {
	sites, _ := newCluster(t, 1, func(cfg *Config) { cfg.RetryInterval = time.Minute })
	s := sites[0]
	addDoc(t, s, "d2", productsXML)
	// The blocker is coordinated elsewhere, so the stop does not abort it
	// and release the lock under the waiter.
	blocker := txn.ID{Site: 7, Seq: 1}
	resp, err := s.HandleMessage(7, transport.ExecOpReq{Txn: blocker, TS: 1,
		Op: txn.NewUpdate("d2", &xupdate.Update{Kind: xupdate.Change, Target: "//product[id='4']/price", Value: "60.00"})})
	if err != nil || !resp.(transport.ExecOpResp).Executed {
		t.Fatalf("blocker: %v %+v", err, resp)
	}
	sess, err := s.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	stepErr := make(chan error, 1)
	go func() {
		_, err := sess.Exec(txn.NewQuery("d2", "//product/price"))
		stepErr <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for count(t, s, "dtx_op_conflicts_total") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the step never waited")
		}
		time.Sleep(time.Millisecond)
	}
	s.Stop()
	if err := <-stepErr; !errors.Is(err, txn.ErrAborted) || !strings.Contains(err.Error(), "site stopping") {
		t.Fatalf("blocked step after Stop = %v, want an abort naming the stop", err)
	}
	if n := s.m.waitEnds.With("cancel").Value(); n != 1 {
		t.Fatalf("cancel-ended waits = %d, want 1", n)
	}
	if n := count(t, s, "dtx_lock_wait_ends_total"); n != 1 {
		t.Fatalf("dtx_lock_wait_ends_total = %d, want 1", n)
	}
	ds := s.doc("d2")
	ds.mu.Lock()
	held := ds.table.HeldBy(sess.ID())
	ds.mu.Unlock()
	if held != 0 {
		t.Fatalf("the aborted step kept %d grants", held)
	}
}

// TestIdleSessionsHoldNoGoroutines: an open session costs no goroutine while
// it waits for its client, yet cancelling the client's context still aborts
// it.
func TestIdleSessionsHoldNoGoroutines(t *testing.T) {
	sites, _ := newCluster(t, 1, nil)
	s := sites[0]
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 200
	before := runtime.NumGoroutine()
	sessions := make([]*Session, n)
	for i := range sessions {
		sess, err := s.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = sess
	}
	if added := runtime.NumGoroutine() - before; added > n/20 {
		t.Fatalf("%d idle sessions added %d goroutines", n, added)
	}
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for _, sess := range sessions {
		for !sess.Done() {
			if time.Now().After(deadline) {
				t.Fatal("an idle session survived its context's cancellation")
			}
			time.Sleep(time.Millisecond)
		}
		if !errors.Is(sess.Err(), context.Canceled) {
			t.Fatalf("idle session ended with %v, want the cancellation", sess.Err())
		}
	}
}

// TestReadOnlyTransactionsLeaveNoState: a coordinator that serves many
// read-only transactions, snapshot and locked, keeps no per-transaction
// state for them at either site once they finish.
func TestReadOnlyTransactionsLeaveNoState(t *testing.T) {
	sites, _ := newCluster(t, 2, nil)
	// d1's read site is site 0, so site 1 coordinates reads it ships there.
	addDoc(t, sites[0], "d1", peopleXML)
	addDoc(t, sites[1], "d1", peopleXML)
	addDoc(t, sites[1], "d2", productsXML)
	coord := sites[1]
	ops := []txn.Operation{txn.NewQuery("d1", "//person/id"), txn.NewQuery("d2", "//product/id")}
	for i := 0; i < 1000; i++ {
		for _, submit := range []func([]txn.Operation) (*Result, error){coord.SubmitReadOnly, coord.Submit} {
			res, err := submit(ops)
			if err != nil || res.State != txn.Committed {
				t.Fatalf("transaction %d: %v %+v", i, err, res)
			}
		}
	}
	if n := count(t, coord, "dtx_remote_ops_sent_total"); n < 1000 {
		t.Fatalf("%d operations shipped to site 0, want at least one per locked transaction", n)
	}
	for _, s := range sites {
		s.mu.Lock()
		coordTxns, partTxns := len(s.coord), len(s.part)
		s.mu.Unlock()
		s.roMu.Lock()
		pinSets := len(s.roPins)
		s.roMu.Unlock()
		if coordTxns+partTxns+pinSets != 0 {
			t.Errorf("site %d keeps %d coordinator, %d participant and %d pin-set records", s.id, coordTxns, partTxns, pinSets)
		}
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

// TestQueryLockedAtReadSiteOnly: a locked query on a document held at every
// site locks and evaluates at its read site (site 0, first in catalog order)
// and nowhere else. Coordinated at site 0 it sends no message at all;
// coordinated at site 1 it runs at site 0 only. A conflicting write from
// site 2 waits on the reader at site 0 until the reader commits, and both
// answers are a one-site evaluation's.
func TestQueryLockedAtReadSiteOnly(t *testing.T) {
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
	res, err := sites[0].Submit([]txn.Operation{txn.NewQuery("d2", query)})
	if err != nil || res.State != txn.Committed || !slices.Equal(res.Results[0], want.Results[0]) {
		t.Fatalf("read at the read site: %v %+v, oracle %v", err, res, want.Results[0])
	}
	for _, s := range sites[1:] {
		if n := count(t, s, "dtx_remote_ops_processed_total"); n != 0 {
			t.Fatalf("site %d processed %d remote operation(s) for a read coordinated at the read site", s.id, n)
		}
	}

	sess, err := sites[1].Begin(context.Background())
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
		wantEvals, wantRemote := int64(0), int64(0)
		if i == 0 {
			wantEvals, wantRemote = 2, 1
		}
		if n := histCount(s.m.opEval); n != wantEvals {
			t.Errorf("site %d evaluated the query %d time(s), want %d", i, n, wantEvals)
		}
		if n := count(t, s, "dtx_remote_ops_processed_total"); n != wantRemote {
			t.Errorf("site %d processed %d remote operation(s), want %d", i, n, wantRemote)
		}
		s.mu.Lock()
		grants := s.docs["d2"].table.GrantCount()
		s.mu.Unlock()
		if (grants > 0) != (i == 0) {
			t.Errorf("site %d holds %d lock(s)", i, grants)
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
	deadline := time.Now().Add(5 * time.Second)
	for !slices.ContainsFunc(sites[0].localEdges(), func(e wfg.Edge) bool { return e.Holder == sess.ID() }) {
		if time.Now().After(deadline) {
			t.Fatal("the write never waited on the reader at site 0")
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
