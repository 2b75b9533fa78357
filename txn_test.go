package dtx

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestTxnInteractiveAcrossSites is the acceptance scenario: an interactive
// transaction spanning two sites — Begin, Query, branch on the result,
// Update, Commit — with d1 replicated at both sites and d2 held only at
// site 1, so the write decided from the read goes remote.
func TestTxnInteractiveAcrossSites(t *testing.T) {
	c, err := New(Config{Sites: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.LoadXML("d1", peopleXML, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.LoadXML("d2", `<products><product><id>14</id><price>120.00</price></product></products>`, 1); err != nil {
		t.Fatal(err)
	}

	txn, err := c.Begin(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if txn.Site() != 0 || txn.ID() == "" {
		t.Fatalf("handle = site %d id %q", txn.Site(), txn.ID())
	}
	names, err := txn.Query("d1", "//person[id='4']/name")
	if err != nil {
		t.Fatal(err)
	}
	// Branch on what was read: Ana exists, so record her order in the
	// remote-only products document.
	if len(names) != 1 || names[0] != "Ana" {
		t.Fatalf("read %v", names)
	}
	if err := txn.Insert("d2", "/products", Into,
		Elem("product", "", Elem("id", "90"), Elem("price", "9.99"))); err != nil {
		t.Fatal(err)
	}
	prices, err := txn.Query("d2", "//product[id='90']/price")
	if err != nil {
		t.Fatal(err)
	}
	if len(prices) != 1 || prices[0] != "9.99" {
		t.Fatalf("own write not visible: %v", prices)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if txn.Err() != nil {
		t.Fatalf("terminal error after commit: %v", txn.Err())
	}
	// Committed remotely.
	xml, err := c.DocumentXML(1, "d2")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(xml, "9.99") {
		t.Fatalf("remote commit lost:\n%s", xml)
	}
}

// TestTxnDoBatch: a batch of reads spanning two sites returns each query's
// results in operation order; a batch holding an update is refused up front
// and leaves the transaction live, which then writes and commits.
func TestTxnDoBatch(t *testing.T) {
	c, err := New(Config{Sites: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.LoadXML("d1", `<people><person><id>4</id><name>Ana</name></person><person><id>5</id><name>Bo</name></person></people>`, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.LoadXML("d2", `<products><product><id>14</id><price>120.00</price></product></products>`, 1); err != nil {
		t.Fatal(err)
	}

	txn, err := c.Begin(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := txn.DoBatch(
		Query("d2", "//product/price"),
		Query("d1", "//person/name"),
		Query("d1", "//person[id='5']/id"),
	)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"120.00"}, {"Ana", "Bo"}, {"5"}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("DoBatch = %v, want %v", got, want)
	}

	if _, err := txn.DoBatch(Query("d1", "//person/name"), Change("d1", "//person[id='4']/name", "Zed")); err == nil {
		t.Fatal("a batch holding an update was accepted")
	}
	if txn.Err() != nil {
		t.Fatalf("refused batch resolved the transaction: %v", txn.Err())
	}
	if err := txn.Change("d2", "//product[id='14']/price", "9.99"); err != nil {
		t.Fatalf("step after the refused batch: %v", err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ doc, want, not string }{
		{"d2", "<price>9.99</price>", "120.00"},
		{"d1", "<name>Ana</name>", "Zed"},
	} {
		xml, err := c.DocumentXML(1, tc.doc)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(xml, tc.want) || strings.Contains(xml, tc.not) {
			t.Fatalf("committed %s = %s, want %s and no %s", tc.doc, xml, tc.want, tc.not)
		}
	}
}

// TestTxnCancelMidFlightReleasesLocks is the second acceptance criterion:
// cancelling the context of an in-flight interactive transaction aborts it
// with errors.Is(err, ErrAborted) and releases all its locks at every
// participant site — verified by a concurrent transaction then succeeding.
func TestTxnCancelMidFlightReleasesLocks(t *testing.T) {
	c, err := New(Config{Sites: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.LoadXML("d1", peopleXML); err != nil { // replicated at both sites
		t.Fatal(err)
	}

	// The victim takes X locks at both replicas, then blocks forever on a
	// lock already held by the holder transaction.
	hold, err := c.Begin(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := hold.Insert("d1", "/people", Into, Elem("person", "", Elem("id", "h"))); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	victim, err := c.Begin(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	stepErr := make(chan error, 1)
	go func() {
		stepErr <- victim.Insert("d1", "/people", Into, Elem("person", "", Elem("id", "v")))
	}()
	time.Sleep(30 * time.Millisecond) // let the step enter lock wait
	cancel()
	select {
	case err := <-stepErr:
		if !errors.Is(err, ErrAborted) {
			t.Fatalf("cancelled step = %v, want errors.Is(err, ErrAborted)", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not unblock the in-flight step")
	}
	// Every later use reports the same terminal state.
	if _, err := victim.Query("d1", "//person"); !errors.Is(err, ErrAborted) {
		t.Fatalf("step after cancel = %v", err)
	}

	// The holder commits, then a fresh transaction walks straight through
	// the paths the victim had locked — nothing leaked at either site.
	if err := hold.Commit(); err != nil {
		t.Fatal(err)
	}
	res, err := c.Submit(1, Insert("d1", "/people", Into, Elem("person", "", Elem("id", "after"))))
	if err != nil || !res.Committed {
		t.Fatalf("post-cancel transaction blocked: %v %+v", err, res)
	}
	x0, _ := c.DocumentXML(0, "d1")
	if strings.Contains(x0, `<id>v</id>`) {
		t.Fatal("victim's insert survived the abort")
	}
}

// TestSubmitTypedErrors: the batch API reports the sentinel taxonomy.
func TestSubmitTypedErrors(t *testing.T) {
	c, err := New(Config{Sites: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.LoadXML("d1", peopleXML); err != nil {
		t.Fatal(err)
	}

	if _, err := c.Submit(9, Query("d1", "/x")); !errors.Is(err, ErrSiteOutOfRange) {
		t.Fatalf("out-of-range site = %v", err)
	}
	if _, err := c.Begin(context.Background(), -1); !errors.Is(err, ErrSiteOutOfRange) {
		t.Fatalf("out-of-range Begin = %v", err)
	}
	res, err := c.Submit(0, Query("ghost", "/x"))
	if !errors.Is(err, ErrUnknownDocument) {
		t.Fatalf("unknown document = %v", err)
	}
	if res == nil || res.State != "failed" {
		t.Fatalf("failed result = %+v", res)
	}
	if _, err := c.DocumentXML(0, "ghost"); !errors.Is(err, ErrUnknownDocument) {
		t.Fatalf("DocumentXML unknown doc = %v", err)
	}
	// A cancelled context surfaces as ErrAborted wrapping the cause.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.SubmitCtx(ctx, 0, Query("d1", "//person")); !errors.Is(err, ErrAborted) || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled submit = %v", err)
	}
}

// TestSubmitWithRetryCommitsUnderContention: cross-document two-op
// transactions from opposite sites deadlock routinely; with the retry
// policy every client eventually commits.
func TestSubmitWithRetryCommitsUnderContention(t *testing.T) {
	c, err := New(Config{
		Sites:                 2,
		DeadlockCheckInterval: 5 * time.Millisecond,
		ClientThinkTime:       time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.LoadXML("d1", peopleXML); err != nil {
		t.Fatal(err)
	}
	if err := c.LoadXML("d2", `<products><product><id>4</id><price>50.00</price></product></products>`); err != nil {
		t.Fatal(err)
	}

	const clients = 8
	policy := RetryPolicy{MaxAttempts: 200, Backoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond}
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var ops []Op
			if i%2 == 0 {
				ops = []Op{
					Query("d1", "//person/name"),
					Change("d2", "//product[id='4']/price", fmt.Sprintf("%d.00", i)),
				}
			} else {
				ops = []Op{
					Query("d2", "//product/price"),
					Insert("d1", "/people", Into, Elem("person", "", Elem("id", fmt.Sprintf("r%d", i)))),
				}
			}
			_, err := c.SubmitWithRetry(context.Background(), i%2, policy, ops...)
			errs <- err
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("retry did not converge: %v", err)
		}
	}
	// Replicas converge after the storm.
	x0, _ := c.DocumentXML(0, "d1")
	x1, _ := c.DocumentXML(1, "d1")
	if x0 != x1 {
		t.Fatal("replicas diverged")
	}
}

// TestSubmitWithRetryDoesNotRetryFailures: only deadlock victims are
// resubmitted; typed failures return on the first attempt.
func TestSubmitWithRetryDoesNotRetryFailures(t *testing.T) {
	c, err := New(Config{Sites: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	_, err = c.SubmitWithRetry(context.Background(), 0,
		RetryPolicy{MaxAttempts: 10, Backoff: 100 * time.Millisecond},
		Query("ghost", "/x"))
	if !errors.Is(err, ErrUnknownDocument) {
		t.Fatalf("err = %v", err)
	}
	if time.Since(start) > 80*time.Millisecond {
		t.Fatal("a non-deadlock failure was retried")
	}
}

// TestTxnDeadlockVictimTyped replays the paper's §2.4 deadlock on the
// interactive API: the victim's blocked step returns ErrDeadlock (which is
// also an ErrAborted), and the survivor commits.
func TestTxnDeadlockVictimTyped(t *testing.T) {
	c, err := New(Config{Sites: 2, DeadlockCheckInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.LoadXML("d1", peopleXML, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.LoadXML("d2", `<products><product><id>14</id></product></products>`, 1); err != nil {
		t.Fatal(err)
	}

	t1, err := c.Begin(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := c.Begin(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// First operations: t1 read-locks d1, t2 read-locks d2.
	if _, err := t1.Query("d1", "//person"); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.Query("d2", "//product"); err != nil {
		t.Fatal(err)
	}
	// Second operations collide: t1 writes d2 (behind t2's read lock), t2
	// writes d1 (behind t1's read lock) — the distributed deadlock.
	var wg sync.WaitGroup
	var e1, e2 error
	wg.Add(2)
	go func() {
		defer wg.Done()
		e1 = t1.Insert("d2", "/products", Into, Elem("product", "", Elem("id", "13")))
		if e1 == nil {
			e1 = t1.Commit()
		}
	}()
	go func() {
		defer wg.Done()
		time.Sleep(5 * time.Millisecond) // t2's write starts second: t2 is newer
		e2 = t2.Insert("d1", "/people", Into, Elem("person", "", Elem("id", "22")))
		if e2 == nil {
			e2 = t2.Commit()
		}
	}()
	wg.Wait()

	// Exactly one of the two must fall — the detector picks the newest in
	// the cycle, which with this interleaving is t2; accept either victim
	// but require the typed classification and a surviving commit.
	switch {
	case e1 == nil && e2 != nil:
		if !errors.Is(e2, ErrDeadlock) || !errors.Is(e2, ErrAborted) {
			t.Fatalf("victim error = %v", e2)
		}
	case e2 == nil && e1 != nil:
		if !errors.Is(e1, ErrDeadlock) || !errors.Is(e1, ErrAborted) {
			t.Fatalf("victim error = %v", e1)
		}
	default:
		t.Fatalf("want one survivor and one victim, got e1=%v e2=%v", e1, e2)
	}
}
