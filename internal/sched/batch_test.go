package sched

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/txn"
	"repro/internal/xmltree"
	"repro/internal/xupdate"
)

// TestExecBatchReadsConcurrently: a batch of reads returns every result in
// operation order, the locks stay held (strict 2PL) until the terminal
// commit, and the transaction commits cleanly.
func TestExecBatchReadsConcurrently(t *testing.T) {
	sites, _ := newCluster(t, 2, nil)
	addDoc(t, sites[0], "d1", peopleXML)
	addDoc(t, sites[1], "d2", productsXML)

	sess, err := sites[0].Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.ExecBatch([]txn.Operation{
		txn.NewQuery("d1", "//person/name"),
		txn.NewQuery("d2", "//product/price"),
		txn.NewQuery("d1", "//person/id"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("got %d results, want 3", len(res))
	}
	if len(res[0]) != 2 || res[0][0] != "Ana" {
		t.Fatalf("batch result 0 = %v", res[0])
	}
	if len(res[1]) != 2 || res[1][0] != "50.00" {
		t.Fatalf("batch result 1 = %v", res[1])
	}
	if len(res[2]) != 2 || res[2][0] != "4" {
		t.Fatalf("batch result 2 = %v", res[2])
	}
	if err := sess.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestExecBatchRejectsUpdates: the concurrent path is read-only; an update
// in the batch is refused up front without dooming the transaction.
func TestExecBatchRejectsUpdates(t *testing.T) {
	sites, _ := newCluster(t, 1, nil)
	addDoc(t, sites[0], "d1", peopleXML)

	sess, err := sites[0].Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	_, err = sess.ExecBatch([]txn.Operation{
		txn.NewQuery("d1", "//person"),
		txn.NewUpdate("d1", &xupdate.Update{Kind: xupdate.Insert, Target: "/people",
			Pos: xmltree.Into, New: personSpec("9", "Nuno")}),
	})
	if err == nil {
		t.Fatal("expected rejection of a non-read-only batch")
	}
	if sess.Done() {
		t.Fatal("a rejected batch must not doom the transaction")
	}
	if _, err := sess.Exec(txn.NewQuery("d1", "//person/id")); err != nil {
		t.Fatalf("transaction unusable after rejected batch: %v", err)
	}
	if err := sess.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestExecBatchUnknownDocumentFailsTransaction: a batch step that cannot
// resolve terminates the whole transaction with the step's typed error, not
// the cancellation its siblings observe.
func TestExecBatchUnknownDocumentFailsTransaction(t *testing.T) {
	sites, _ := newCluster(t, 1, nil)
	addDoc(t, sites[0], "d1", peopleXML)

	sess, err := sites[0].Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	_, err = sess.ExecBatch([]txn.Operation{
		txn.NewQuery("d1", "//person/name"),
		txn.NewQuery("nope", "//x"),
	})
	if !errors.Is(err, txn.ErrUnknownDocument) {
		t.Fatalf("batch error = %v, want ErrUnknownDocument", err)
	}
	if !sess.Done() {
		t.Fatal("failed batch must resolve the transaction")
	}
}

// TestSubmitBatchesConsecutiveReads: the batch Submit path routes runs of
// read-only operations through the concurrent path (OpDelay zero) and the
// per-operation results land at their submission indexes.
func TestSubmitBatchesConsecutiveReads(t *testing.T) {
	sites, _ := newCluster(t, 2, nil)
	addDoc(t, sites[0], "d1", peopleXML)
	addDoc(t, sites[1], "d2", productsXML)

	res, err := sites[0].Submit([]txn.Operation{
		txn.NewQuery("d1", "//person/name"),
		txn.NewQuery("d2", "//product/description"),
		txn.NewUpdate("d2", &xupdate.Update{Kind: xupdate.Change, Target: "//product[id='4']/price", Value: "60.00"}),
		txn.NewQuery("d2", "//product[id='4']/price"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.State != txn.Committed {
		t.Fatalf("state = %v (%s)", res.State, res.Reason)
	}
	if len(res.Results) != 4 {
		t.Fatalf("got %d results, want 4", len(res.Results))
	}
	if res.Results[0][0] != "Ana" || res.Results[1][0] != "Chair" {
		t.Fatalf("batched read results misplaced: %v", res.Results[:2])
	}
	if res.Results[3][0] != "60.00" {
		t.Fatalf("read after update = %v, want the updated price", res.Results[3])
	}
}

// TestStaleOpAfterTerminationDoesNotResurrect: the pipelined transport can
// deliver an abandoned ExecOpReq after the transaction's abort (or commit)
// already cleaned the participant up. The stale operation must be refused —
// not re-create participant state and acquire locks nothing will release.
func TestStaleOpAfterTerminationDoesNotResurrect(t *testing.T) {
	sites, _ := newCluster(t, 2, nil)
	addDoc(t, sites[1], "d1", peopleXML)
	part := sites[1]

	id := txn.ID{Site: 0, Seq: 99}
	// The abort outruns the operation (out-of-order delivery on the wire).
	if _, err := part.HandleMessage(0, transport.AbortReq{Txn: id}); err != nil {
		t.Fatal(err)
	}
	resp, err := part.HandleMessage(0, transport.ExecOpReq{
		Txn: id, TS: 5, OpIdx: 0,
		Op: txn.NewUpdate("d1", &xupdate.Update{Kind: xupdate.Insert, Target: "/people",
			Pos: xmltree.Into, New: personSpec("z", "Zombie")}),
	})
	if err != nil {
		t.Fatal(err)
	}
	r := resp.(transport.ExecOpResp)
	if !r.Failed || r.Executed {
		t.Fatalf("stale op was not refused: %+v", r)
	}
	// Nothing leaked: a fresh transaction locks and commits immediately.
	res, err := sites[1].Submit([]txn.Operation{
		txn.NewUpdate("d1", &xupdate.Update{Kind: xupdate.Insert, Target: "/people",
			Pos: xmltree.Into, New: personSpec("9", "Nuno")}),
	})
	if err != nil || res.State != txn.Committed {
		t.Fatalf("site unusable after stale op: %+v, %v", res, err)
	}
	doc, err := sites[1].Document("d1")
	if err != nil {
		t.Fatal(err)
	}
	if s := doc.String(); strings.Contains(s, "Zombie") {
		t.Fatal("stale operation's update was applied")
	}
}

// TestStopInterruptsDetectorPoll: Stop must cut a deadlock-detector sweep
// short via the site's lifecycle context instead of leaking a blocked WFG
// poll past Close — the detector previously polled on context.Background.
func TestStopInterruptsDetectorPoll(t *testing.T) {
	sites, network := newCluster(t, 2, func(c *Config) {
		c.DeadlockInterval = time.Millisecond
	})
	addDoc(t, sites[0], "d1", peopleXML)
	// Inject one-way latency so a sweep is very likely mid-poll when Stop
	// lands; the lifecycle context must still cut it short promptly.
	network.SetLatency(50 * time.Millisecond)
	time.Sleep(5 * time.Millisecond) // let the detector enter a sweep

	done := make(chan struct{})
	go func() {
		sites[0].Stop()
		sites[1].Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop hung behind a blocked detector poll")
	}
}
