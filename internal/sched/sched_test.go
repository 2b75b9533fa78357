package sched

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/lock"
	"repro/internal/replica"
	"repro/internal/transport"
	"repro/internal/txn"
	"repro/internal/xmltree"
	"repro/internal/xupdate"
)

const peopleXML = `<people>
  <person><id>4</id><name>Ana</name></person>
  <person><id>7</id><name>Bruno</name></person>
</people>`

const productsXML = `<products>
  <product><id>4</id><description>Chair</description><price>50.00</price></product>
  <product><id>14</id><description>Desk</description><price>120.00</price></product>
</products>`

func productSpec(id, desc, price string) *xupdate.NodeSpec {
	return &xupdate.NodeSpec{Name: "product", Children: []*xupdate.NodeSpec{
		{Name: "id", Text: id},
		{Name: "description", Text: desc},
		{Name: "price", Text: price},
	}}
}

func personSpec(id, name string) *xupdate.NodeSpec {
	return &xupdate.NodeSpec{Name: "person", Children: []*xupdate.NodeSpec{
		{Name: "id", Text: id},
		{Name: "name", Text: name},
	}}
}

// newCluster builds n in-process sites sharing a catalog and network. The
// protocol comes from DTX_PROTOCOL when set — the nightly protocol-matrix CI
// job runs the whole suite once per protocol that way — and is the scheduler
// default (xdgl) otherwise.
// count reads one of the site's counters by name; a name the site never
// registered fails the test.
func count(t testing.TB, s *Site, name string) int64 {
	t.Helper()
	n, err := s.Metrics().Count(name)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func newCluster(t *testing.T, n int, mutate func(*Config)) ([]*Site, *transport.Network) {
	t.Helper()
	return newClusterWithProtocol(t, n, os.Getenv("DTX_PROTOCOL"), mutate)
}

// newClusterWithProtocol pins the cluster to a named protocol, so
// cross-protocol tests take the protocol as a table parameter instead of
// hardcoding one in the mutate closure. "" keeps the default.
func newClusterWithProtocol(t *testing.T, n int, protocol string, mutate func(*Config)) ([]*Site, *transport.Network) {
	t.Helper()
	net := transport.NewNetwork()
	catalog := replica.NewCatalog()
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	sites := make([]*Site, n)
	for i := 0; i < n; i++ {
		cfg := Config{
			SiteID:        i,
			Sites:         ids,
			Catalog:       catalog,
			RetryInterval: 5 * time.Millisecond,
		}
		if protocol != "" {
			p, err := lock.ByName(protocol)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Protocol = p
		}
		if mutate != nil {
			mutate(&cfg)
		}
		sites[i] = New(cfg)
		if err := sites[i].AttachNetwork(net); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, s := range sites {
			s.Stop()
		}
	})
	return sites, net
}

func addDoc(t *testing.T, s *Site, name, xml string) {
	t.Helper()
	doc, err := xmltree.ParseString(name, xml)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddDocument(doc); err != nil {
		t.Fatal(err)
	}
}

func TestSingleSiteQueryAndUpdate(t *testing.T) {
	sites, _ := newCluster(t, 1, nil)
	s := sites[0]
	addDoc(t, s, "d2", productsXML)

	res, err := s.Submit([]txn.Operation{
		txn.NewQuery("d2", "//product[id='4']/description"),
		txn.NewUpdate("d2", &xupdate.Update{Kind: xupdate.Insert, Target: "/products",
			Pos: xmltree.Into, New: productSpec("13", "Mouse", "10.30")}),
		txn.NewQuery("d2", "//product/description"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.State != txn.Committed {
		t.Fatalf("state = %v (%s)", res.State, res.Reason)
	}
	if len(res.Results[0]) != 1 || res.Results[0][0] != "Chair" {
		t.Fatalf("op0 results = %v", res.Results[0])
	}
	if len(res.Results[2]) != 3 {
		t.Fatalf("op2 results = %v (insert not visible to own txn)", res.Results[2])
	}
	// Committed data persisted through the DataManager; drain the async
	// persist pipeline before observing the Store.
	s.Sync()
	stored, _, err := s.cfg.Store.Load("d2")
	if err != nil {
		t.Fatal(err)
	}
	if stored.Len() != 1+3*4 {
		t.Fatalf("persisted doc has %d nodes, want 13", stored.Len())
	}
	if c, a := count(t, s, "dtx_txns_committed_total"), count(t, s, "dtx_txns_aborted_total"); c != 1 || a != 0 {
		t.Fatalf("committed %d, aborted %d; want 1, 0", c, a)
	}
}

func TestSubmitValidation(t *testing.T) {
	sites, _ := newCluster(t, 1, nil)
	s := sites[0]
	if _, err := s.Submit(nil); err == nil {
		t.Error("empty transaction accepted")
	}
	if _, err := s.Submit([]txn.Operation{{Kind: txn.OpQuery, Query: "/x"}}); err == nil {
		t.Error("operation without document accepted")
	}
	if _, err := s.Submit([]txn.Operation{{Kind: txn.OpUpdate, Doc: "d"}}); err == nil {
		t.Error("update without body accepted")
	}
	if _, err := s.Submit([]txn.Operation{txn.NewUpdate("d", &xupdate.Update{Kind: xupdate.Rename, Target: "/x"})}); err == nil {
		t.Error("invalid update accepted")
	}
}

func TestUnknownDocumentFailsTxn(t *testing.T) {
	sites, _ := newCluster(t, 1, nil)
	res, err := sites[0].Submit([]txn.Operation{txn.NewQuery("ghost", "/x")})
	if err != nil {
		t.Fatal(err)
	}
	if res.State != txn.Failed {
		t.Fatalf("state = %v, want failed", res.State)
	}
}

func TestStrict2PLBlocksConflictingReader(t *testing.T) {
	sites, _ := newCluster(t, 1, func(c *Config) { c.OpDelay = 30 * time.Millisecond })
	s := sites[0]
	addDoc(t, s, "d2", productsXML)

	// Writer: change price, then (after OpDelay) a second op keeps the
	// transaction alive while the reader tries to look at the price.
	writerDone := make(chan *Result, 1)
	writerStart := time.Now()
	go func() {
		res, err := s.Submit([]txn.Operation{
			txn.NewUpdate("d2", &xupdate.Update{Kind: xupdate.Change, Target: "//product[id='4']/price", Value: "99.99"}),
			txn.NewQuery("d2", "//product/id"),
		})
		if err != nil {
			t.Error(err)
		}
		writerDone <- res
	}()
	time.Sleep(10 * time.Millisecond) // let the writer take its X lock
	r, err := s.Submit([]txn.Operation{
		txn.NewQuery("d2", "//product[id='4']/price"),
	})
	readerAt := time.Now()
	if err != nil {
		t.Fatal(err)
	}

	w := <-writerDone
	if w.State != txn.Committed || r.State != txn.Committed {
		t.Fatalf("writer=%v reader=%v", w.State, r.State)
	}
	// Read-committed isolation: the reader must have seen the committed
	// value, never the pending one mid-transaction.
	if len(r.Results[0]) != 1 || r.Results[0][0] != "99.99" {
		t.Fatalf("reader saw %v, want the committed 99.99", r.Results[0])
	}
	// The writer's second operation starts no earlier than OpDelay after
	// the writer did, and its X lock is held to the commit after it, so a
	// reader that finished sooner did not wait for the lock.
	if earliest := writerStart.Add(s.cfg.OpDelay); readerAt.Before(earliest) {
		t.Fatalf("reader finished %v before the writer could release — 2PL violated", earliest.Sub(readerAt))
	}
	if n := count(t, s, "dtx_op_conflicts_total"); n < 1 {
		t.Fatalf("dtx_op_conflicts_total = %d: the reader never conflicted with the writer", n)
	}
}

func TestAbortUndoesEverything(t *testing.T) {
	sites, _ := newCluster(t, 1, nil)
	s := sites[0]
	addDoc(t, s, "d2", productsXML)
	before, _ := s.Document("d2")

	// Second op targets a missing document, failing the transaction; the
	// first op's insert must be rolled back.
	res, err := s.Submit([]txn.Operation{
		txn.NewUpdate("d2", &xupdate.Update{Kind: xupdate.Insert, Target: "/products",
			Pos: xmltree.Into, New: productSpec("99", "Ghost", "0")}),
		txn.NewQuery("nowhere", "/x"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.State != txn.Failed {
		t.Fatalf("state = %v", res.State)
	}
	after, _ := s.Document("d2")
	if !xmltree.Equal(before, after) {
		t.Fatalf("abort left effects:\n%s", after.String())
	}
	// All locks released.
	s.mu.Lock()
	grants := s.docs["d2"].table.GrantCount()
	s.mu.Unlock()
	if grants != 0 {
		t.Fatalf("%d grants leaked", grants)
	}
}

func TestReplicatedUpdateAppliesAtAllSites(t *testing.T) {
	sites, _ := newCluster(t, 2, nil)
	for _, s := range sites {
		addDoc(t, s, "d1", peopleXML)
	}
	// Both sites hold d1 (AddDocument registered each in the catalog).
	res, err := sites[0].Submit([]txn.Operation{
		txn.NewUpdate("d1", &xupdate.Update{Kind: xupdate.Insert, Target: "/people",
			Pos: xmltree.Into, New: personSpec("22", "Patricia")}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.State != txn.Committed {
		t.Fatalf("state = %v (%s)", res.State, res.Reason)
	}
	for i, s := range sites {
		doc, err := s.Document("d1")
		if err != nil {
			t.Fatal(err)
		}
		if len(doc.Root.Children) != 3 {
			t.Fatalf("site %d has %d persons, want 3", i, len(doc.Root.Children))
		}
	}
}

func TestRemoteOnlyDocument(t *testing.T) {
	sites, _ := newCluster(t, 2, nil)
	addDoc(t, sites[1], "d2", productsXML) // only site 1 holds d2
	res, err := sites[0].Submit([]txn.Operation{
		txn.NewQuery("d2", "//product[id='14']/description"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.State != txn.Committed {
		t.Fatalf("state = %v (%s)", res.State, res.Reason)
	}
	if len(res.Results[0]) != 1 || res.Results[0][0] != "Desk" {
		t.Fatalf("results = %v", res.Results[0])
	}
	if count(t, sites[0], "dtx_remote_ops_sent_total") == 0 {
		t.Fatal("operation did not go remote")
	}
	if count(t, sites[1], "dtx_remote_ops_processed_total") == 0 {
		t.Fatal("participant processed nothing")
	}
}

// TestScenario24 reproduces the worked example of §2.4: d1 on both sites,
// d2 only on s2; t1 = (query d1, insert into d2), t2 = (query d2, insert
// into d1). Their second operations block on each other's first-operation
// locks, a distributed deadlock arises, the most recent transaction (t2) is
// aborted, and t1 commits. Afterwards t3 executes cleanly.
func TestScenario24(t *testing.T) {
	sites, _ := newCluster(t, 2, func(c *Config) { c.OpDelay = 40 * time.Millisecond })
	s1, s2 := sites[0], sites[1]
	addDoc(t, s1, "d1", peopleXML)
	addDoc(t, s2, "d1", peopleXML)
	addDoc(t, s2, "d2", productsXML)

	var wg sync.WaitGroup
	var res1, res2 *Result
	wg.Add(2)
	go func() {
		defer wg.Done()
		var err error
		res1, err = s1.Submit([]txn.Operation{
			txn.NewQuery("d1", "//person"),
			txn.NewUpdate("d2", &xupdate.Update{Kind: xupdate.Insert, Target: "/products",
				Pos: xmltree.Into, New: productSpec("13", "Mouse", "10.30")}),
		})
		if err != nil {
			t.Error(err)
		}
	}()
	go func() {
		defer wg.Done()
		time.Sleep(5 * time.Millisecond) // t2 starts just after t1: t2 is newer
		var err error
		res2, err = s2.Submit([]txn.Operation{
			txn.NewQuery("d2", "//product"),
			txn.NewUpdate("d1", &xupdate.Update{Kind: xupdate.Insert, Target: "/people",
				Pos: xmltree.Into, New: personSpec("22", "Patricia")}),
		})
		if err != nil {
			t.Error(err)
		}
	}()

	// Drive the deadlock detector until the tangle resolves.
	detectorStop := make(chan struct{})
	detectorDone := make(chan struct{})
	go func() {
		defer close(detectorDone)
		for i := 0; i < 2000; i++ {
			s1.CheckDeadlocks()
			time.Sleep(5 * time.Millisecond)
			select {
			case <-detectorStop:
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(detectorStop)
	<-detectorDone

	if res1.State != txn.Committed {
		t.Fatalf("t1 = %v (%s), want committed", res1.State, res1.Reason)
	}
	if res2.State != txn.Aborted {
		t.Fatalf("t2 = %v (%s), want aborted (deadlock victim)", res2.State, res2.Reason)
	}
	// t2's effects are fully undone: d2 has the new Mouse from t1, d1 has
	// no Patricia.
	d1, _ := s1.Document("d1")
	if len(d1.Root.Children) != 2 {
		t.Fatalf("d1 at s1 has %d persons, want 2", len(d1.Root.Children))
	}
	d2, _ := s2.Document("d2")
	if len(d2.Root.Children) != 3 {
		t.Fatalf("d2 at s2 has %d products, want 3", len(d2.Root.Children))
	}

	// The client resubmits its work as t3, which now runs cleanly.
	res3, err := s2.Submit([]txn.Operation{
		txn.NewQuery("d2", "//product[id='14']"),
		txn.NewUpdate("d2", &xupdate.Update{Kind: xupdate.Insert, Target: "/products",
			Pos: xmltree.Into, New: productSpec("32", "Keyboard", "9.90")}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res3.State != txn.Committed {
		t.Fatalf("t3 = %v (%s)", res3.State, res3.Reason)
	}
}

// TestScanThenChangeOneVictim: two transactions, coordinated at sites 0 and
// 1, scan the same prices of a document held at all three sites, then both
// change one price. Both scans locked at the document's read site, so the
// cycle closes in that one lock table: with no distributed detector
// running, the request that closes it is the only victim and the other
// transaction commits.
func TestScanThenChangeOneVictim(t *testing.T) {
	sites, _ := newCluster(t, 3, nil)
	for _, s := range sites {
		addDoc(t, s, "d2", productsXML)
	}
	sessions := make([]*Session, 2)
	for i := range sessions {
		sess, err := sites[i].Begin(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Exec(txn.NewQuery("d2", "//product/price")); err != nil {
			t.Fatal(err)
		}
		sessions[i] = sess
	}
	errs := make(chan error, len(sessions))
	for i, sess := range sessions {
		go func() {
			_, err := sess.Exec(txn.NewUpdate("d2", &xupdate.Update{
				Kind: xupdate.Change, Target: "//product[id='4']/price", Value: fmt.Sprintf("6%d.00", i),
			}))
			if err == nil {
				err = sess.Commit()
			}
			errs <- err
		}()
	}
	timeout := time.After(3 * time.Second)
	victims, committed := 0, 0
	for range sessions {
		select {
		case err := <-errs:
			switch {
			case err == nil:
				committed++
			case errors.Is(err, txn.ErrDeadlock):
				victims++
			default:
				t.Fatalf("unexpected outcome: %v", err)
			}
		case <-timeout:
			t.Fatalf("the pair did not resolve in 3 s (%d victim(s), %d commit(s) so far)", victims, committed)
		}
	}
	if victims != 1 || committed != 1 {
		t.Fatalf("%d victim(s), %d commit(s); want 1, 1", victims, committed)
	}
}

func TestConcurrentInsertsAllCommitExactlyOnce(t *testing.T) {
	sites, _ := newCluster(t, 1, func(c *Config) { c.DeadlockInterval = 10 * time.Millisecond })
	s := sites[0]
	addDoc(t, s, "d1", peopleXML)

	const n = 24
	var wg sync.WaitGroup
	committed := make([]bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				res, err := s.Submit([]txn.Operation{
					txn.NewUpdate("d1", &xupdate.Update{Kind: xupdate.Insert, Target: "/people",
						Pos: xmltree.Into, New: personSpec(fmt.Sprintf("n%d", i), fmt.Sprintf("P%d", i))}),
				})
				if err != nil {
					t.Error(err)
					return
				}
				if res.State == txn.Committed {
					committed[i] = true
					return
				}
				// Deadlock victims retry, as the paper leaves resubmission
				// to the client.
			}
		}(i)
	}
	wg.Wait()
	doc, _ := s.Document("d1")
	if got := len(doc.Root.Children); got != 2+n {
		t.Fatalf("persons = %d, want %d", got, 2+n)
	}
	for i, ok := range committed {
		if !ok {
			t.Fatalf("client %d never committed", i)
		}
	}
}

func TestLivenessUnderContention(t *testing.T) {
	// Mixed readers/writers over a replicated document with background
	// deadlock detection: every transaction must terminate.
	sites, _ := newCluster(t, 2, func(c *Config) {
		c.DeadlockInterval = 8 * time.Millisecond
		c.OpDelay = time.Millisecond
	})
	for _, s := range sites {
		addDoc(t, s, "d1", peopleXML)
		addDoc(t, s, "d2", productsXML)
	}
	const clients = 10
	var wg sync.WaitGroup
	outcomes := make(chan txn.State, clients*3)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			site := sites[c%2]
			for k := 0; k < 3; k++ {
				var ops []txn.Operation
				if k%2 == 0 {
					ops = []txn.Operation{
						txn.NewQuery("d1", "//person/name"),
						txn.NewUpdate("d2", &xupdate.Update{Kind: xupdate.Change,
							Target: "//product[id='4']/price", Value: fmt.Sprintf("%d.00", c)}),
					}
				} else {
					ops = []txn.Operation{
						txn.NewQuery("d2", "//product/price"),
						txn.NewUpdate("d1", &xupdate.Update{Kind: xupdate.Insert, Target: "/people",
							Pos: xmltree.Into, New: personSpec(fmt.Sprintf("c%dk%d", c, k), "X")}),
					}
				}
				res, err := site.Submit(ops)
				if err != nil {
					t.Error(err)
					return
				}
				outcomes <- res.State
			}
		}(c)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("liveness violated: transactions did not all terminate")
	}
	close(outcomes)
	var commits, aborts int
	for st := range outcomes {
		switch st {
		case txn.Committed:
			commits++
		case txn.Aborted:
			aborts++
		default:
			t.Fatalf("unexpected state %v", st)
		}
	}
	if commits == 0 {
		t.Fatal("nothing committed under contention")
	}
	t.Logf("commits=%d aborts=%d", commits, aborts)
	// Replicas converge for committed state: compare site documents.
	d0, _ := sites[0].Document("d1")
	d1, _ := sites[1].Document("d1")
	if !xmltree.Equal(d0, d1) {
		t.Fatal("replicas diverged")
	}
}

// TestProtocolSwap runs the same read/write transaction under every
// protocol, taking the protocol as a table parameter rather than hardcoding
// one configuration.
func TestProtocolSwap(t *testing.T) {
	for _, proto := range []string{"xdgl", "node2pl", "doclock"} {
		t.Run(proto, func(t *testing.T) {
			sites, _ := newClusterWithProtocol(t, 1, proto, nil)
			s := sites[0]
			addDoc(t, s, "d2", productsXML)
			res, err := s.Submit([]txn.Operation{
				txn.NewQuery("d2", "//product/price"),
				txn.NewUpdate("d2", &xupdate.Update{Kind: xupdate.Change, Target: "//product[id='4']/price", Value: "1.00"}),
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.State != txn.Committed {
				t.Fatalf("state = %v (%s)", res.State, res.Reason)
			}
			if s.Protocol().Name() != proto {
				t.Fatalf("configured protocol = %s, want %s", s.Protocol().Name(), proto)
			}
		})
	}
}

func TestStopUnblocksWaiters(t *testing.T) {
	sites, _ := newCluster(t, 1, func(c *Config) { c.OpDelay = 200 * time.Millisecond })
	s := sites[0]
	addDoc(t, s, "d2", productsXML)
	// Long-running writer keeps an X lock while its second op sleeps.
	go s.Submit([]txn.Operation{
		txn.NewUpdate("d2", &xupdate.Update{Kind: xupdate.Change, Target: "//price", Value: "0"}),
		txn.NewQuery("d2", "//product"),
	})
	time.Sleep(20 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Submit([]txn.Operation{txn.NewQuery("d2", "//price")})
	}()
	time.Sleep(20 * time.Millisecond)
	s.Stop()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("waiter not unblocked by Stop")
	}
}
