package dtx_test

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"os"
	"sync"
	"time"

	dtx "repro"
	"repro/internal/harness"
	"repro/internal/xmark"
)

const peopleXML = `
<people>
  <person><id>4</id><name>Ana</name></person>
  <person><id>7</id><name>Bruno</name></person>
</people>`

// Example_quickstart: a two-site cluster with a totally replicated document,
// driven through an interactive transaction. The client reads, branches on
// what it read — the locks of the read are still held, so the decision
// cannot be invalidated by a concurrent writer — then updates and commits;
// the committed insert is visible at both sites.
func Example_quickstart() {
	cluster, err := dtx.New(dtx.Config{Sites: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	// Total replication: both sites hold d1.
	if err := cluster.LoadXML("d1", peopleXML); err != nil {
		log.Fatal(err)
	}

	// The context bounds the whole transaction: if the deadline expires
	// mid-flight, the transaction aborts and every lock is released.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	txn, err := cluster.Begin(ctx, 0)
	if err != nil {
		log.Fatal(err)
	}
	names, err := txn.Query("d1", "//person[id='4']/name")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("transaction %s read person 4 as: %v\n", txn.ID(), names)

	// Branch on what we read: only register Patricia if Ana is present.
	if len(names) == 1 && names[0] == "Ana" {
		err = txn.Insert("d1", "/people", dtx.Into,
			dtx.Elem("person", "",
				dtx.Elem("id", "22"),
				dtx.Elem("name", "Patricia")))
		if err != nil {
			log.Fatal(err)
		}
	}
	all, err := txn.Query("d1", "//person/name")
	if err != nil {
		log.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("all persons at commit: %v\n", all)

	// The committed insert reached every replica.
	for site := 0; site < cluster.Sites(); site++ {
		r, err := cluster.Submit(site, dtx.Query("d1", "//person[id='22']/name"))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("site %d sees the new person as: %v\n", site, r.Results[0])
	}
	// Output:
	// transaction t0.1 read person 4 as: [Ana]
	// all persons at commit: [Ana Bruno Patricia]
	// site 0 sees the new person as: [Patricia]
	// site 1 sees the new person as: [Patricia]
}

// Example_scenario reproduces the worked execution of the paper's §2.4
// (Figs. 3–6) on the interactive transaction API: two sites, document d1
// (people) replicated at both, document d2 (products) only at site s2.
// Client c1 runs t1 = (query person 4 → insert product Mouse); client c2
// runs t2 = (query all products → insert person Patricia). Each client reads
// first and only then decides its write. Their second operations block on
// each other's first-operation locks — a distributed deadlock. The periodic
// check (Algorithm 4) finds the circle in the union of the wait-for graphs
// and aborts the most recent transaction: t2's pending step returns an error
// satisfying errors.Is(err, dtx.ErrDeadlock), its effects are undone and its
// locks released; t1 then commits. The client inspects the typed error,
// discards t2 and runs its replacement t3 (query product 14 → insert product
// Keyboard) cleanly.
func Example_scenario() {
	cluster, err := dtx.New(dtx.Config{
		Sites:                 2,
		DeadlockCheckInterval: 10 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	// d1 at both sites, d2 only at s2 (Fig. 4).
	if err := cluster.LoadXML("d1", peopleXML, 0, 1); err != nil {
		log.Fatal(err)
	}
	if err := cluster.LoadXML("d2", `
<products>
  <product><id>4</id><description>Chair</description><price>50.00</price></product>
  <product><id>14</id><description>Desk</description><price>120.00</price></product>
</products>`, 1); err != nil {
		log.Fatal(err)
	}

	// Each client runs its read, then waits until the other has read too
	// (the think time of Fig. 5), so both writes meet the other's locks.
	ctx := context.Background()
	var read sync.WaitGroup
	read.Add(2)
	step := func(t *dtx.Txn, doc, query, into, parent string, node dtx.Node) error {
		_, err := t.Query(doc, query)
		read.Done()
		if err != nil {
			return err
		}
		read.Wait()
		if err := t.Insert(into, parent, dtx.Into, node); err != nil {
			return err
		}
		return t.Commit()
	}
	t1, err := cluster.Begin(ctx, 0)
	if err != nil {
		log.Fatal(err)
	}
	t2, err := cluster.Begin(ctx, 1)
	if err != nil {
		log.Fatal(err)
	}
	var done sync.WaitGroup
	var err1, err2 error
	done.Add(2)
	go func() {
		defer done.Done()
		err1 = step(t1, "d1", "//person[id='4']", "d2", "/products", dtx.Elem("product", "",
			dtx.Elem("id", "13"), dtx.Elem("description", "Mouse"), dtx.Elem("price", "10.30")))
	}()
	go func() {
		defer done.Done()
		err2 = step(t2, "d2", "//product", "d1", "/people", dtx.Elem("person", "",
			dtx.Elem("id", "22"), dtx.Elem("name", "Patricia")))
	}()
	done.Wait()

	report := func(name string, t *dtx.Txn, err error) {
		switch {
		case err == nil:
			fmt.Printf("%s (%s): committed\n", name, t.ID())
		case errors.Is(err, dtx.ErrDeadlock):
			fmt.Printf("%s (%s): aborted as deadlock victim\n", name, t.ID())
		default:
			fmt.Printf("%s (%s): %v\n", name, t.ID(), err)
		}
	}
	report("t1", t1, err1)
	report("t2", t2, err2)

	// "It is the responsibility of the application client c2 to decide if
	// it resubmits transaction t2 ... the client discards transaction t2
	// and decides to execute transaction t3." The typed error is what makes
	// that decision programmable.
	if errors.Is(err2, dtx.ErrDeadlock) {
		res3, err := cluster.Submit(1,
			dtx.Query("d2", "//product[id='14']"),
			dtx.Insert("d2", "/products", dtx.Into,
				dtx.Elem("product", "",
					dtx.Elem("id", "32"),
					dtx.Elem("description", "Keyboard"),
					dtx.Elem("price", "9.90"))),
		)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("t3 (%s): %s\n", res3.ID, res3.State)
	}

	check, err := cluster.Submit(1, dtx.Query("d2", "//product/description"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("products at s2 after the scenario: %v\n", check.Results[0])
	check, err = cluster.Submit(0, dtx.Query("d1", "//person/name"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("persons at s1 after the scenario: %v\n", check.Results[0])
	// Output:
	// t1 (t0.1): committed
	// t2 (t1.1): aborted as deadlock victim
	// t3 (t1.2): committed
	// products at s2 after the scenario: [Chair Desk Mouse Keyboard]
	// persons at s1 after the scenario: [Ana Bruno]
}

// Example_auction runs an XMark-style auction workload on a four-site
// cluster with partial replication: the generated auction document is
// fragmented into size-balanced pieces, one per site, and concurrent clients
// mix monitoring queries with bids, listings and registrations across the
// fragments — the configuration the paper uses for its main experiments.
// Deadlock victims are resubmitted by SubmitWithRetry under a bounded
// exponential-backoff policy instead of a hand-rolled loop. How many commit
// at the first attempt depends on timing; that each is resolved does not.
func Example_auction() {
	cluster, err := dtx.New(dtx.Config{
		Sites:                 4,
		ClientThinkTime:       time.Millisecond,
		DeadlockCheckInterval: 10 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	// Generate and fragment the auction database.
	base := xmark.Gen(xmark.Config{Name: "auction", TargetBytes: 128 << 10, Seed: 7})
	frags, err := cluster.LoadXMLPartial("auction", base.String())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("fragment allocation (cf. the paper's Fig. 8):")
	for _, f := range frags {
		fmt.Printf("  %-10s -> sites %v\n", f, cluster.SitesOf(f))
	}

	const clients = 8
	const txPerClient = 5
	ctx := context.Background()
	retry := dtx.RetryPolicy{MaxAttempts: 8, Backoff: time.Millisecond}
	var wg sync.WaitGroup
	var mu sync.Mutex
	commits, victims := 0, 0
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			site := c % cluster.Sites()
			for t := 0; t < txPerClient; t++ {
				frag := frags[rng.Intn(len(frags))]
				var ops []dtx.Op
				switch t % 3 {
				case 0: // monitor open auctions on a fragment
					ops = []dtx.Op{
						dtx.Query(frag, "/site/open_auctions/open_auction/current"),
						dtx.Query(frag, "//open_auction[1]/bidder/increase"),
					}
				case 1: // place a bid and bump the current price
					ops = []dtx.Op{
						dtx.Insert(frag, "/site/open_auctions/open_auction[1]", dtx.Into,
							dtx.Elem("bidder", "",
								dtx.Elem("date", "2008-06-10"),
								dtx.Elem("increase", fmt.Sprintf("%d.50", 1+rng.Intn(20))))),
						dtx.Change(frag, "/site/open_auctions/open_auction[1]/current",
							fmt.Sprintf("%d.00", 100+rng.Intn(400))),
					}
				default: // register a person, then look them up
					id := fmt.Sprintf("c%dt%d", c, t)
					ops = []dtx.Op{
						dtx.Insert(frag, "/site/people", dtx.Into,
							dtx.Elem("person", "",
								dtx.Elem("id", id),
								dtx.Elem("name", "Client "+id))),
						dtx.Query(frag, "//person[id='"+id+"']/name"),
					}
				}
				_, err := cluster.SubmitWithRetry(ctx, site, retry, ops...)
				mu.Lock()
				switch {
				case err == nil:
					commits++
				case errors.Is(err, dtx.ErrDeadlock):
					// Still a victim after every retry attempt.
					victims++
				default:
					mu.Unlock()
					log.Fatal(err)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	fmt.Printf("%d clients x %d transactions: %d committed or given up after retries\n",
		clients, txPerClient, commits+victims)
	// Output:
	// fragment allocation (cf. the paper's Fig. 8):
	//   auction#0  -> sites [0]
	//   auction#1  -> sites [1]
	//   auction#2  -> sites [2]
	//   auction#3  -> sites [3]
	// 8 clients x 5 transactions: 40 committed or given up after retries
}

// Example_failover demonstrates crash recovery on the auction workload: a
// three-site cluster with a fully replicated XMark auction document loses
// one site mid-traffic. The survivors' heartbeats detect the crash;
// monitoring reads keep flowing from the surviving replicas while bids
// (writes, which must reach every copy) fail fast with the typed
// dtx.ErrReplicaUnavailable. The dead site then restarts through
// internal/recovery — saved documents plus journal replay, settlement of
// dangling coordinator decisions, document catch-up from a live replica —
// and once the survivors readmit it, bidding resumes and every replica holds
// identical XML.
func Example_failover() {
	storeDir, err := os.MkdirTemp("", "dtx-failover")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(storeDir)

	cluster, err := dtx.New(dtx.Config{
		Sites:             3,
		StoreDir:          storeDir,
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatMisses:   2,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	base := xmark.Gen(xmark.Config{Name: "auction", TargetBytes: 64 << 10, Seed: 7})
	if err := cluster.LoadXML("auction", base.String()); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("auction replicated at sites %v\n", cluster.SitesOf("auction"))

	rng := rand.New(rand.NewSource(7))
	bid := func(site int) error {
		_, err := cluster.Submit(site, dtx.ChangeAttr("auction",
			"//open_auctions/open_auction", "current",
			fmt.Sprintf("%d.00", 100+rng.Intn(900))))
		return err
	}
	monitor := func(site int) error {
		_, err := cluster.Submit(site, dtx.Query("auction", "//open_auctions/open_auction/@current"))
		return err
	}

	// Healthy traffic.
	for i := 0; i < 5; i++ {
		if err := bid(i % 3); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("phase 1: 5 bids committed across 3 sites")

	// Crash site 2 and keep the clients running: a monitor at site 0, which
	// reads its own copy, and a bidder at site 1.
	if err := cluster.KillSite(2); err != nil {
		log.Fatal(err)
	}
	fmt.Println("phase 2: site 2 killed")
	var readFails, bidRejects int
	var wg sync.WaitGroup
	deadline := time.Now().Add(200 * time.Millisecond)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			if monitor(0) != nil {
				readFails++
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			if errors.Is(bid(1), dtx.ErrReplicaUnavailable) {
				bidRejects++
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	wg.Wait()
	fmt.Printf("  monitoring reads failed: %d\n", readFails)
	fmt.Printf("  bids failed fast with ErrReplicaUnavailable: %t\n", bidRejects > 0)

	// Restart through crash recovery.
	if _, err := cluster.RestartSite(2); err != nil {
		log.Fatal(err)
	}
	fmt.Println("phase 3: site 2 restarted through internal/recovery")

	// Wait for readmission, then bid again.
	for {
		if err := bid(0); err == nil {
			break
		} else if !errors.Is(err, dtx.ErrReplicaUnavailable) {
			log.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	fmt.Println("  bidding resumed (all replicas up)")

	cluster.Sync()
	ref, err := cluster.DocumentXML(0, "auction")
	if err != nil {
		log.Fatal(err)
	}
	for site := 1; site < 3; site++ {
		xml, err := cluster.DocumentXML(site, "auction")
		if err != nil {
			log.Fatal(err)
		}
		if xml != ref {
			log.Fatalf("site %d diverged after recovery", site)
		}
	}
	fmt.Println("  all 3 replicas hold identical XML after catch-up")
	// Output:
	// auction replicated at sites [0 1 2]
	// phase 1: 5 bids committed across 3 sites
	// phase 2: site 2 killed
	//   monitoring reads failed: 0
	//   bids failed fast with ErrReplicaUnavailable: true
	// phase 3: site 2 restarted through internal/recovery
	//   bidding resumed (all replicas up)
	//   all 3 replicas hold identical XML after catch-up
}

// Example_protocols compares the three concurrency-control protocols DTX can
// run — XDGL (the paper's contribution), Node2PL tree locks (the
// related-work stand-in) and the traditional whole-document lock — on one
// contended workload, a miniature of the paper's evaluation story. Response
// times, throughput and the abort count vary from run to run (go run the
// harness's experiments to print them); every transaction is resolved and
// every committed history is conflict-serializable in each run.
func Example_protocols() {
	// A deadline on the whole comparison: if a protocol run wedges, its
	// in-flight transactions are aborted and their locks released.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	for _, proto := range []string{"xdgl", "node2pl", "doclock"} {
		res, err := harness.RunCtx(ctx, harness.Params{
			Sites:       4,
			Clients:     12,
			TxPerClient: 5,
			OpsPerTx:    5,
			UpdateTxPct: 40,
			UpdateOpPct: 20,
			BaseBytes:   384 << 10,
			Partial:     true,
			Protocol:    proto,
			Latency:     200 * time.Microsecond,
			OpDelay:     time.Millisecond,
			Seed:        42,
			// A committed history that is not conflict-serializable fails
			// the run.
			CheckSerializability: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s %d transactions resolved, history conflict-serializable\n",
			proto, res.Committed+res.Aborted+res.Failed)
	}
	// Output:
	// xdgl     60 transactions resolved, history conflict-serializable
	// node2pl  60 transactions resolved, history conflict-serializable
	// doclock  60 transactions resolved, history conflict-serializable
}
