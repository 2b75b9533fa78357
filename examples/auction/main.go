// Auction runs an XMark-style auction workload on a four-site DTX cluster
// with partial replication: the generated auction document is fragmented
// into size-balanced pieces, one per site, and concurrent clients mix
// monitoring queries with bids, listings and registrations across the
// fragments — the configuration the paper uses for its main experiments.
// Deadlock victims are resubmitted automatically by SubmitWithRetry under a
// bounded exponential-backoff policy instead of a hand-rolled loop.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	dtx "repro"
	"repro/internal/xmark"
)

func main() {
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

	start := time.Now()
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
	wall := time.Since(start)

	fmt.Printf("\n%d clients x %d transactions in %v\n", clients, txPerClient, wall.Round(time.Millisecond))
	fmt.Printf("committed: %d, given up after retries: %d\n", commits, victims)
	var deadlocks int64
	for site := 0; site < cluster.Sites(); site++ {
		reg, err := cluster.Metrics(site)
		if err != nil {
			log.Fatal(err)
		}
		count := func(name string) int64 {
			n, err := reg.Count(name)
			if err != nil {
				log.Fatal(err)
			}
			return n
		}
		deadlocks += count("dtx_deadlock_aborts_total")
		fmt.Printf("site %d: %d ops executed, %d lock conflicts, %d remote ops processed\n",
			site, count("dtx_ops_executed_total"), count("dtx_op_conflicts_total"), count("dtx_remote_ops_processed_total"))
	}
	fmt.Printf("deadlock victims across the cluster: %d\n", deadlocks)
}
