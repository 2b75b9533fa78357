// Failover demonstrates the crash-recovery subsystem on the auction
// workload: a three-site cluster with a fully replicated XMark auction
// document loses one site mid-traffic. The survivors' heartbeats detect the
// crash; monitoring reads keep flowing from the surviving replicas while
// bids (writes, which must reach every copy) fail fast with the typed
// dtx.ErrReplicaUnavailable. The dead site then restarts through
// internal/recovery — saved documents plus journal replay, settlement of
// dangling coordinator decisions, document catch-up from a live replica —
// and once the survivors readmit it, bidding resumes and every replica holds
// identical XML.
package main

import (
	"errors"
	"fmt"
	"log"
	"math/rand"
	"os"
	"sync"
	"time"

	dtx "repro"
	"repro/internal/xmark"
)

func main() {
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
	fmt.Printf("auction replicated at sites %v, journals under %s\n\n",
		cluster.SitesOf("auction"), storeDir)

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

	// Crash site 2 and keep the clients running.
	if err := cluster.KillSite(2); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nphase 2: site 2 killed")
	var mu sync.Mutex
	reads, readFails, bidRejects := 0, 0, 0
	var wg sync.WaitGroup
	deadline := time.Now().Add(400 * time.Millisecond)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				site := c % 2 // survivors only coordinate
				if c%2 == 0 {
					err := monitor(site)
					mu.Lock()
					if err == nil {
						reads++
					} else {
						readFails++
					}
					mu.Unlock()
				} else if err := bid(site); errors.Is(err, dtx.ErrReplicaUnavailable) {
					mu.Lock()
					bidRejects++
					mu.Unlock()
				}
				time.Sleep(5 * time.Millisecond)
			}
		}(c)
	}
	wg.Wait()
	peers, _ := cluster.PeerStatuses(0)
	fmt.Printf("  survivors' view of site 2: %s\n", peers[2])
	fmt.Printf("  monitoring reads served from surviving replicas: %d ok, %d failed\n", reads, readFails)
	fmt.Printf("  bids failed fast with ErrReplicaUnavailable: %d\n", bidRejects)

	// Restart through crash recovery.
	report, err := cluster.RestartSite(2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nphase 3: site 2 restarted through internal/recovery\n  %s\n", report)

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
}
