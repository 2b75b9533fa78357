package sched

import (
	"sync"
	"testing"
	"time"

	"repro/internal/txn"
	"repro/internal/xmltree"
	"repro/internal/xupdate"
)

// driveCrossedInserts launches two transactions whose second operations
// block on each other's first-operation locks across two documents,
// creating a two-site distributed deadlock. Returns their results.
func driveCrossedInserts(t *testing.T, s1, s2 *Site) (*Result, *Result) {
	t.Helper()
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
		time.Sleep(5 * time.Millisecond)
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
	wg.Wait()
	return res1, res2
}

func TestDetectorBackgroundResolves(t *testing.T) {
	// Same tangle, background detector only (no manual CheckDeadlocks):
	// both transactions must terminate, newest aborted.
	sites, _ := newCluster(t, 2, func(c *Config) {
		c.OpDelay = 40 * time.Millisecond
		c.DeadlockInterval = 8 * time.Millisecond
	})
	s1, s2 := sites[0], sites[1]
	addDoc(t, s1, "d1", peopleXML)
	addDoc(t, s2, "d1", peopleXML)
	addDoc(t, s2, "d2", productsXML)

	res1, res2 := driveCrossedInserts(t, s1, s2)
	if res1.State != txn.Committed || res2.State != txn.Aborted {
		t.Fatalf("t1=%v t2=%v, want committed/aborted", res1.State, res2.State)
	}
	// At least one site recorded the distributed detection.
	dist := count(t, sites[0], "dtx_deadlocks_distributed_total") + count(t, sites[1], "dtx_deadlocks_distributed_total")
	if dist == 0 {
		t.Fatal("no distributed deadlock recorded")
	}
}

func TestCheckDeadlocksNoFalsePositive(t *testing.T) {
	sites, _ := newCluster(t, 2, nil)
	addDoc(t, sites[0], "d1", peopleXML)
	if sites[0].CheckDeadlocks() {
		t.Fatal("deadlock reported on idle cluster")
	}
	// A single waiting transaction (no cycle) must not be killed.
	done := make(chan *Result, 1)
	go func() {
		r, _ := sites[0].Submit([]txn.Operation{
			txn.NewUpdate("d1", &xupdate.Update{Kind: xupdate.Change, Target: "//name", Value: "X"}),
			txn.NewQuery("d1", "//person"),
		})
		done <- r
	}()
	time.Sleep(10 * time.Millisecond)
	if sites[0].CheckDeadlocks() {
		t.Fatal("deadlock reported for a plain wait")
	}
	if r := <-done; r.State != txn.Committed {
		t.Fatalf("writer = %v", r.State)
	}
}

func TestVictimSignalIdempotent(t *testing.T) {
	sites, _ := newCluster(t, 1, nil)
	s := sites[0]
	// Signalling an unknown transaction is a no-op.
	s.signalAbort(txn.ID{Site: 0, Seq: 999}, "test")
	s.signalWake(txn.ID{Site: 0, Seq: 999})
	s.signalVictim(txn.Zero, "ignored")
	// Remote victim routing: signalling a transaction of another site sends
	// a message; with one site it is unreachable, which must not panic.
	s.signalVictim(txn.ID{Site: 7, Seq: 1}, "remote")
}
