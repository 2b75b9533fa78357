package sched

import (
	"context"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/txn"
	"repro/internal/xmltree"
	"repro/internal/xupdate"
)

// TestPerDocumentProgress verifies the per-document scheduling domains:
// while one transaction is parked in lock-wait on document A, transactions
// on document B at the same site run to completion. Under the former
// per-site mutex model the waiter's retries and the other document's work
// serialised on one lock; now only the same document contends.
func TestPerDocumentProgress(t *testing.T) {
	sites, _ := newCluster(t, 1, nil)
	s := sites[0]
	addDoc(t, s, "dA", peopleXML)
	addDoc(t, s, "dB", productsXML)

	holder, err := s.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// X lock on dA's person name class.
	if _, err := holder.Exec(txn.NewUpdate("dA", &xupdate.Update{
		Kind: xupdate.Change, Target: "//person/name", Value: "held"})); err != nil {
		t.Fatal(err)
	}

	// A second transaction conflicts on the same class and parks in wait
	// mode.
	waiterDone := make(chan error, 1)
	go func() {
		waiter, err := s.Begin(context.Background())
		if err != nil {
			waiterDone <- err
			return
		}
		if _, err := waiter.Exec(txn.NewUpdate("dA", &xupdate.Update{
			Kind: xupdate.Change, Target: "//person/name", Value: "waited"})); err != nil {
			waiterDone <- err
			return
		}
		waiterDone <- waiter.Commit()
	}()

	// Wait until the conflict is registered (the waiter is parked).
	deadline := time.Now().Add(5 * time.Second)
	for count(t, s, "dtx_op_conflicts_total") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never conflicted")
		}
		time.Sleep(time.Millisecond)
	}

	// Transactions on dB must make progress while dA's waiter is parked.
	done := make(chan error, 1)
	go func() {
		res, err := s.Submit([]txn.Operation{
			txn.NewQuery("dB", "//product[id='4']/description"),
			txn.NewUpdate("dB", &xupdate.Update{
				Kind: xupdate.Change, Target: "//product[id='4']/price", Value: "55.00"}),
		})
		if err == nil && res.State != txn.Committed {
			err = res.Err
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("transaction on other document failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("transaction on other document blocked behind a lock-wait on a different document")
	}

	select {
	case err := <-waiterDone:
		t.Fatalf("waiter finished while the conflicting lock was held: %v", err)
	default:
	}

	// Release; the waiter must now complete.
	if err := holder.Commit(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-waiterDone:
		if err != nil {
			t.Fatalf("waiter failed after wake-up: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never woke up")
	}
}

// orderStore wraps a MemStore and records, per document, the number of
// top-level children in every state saved and the log index it was saved at
// — the observations the checkpoint-ordering test asserts on.
type orderStore struct {
	store.Store
	mu    sync.Mutex
	seen  map[string][]int
	idx   map[string][]int64
	saves int
}

func (o *orderStore) SaveAt(doc *xmltree.Document, index int64) error {
	o.mu.Lock()
	o.seen[doc.Name] = append(o.seen[doc.Name], len(doc.Root.Children))
	o.idx[doc.Name] = append(o.idx[doc.Name], index)
	o.saves++
	o.mu.Unlock()
	return o.Store.SaveAt(doc, index)
}

// TestCheckpointOrdering drives several checkpoints' worth of concurrent
// single-insert transactions on one document and asserts that Store writes
// observe per-document commit order: every saved state has strictly more
// inserts than the previous one (a checkpoint covers every commit since the
// last, so counts can skip, never regress), each is saved at the index of the
// last commit it holds, and after Sync the saved state contains every commit.
// The site is journaled: only journal bytes make a checkpoint due.
func TestCheckpointOrdering(t *testing.T) {
	os := &orderStore{Store: store.NewMemStore(), seen: make(map[string][]int), idx: make(map[string][]int64)}
	journal := withJournal(t)
	sites, _ := newCluster(t, 1, func(cfg *Config) {
		cfg.Store = os
		journal(cfg)
	})
	s := sites[0]
	addDoc(t, s, "d", "<people></people>")

	const workers = 8
	const perWorker = 3 * checkpointEvery / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := strconv.Itoa(w*perWorker + i)
				res, err := s.Submit([]txn.Operation{
					txn.NewUpdate("d", &xupdate.Update{
						Kind: xupdate.Insert, Target: "/people",
						Pos: xmltree.Into, New: personSpec(id, "p"+id)}),
				})
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				if res.State != txn.Committed {
					t.Errorf("txn %s: %v", res.Txn, res.Err)
					return
				}
				s.Quiesce() // let a checkpoint this commit made due finish
			}
		}(w)
	}
	wg.Wait()
	s.Sync()

	os.mu.Lock()
	defer os.mu.Unlock()
	counts := os.seen["d"]
	if len(counts) < 3 {
		t.Fatalf("too few saves to observe ordering: %v", counts)
	}
	// counts[0] is the AddDocument install (0 children). Every commit is one
	// insert, so an image's index is its child count.
	for i := range counts {
		if i > 0 && counts[i] <= counts[i-1] {
			t.Fatalf("save %d regressed: %v", i, counts)
		}
		if os.idx["d"][i] != int64(counts[i]) {
			t.Fatalf("save %d holds %d commits but names index %d", i, counts[i], os.idx["d"][i])
		}
	}
	if final := counts[len(counts)-1]; final != workers*perWorker {
		t.Fatalf("final saved state has %d inserts, want %d", final, workers*perWorker)
	}
}

// TestMemoryOnlySiteSavesOnSyncOnly: a site without a journal appends no
// journal bytes, so commits never make a checkpoint due; the Store is written
// when the document is installed and on Sync, which saves every commit.
func TestMemoryOnlySiteSavesOnSyncOnly(t *testing.T) {
	os := &orderStore{Store: store.NewMemStore(), seen: make(map[string][]int), idx: make(map[string][]int64)}
	sites, _ := newCluster(t, 1, func(cfg *Config) { cfg.Store = os })
	s := sites[0]
	addDoc(t, s, "d", "<people></people>")

	const commits = 3 * checkpointEvery
	for i := 0; i < commits; i++ {
		id := strconv.Itoa(i)
		if res, err := s.Submit([]txn.Operation{txn.NewUpdate("d", &xupdate.Update{
			Kind: xupdate.Insert, Target: "/people", Pos: xmltree.Into, New: personSpec(id, "p"+id)}),
		}); err != nil || res.State != txn.Committed {
			t.Fatalf("commit %d: %v / %+v", i, err, res)
		}
		s.Quiesce()
	}
	os.mu.Lock()
	saves := os.saves
	os.mu.Unlock()
	if saves != 1 {
		t.Fatalf("%d Store writes after %d commits, want only the install's", saves, commits)
	}

	s.Sync()
	os.mu.Lock()
	defer os.mu.Unlock()
	if os.saves != 2 || os.idx["d"][1] != commits || os.seen["d"][1] != commits {
		t.Fatalf("after Sync: %d Store writes, last at index %v holding %v inserts; want 2, the last at %d",
			os.saves, os.idx["d"], os.seen["d"], commits)
	}
}
