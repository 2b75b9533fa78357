package recovery

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/lock"
	"repro/internal/replica"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/txn"
	"repro/internal/xmltree"
	"repro/internal/xupdate"
)

const crashDocXML = `<people>
  <person><id>4</id><name>Ana</name></person>
  <person><id>7</id><name>Bruno</name></person>
</people>`

// cluster is a rebuildable test deployment: sites share one catalog and
// in-process network, and each site's FileStore + journal live under dir so
// a killed site can be reconstructed over the same state.
type cluster struct {
	t         *testing.T
	dir       string
	net       *transport.Network
	catalog   *replica.Catalog
	ids       []int
	sites     []*sched.Site
	hooks     []*sched.CrashHooks
	indexKeys []string // value-index keys every (re)built site enables
	// wrapStore, if set, is put around every (re)built site's FileStore.
	wrapStore func(store.Store) store.Store
}

func newCrashCluster(t *testing.T, n int) *cluster {
	return newCrashClusterWith(t, n, nil)
}

// newCrashClusterIndexed is newCrashCluster with value indexes enabled at
// every site, so restarts also exercise index reconstruction.
func newCrashClusterIndexed(t *testing.T, n int, indexKeys []string) *cluster {
	return newCrashClusterWith(t, n, func(c *cluster) { c.indexKeys = indexKeys })
}

// newCrashClusterWith lets setup adjust the cluster before its sites are
// built.
func newCrashClusterWith(t *testing.T, n int, setup func(*cluster)) *cluster {
	t.Helper()
	c := &cluster{
		t:       t,
		dir:     t.TempDir(),
		net:     transport.NewNetwork(),
		catalog: replica.NewCatalog(),
		ids:     make([]int, n),
		sites:   make([]*sched.Site, n),
		hooks:   make([]*sched.CrashHooks, n),
	}
	for i := range c.ids {
		c.ids[i] = i
		c.hooks[i] = &sched.CrashHooks{}
	}
	if setup != nil {
		setup(c)
	}
	for i := 0; i < n; i++ {
		c.sites[i] = c.buildSite(i, false)
		doc, err := xmltree.ParseString("d1", crashDocXML)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.sites[i].AddDocument(doc); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, s := range c.sites {
			s.Stop()
		}
	})
	return c
}

// buildSite constructs (or reconstructs) one site over its on-disk state.
func (c *cluster) buildSite(i int, recovering bool) *sched.Site {
	c.t.Helper()
	dir := filepath.Join(c.dir, fmt.Sprintf("site%d", i))
	fs, err := store.NewFileStore(dir)
	if err != nil {
		c.t.Fatal(err)
	}
	var st store.Store = fs
	if c.wrapStore != nil {
		st = c.wrapStore(st)
	}
	journal, err := store.OpenJournal(filepath.Join(dir, "commit.log"))
	if err != nil {
		c.t.Fatal(err)
	}
	s := sched.New(sched.Config{
		SiteID:            i,
		Sites:             c.ids,
		Catalog:           c.catalog,
		Store:             st,
		Journal:           journal,
		RetryInterval:     5 * time.Millisecond,
		HeartbeatInterval: 10 * time.Millisecond,
		HeartbeatMisses:   2,
		IndexedKeys:       c.indexKeys,
		Recovering:        recovering,
		Hooks:             c.hooks[i],
	})
	if err := s.AttachNetwork(c.net); err != nil {
		c.t.Fatal(err)
	}
	return s
}

// restart rebuilds a killed site through the recovery subsystem.
func (c *cluster) restart(i int) *Report {
	c.t.Helper()
	return c.restartWith(i, Options{CatchUp: true, Timeout: time.Second})
}

func (c *cluster) restartWith(i int, opts Options) *Report {
	c.t.Helper()
	c.sites[i].Quiesce()             // no dead-incarnation Save may land over the reload
	c.hooks[i] = &sched.CrashHooks{} // the crash already happened
	s := c.buildSite(i, true)
	c.sites[i] = s
	report, err := Restart(s, opts)
	if err != nil {
		c.t.Fatalf("restart site %d: %v", i, err)
	}
	return report
}

func changeNameOp() txn.Operation {
	return txn.NewUpdate("d1", &xupdate.Update{
		Kind: xupdate.Change, Target: "//person[id='4']/name", Value: "Zed",
	})
}

// eventually polls until the condition holds.
func eventually(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// TestCrashPoints is the fault-injection table, one entry per stage: a site
// is killed before or after the coordinator's decision, before or after a
// participant's intent, mid commit fan-out, mid-checkpoint and mid protocol
// switch (the value-index replay entry is TestCrashValueIndexReplay). The
// survivors keep serving reads from the surviving replicas, the victim
// restarts through internal/recovery, no intent stays open, and all replicas
// converge to identical document XML.
func TestCrashPoints(t *testing.T) {
	cases := []struct {
		name   string
		sites  int
		victim int // site killed by the hook
		// arm installs the kill hook on the cluster before the doomed
		// transaction runs; fired signals the kill.
		arm func(c *cluster, fired chan<- struct{})
		// after, if set, runs once the doomed transaction returned — the
		// trigger of a crash point the commit path itself does not reach.
		after func(c *cluster)
		// check, if set, inspects the victim's recovery report.
		check func(t *testing.T, report *Report)
	}{
		{
			// The participant dies as the consolidation request arrives,
			// before its intent record: nobody can have its state, the
			// transaction resolves away and every replica converges to the
			// pre-transaction document.
			name: "participant-before-intent", sites: 2, victim: 1,
			arm: func(c *cluster, fired chan<- struct{}) {
				var once sync.Once
				c.hooks[1].BeforeIntent = func(txn.ID, []string) {
					once.Do(func() { c.sites[1].Kill(); close(fired) })
				}
			},
		},
		{
			// The participant dies right after its intent is durable: the
			// coordinator commits, the victim restarts, replays the intent
			// onto its saved document and converges with the survivors.
			name: "participant-after-intent", sites: 3, victim: 1,
			arm: func(c *cluster, fired chan<- struct{}) {
				var once sync.Once
				c.hooks[1].AfterIntent = func(txn.ID, []string) {
					once.Do(func() { c.sites[1].Kill(); close(fired) })
				}
			},
		},
		{
			// The site dies inside a checkpoint, before the new image is in
			// place: the Store still holds the previous image at the index
			// it names, and the restart replays the journal onto it locally
			// (TestCrashLoneSiteInsideCheckpoint crashes on either side of
			// the image's rename, with no peer to lean on).
			name: "mid-checkpoint", sites: 3, victim: 1,
			arm: func(c *cluster, fired chan<- struct{}) {
				var once sync.Once
				c.hooks[1].BeforeCheckpoint = func(string) {
					once.Do(func() { c.sites[1].Kill(); close(fired) })
				}
			},
			after: func(c *cluster) { c.sites[1].Sync() },
			check: func(t *testing.T, report *Report) {
				if report.Replayed != 1 {
					t.Fatalf("want the acknowledged commit replayed onto the old image, got: %s", report)
				}
			},
		},
		{
			// The coordinator dies before logging its decision: presumed
			// abort everywhere — the survivors' failure detector aborts the
			// orphaned participant state and the cluster converges to the
			// pre-transaction document.
			name: "coordinator-before-decision", sites: 3, victim: 0,
			arm: func(c *cluster, fired chan<- struct{}) {
				var once sync.Once
				c.hooks[0].BeforeDecision = func(txn.ID) {
					once.Do(func() { c.sites[0].Kill(); close(fired) })
				}
			},
		},
		{
			// The coordinator dies right after its decision record, before
			// any participant hears of it: the survivors presume abort; the
			// restarted coordinator finds its dangling decision, learns no
			// participant consolidated, and voids it.
			name: "coordinator-after-decision", sites: 3, victim: 0,
			arm: func(c *cluster, fired chan<- struct{}) {
				var once sync.Once
				c.hooks[0].AfterDecision = func(txn.ID) {
					once.Do(func() { c.sites[0].Kill(); close(fired) })
				}
			},
		},
		{
			// The coordinator dies mid commit fan-out, after a participant
			// consolidated: the commit must survive — the restarted
			// coordinator reconciles its dangling decision against the
			// participants and catches up to the committed state.
			name: "coordinator-mid-fanout", sites: 3, victim: 0,
			arm: func(c *cluster, fired chan<- struct{}) {
				var once sync.Once
				c.hooks[1].AfterIntent = func(txn.ID, []string) {
					once.Do(func() { c.sites[0].Kill(); close(fired) })
				}
			},
		},
		{
			// The site dies at an adaptive protocol switch's quiescent
			// point: the domain's lock table is drained and admissions are
			// blocked, but the new protocol is not yet installed. The
			// protocol choice is in-memory only, so the switch creates no
			// recovery obligation — the victim must restart under the
			// configured default and converge like any other crash.
			name: "mid-protocol-switch", sites: 3, victim: 1,
			arm: func(c *cluster, fired chan<- struct{}) {
				var once sync.Once
				c.hooks[1].BeforeProtocolSwitch = func(string, string, string) {
					once.Do(func() { c.sites[1].Kill(); close(fired) })
				}
				go func() {
					// Give the doomed transaction a head start so the
					// drain has in-flight work to wait out.
					time.Sleep(5 * time.Millisecond)
					_ = c.sites[1].SwitchProtocol("d1", lock.DocLock{})
				}()
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newCrashCluster(t, tc.sites)
			fired := make(chan struct{})
			tc.arm(c, fired)

			// The doomed transaction. Its outcome depends on the crash
			// point (committed, aborted or failed) — what the table asserts
			// is convergence, not the label.
			_, _ = c.sites[0].Submit([]txn.Operation{changeNameOp()})
			if tc.after != nil {
				tc.after(c)
			}
			select {
			case <-fired:
			case <-time.After(5 * time.Second):
				t.Fatal("kill hook never fired")
			}

			// Reads on the document keep succeeding from the surviving
			// replicas while the victim is down (orphaned locks are
			// resolved by failure detection first).
			survivor := (tc.victim + 1) % tc.sites
			eventually(t, 5*time.Second, "reads from survivors", func() bool {
				res, err := c.sites[survivor].Submit([]txn.Operation{
					txn.NewQuery("d1", "//person/name"),
				})
				return err == nil && res.State == txn.Committed
			})

			// Restart the victim through the recovery subsystem.
			report := c.restart(tc.victim)
			if open := c.sites[tc.victim].Journal().OpenIntents(); len(open) != 0 {
				t.Fatalf("open intents survived recovery: %+v (report: %s)", open, report)
			}
			if tc.check != nil {
				tc.check(t, report)
			}

			// All replicas hold identical XML.
			want, err := c.sites[0].Document("d1")
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i < tc.sites; i++ {
				got, err := c.sites[i].Document("d1")
				if err != nil {
					t.Fatal(err)
				}
				if got.String() != want.String() {
					t.Fatalf("site %d diverged after recovery (report: %s)\nsite 0: %s\nsite %d: %s",
						i, report, want.String(), i, got.String())
				}
			}

			// Protocol choice is never persisted: whatever the domain ran
			// under (or was switching to) at the kill, the restarted site
			// serves under the configured default.
			if got := c.sites[tc.victim].DocProtocol("d1"); got != "xdgl" {
				t.Fatalf("restarted site runs %q, want the configured default xdgl", got)
			}

			// The restarted site is readmitted: once the survivors'
			// heartbeats mark it Up again, writes (which need every
			// replica) succeed.
			eventually(t, 5*time.Second, "writes after readmission", func() bool {
				res, err := c.sites[survivor].Submit([]txn.Operation{
					txn.NewUpdate("d1", &xupdate.Update{
						Kind: xupdate.Change, Target: "//person[id='7']/name", Value: "Carla",
					}),
				})
				return err == nil && res.State == txn.Committed
			})
		})
	}
}

// TestWritesFailFastWhileReplicaDown: a write that would touch a dead
// replica fails with the typed ErrReplicaUnavailable instead of hanging.
func TestWritesFailFastWhileReplicaDown(t *testing.T) {
	c := newCrashCluster(t, 3)
	c.sites[2].Kill()
	eventually(t, 5*time.Second, "replica-unavailable write", func() bool {
		res, err := c.sites[0].Submit([]txn.Operation{changeNameOp()})
		if err != nil {
			t.Fatal(err)
		}
		return errors.Is(res.Err, txn.ErrReplicaUnavailable)
	})
	// Reads still flow.
	res, err := c.sites[0].Submit([]txn.Operation{txn.NewQuery("d1", "//person/name")})
	if err != nil || res.State != txn.Committed {
		t.Fatalf("read while replica down: %v %+v", err, res)
	}
}

// TestRestartSeqFence: a restarted site's new transactions cannot collide
// with identifiers from before the crash.
func TestRestartSeqFence(t *testing.T) {
	c := newCrashCluster(t, 2)
	res, err := c.sites[0].Submit([]txn.Operation{changeNameOp()})
	if err != nil || res.State != txn.Committed {
		t.Fatalf("seed txn: %v %+v", err, res)
	}
	c.sites[0].Sync()
	preCrash := res.Txn
	c.sites[0].Kill()
	report := c.restart(0)
	if report.SeqFloor <= preCrash.Seq {
		t.Fatalf("seq floor %d does not fence past pre-crash id %s", report.SeqFloor, preCrash)
	}
	res2, err := c.sites[0].Submit([]txn.Operation{txn.NewQuery("d1", "//person/name")})
	if err != nil || res2.State != txn.Committed {
		t.Fatalf("post-restart txn: %v %+v", err, res2)
	}
	if res2.Txn.Seq <= preCrash.Seq {
		t.Fatalf("post-restart id %s not past pre-crash %s", res2.Txn, preCrash)
	}
}

// TestResolveOnline: a healthy site's online recovery pass (dtxctl
// -recover) checkpoints its documents and finds no decision to settle.
func TestResolveOnline(t *testing.T) {
	c := newCrashCluster(t, 2)
	if _, err := c.sites[0].Submit([]txn.Operation{changeNameOp()}); err != nil {
		t.Fatal(err)
	}
	report, err := Resolve(c.sites[0], Options{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Decisions) != 0 {
		t.Fatalf("healthy site reported recovery work: %s", report)
	}
	if open := c.sites[0].Journal().OpenIntents(); len(open) != 0 {
		t.Fatalf("open intents after the pass: %+v", open)
	}
}

// TestCrashAllReplicasAfterAck: every replica dies right after its intent
// became durable — the commit is acknowledged, no checkpoint has run. Each
// site then restarts ALONE, with no live peer to catch up from, and must
// read the acknowledged change back from its own saved document plus its
// own journal.
func TestCrashAllReplicasAfterAck(t *testing.T) {
	c := newCrashCluster(t, 3)
	for i := range c.sites {
		i := i
		var once sync.Once
		c.hooks[i].AfterIntent = func(txn.ID, []string) { once.Do(c.sites[i].Kill) }
		c.hooks[i].BeforeCheckpoint = func(string) { t.Error("a checkpoint ran before the crash") }
	}
	res, err := c.sites[0].Submit([]txn.Operation{changeNameOp()})
	if err != nil || res.State != txn.Committed {
		t.Fatalf("doomed transaction was not acknowledged: %v %+v", err, res)
	}
	for i, s := range c.sites {
		if !s.Killed() {
			t.Fatalf("site %d survived its intent", i)
		}
	}
	for i := range c.sites {
		report := c.restart(i)
		if report.Replayed != 1 || len(report.CaughtUp) != 0 {
			t.Fatalf("site %d: want 1 record replayed and no catch-up, got: %s", i, report)
		}
		got, err := c.sites[i].Submit([]txn.Operation{txn.NewQuery("d1", "//person[id='4']/name")})
		if err != nil || got.State != txn.Committed || len(got.Results[0]) != 1 || got.Results[0][0] != "Zed" {
			t.Fatalf("site %d lost the acknowledged change: %v %+v (report: %s)", i, err, got, report)
		}
		c.sites[i].Kill() // the next site restarts alone too
	}
}

// TestCrashStoreHoldsOnlyCommitted: the Store must never hold uncommitted
// state. Writer A is mid-transaction on d1, B commits on d1, the site is
// checkpointed and killed, and restarts with every peer down: the loaded
// document contains B's change and not A's.
func TestCrashStoreHoldsOnlyCommitted(t *testing.T) {
	c := newCrashCluster(t, 2)
	a, err := c.sites[0].Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Exec(txn.NewUpdate("d1", &xupdate.Update{
		Kind: xupdate.Change, Target: "//person[id='7']/name", Value: "Uncommitted",
	})); err != nil {
		t.Fatal(err)
	}
	res, err := c.sites[1].Submit([]txn.Operation{changeNameOp()})
	if err != nil || res.State != txn.Committed {
		t.Fatalf("B: %v %+v", err, res)
	}
	c.sites[0].Sync() // whatever a checkpoint would save, it saves now
	c.sites[0].Kill()
	c.sites[1].Kill()

	c.restart(0)
	doc, err := c.sites[0].Document("d1")
	if err != nil {
		t.Fatal(err)
	}
	if xml := doc.String(); !strings.Contains(xml, "Zed") || strings.Contains(xml, "Uncommitted") {
		t.Fatalf("restarted alone, site 0 holds:\n%s\nwant B's committed change (Zed) and not A's (Uncommitted)", xml)
	}
}

// crashStore is a Store whose image write can be the last thing its site
// does: crash runs around every SaveAt of a checkpoint (index above 0) and
// reports whether the site died there — before the write, and then nothing is
// written, or after it returned.
type crashStore struct {
	store.Store
	afterRename bool
	crash       func(index int64) bool
}

func (cs *crashStore) SaveAt(doc *xmltree.Document, index int64) error {
	if index > 0 && !cs.afterRename && cs.crash(index) {
		return errors.New("crashed before the image was written")
	}
	err := cs.Store.SaveAt(doc, index)
	if index > 0 && cs.afterRename {
		cs.crash(index)
	}
	return err
}

// TestCrashLoneSiteInsideCheckpoint: a single journaled site takes more than
// a checkpoint's worth of acknowledged commits and dies inside the checkpoint
// — before the image's rename (the Store holds the old image at the old
// index) or after it but before the journal sealed what the image covers (the
// new image at the new index beside intents it already holds). It restarts
// alone and must read every acknowledged value back, having replayed exactly
// the records past the index the image on disk names.
func TestCrashLoneSiteInsideCheckpoint(t *testing.T) {
	for _, afterRename := range []bool{false, true} {
		name := "before-rename"
		if afterRename {
			name = "after-rename"
		}
		t.Run(name, func(t *testing.T) {
			reached, release := make(chan struct{}), make(chan struct{})
			var once sync.Once
			var imageIdx int64 // what the image on disk names at the crash
			c := newCrashClusterWith(t, 1, func(c *cluster) {
				c.wrapStore = func(st store.Store) store.Store {
					return &crashStore{Store: st, afterRename: afterRename, crash: func(index int64) (died bool) {
						once.Do(func() {
							if afterRename {
								imageIdx = index
							}
							close(reached)
							<-release
							c.sites[0].Kill()
							died = true
						})
						return died
					}}
				}
			})

			// Commit until the checkpointer stands at the crash point, then a
			// few more: those are in the journal only, whichever image lands.
			acked, extra := 0, 3
			for extra > 0 {
				acked++
				if acked > 1000 {
					t.Fatal("no checkpoint after 1000 commits")
				}
				res, err := c.sites[0].Submit([]txn.Operation{txn.NewUpdate("d1", &xupdate.Update{
					Kind: xupdate.Insert, Target: "/people", Pos: xmltree.Into,
					New: &xupdate.NodeSpec{Name: "person", Children: []*xupdate.NodeSpec{{Name: "id", Text: fmt.Sprint(100 + acked)}}},
				})})
				if err != nil || res.State != txn.Committed {
					t.Fatalf("commit %d: %v %+v", acked, err, res)
				}
				select {
				case <-reached:
					extra--
				default:
				}
			}
			close(release)
			c.sites[0].Quiesce()
			if !c.sites[0].Killed() {
				t.Fatal("the site survived its checkpoint")
			}

			report := c.restart(0)
			if want := acked - int(imageIdx); report.Replayed != want || len(report.CaughtUp) != 0 {
				t.Fatalf("image at index %d, %d commits acknowledged: want %d replayed locally, got: %s", imageIdx, acked, want, report)
			}
			res, err := c.sites[0].Submit([]txn.Operation{txn.NewQuery("d1", "//person/id")})
			if err != nil || res.State != txn.Committed {
				t.Fatalf("read-back: %v %+v", err, res)
			}
			got := make(map[string]int)
			for _, id := range res.Results[0] {
				got[id]++
			}
			for i := 1; i <= acked; i++ {
				if got[fmt.Sprint(100+i)] != 1 {
					t.Fatalf("acknowledged insert %d reads back %d times (report: %s)", 100+i, got[fmt.Sprint(100+i)], report)
				}
			}
			if len(res.Results[0]) != 2+acked {
				t.Fatalf("%d ids read back, want %d", len(res.Results[0]), 2+acked)
			}
		})
	}
}
