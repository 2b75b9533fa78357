// Cross-protocol equivalence tests. These live in the external test package
// so they can drive the full harness (which imports sched) against every
// lock protocol.
package sched_test

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/lock"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/txn"
	"repro/internal/xmltree"
	"repro/internal/xupdate"
)

// equivalenceProtocols is the table every cross-protocol test iterates. A
// new lock protocol must be added here (see CONTRIBUTING.md).
var equivalenceProtocols = []string{"xdgl", "node2pl", "doclock"}

// TestCrossProtocolEquivalence runs the same seeded serial workload under
// every protocol and requires byte-identical serialized XML on every replica:
// with one client the submission order is deterministic, so any divergence
// means a protocol corrupted scheduling.
func TestCrossProtocolEquivalence(t *testing.T) {
	base := harness.Params{
		Sites: 3, Clients: 1, TxPerClient: 10, OpsPerTx: 4,
		UpdateTxPct: 70, UpdateOpPct: 50,
		BaseBytes: 24 << 10, Seed: 42,
	}
	digests := make(map[string]string)
	for _, proto := range equivalenceProtocols {
		t.Run(proto, func(t *testing.T) {
			p := base
			p.Protocol = proto
			cluster, err := harness.BuildCluster(p, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Stop()
			res := harness.RunOn(context.Background(), cluster, p)
			// Serial workload: no lock conflicts, so everything commits.
			if res.Committed != res.Total {
				t.Fatalf("committed %d of %d (aborted %d, failed %d)",
					res.Committed, res.Total, res.Aborted, res.Failed)
			}
			digest, err := harness.FinalStateDigest(cluster)
			if err != nil {
				t.Fatal(err)
			}
			digests[proto] = digest
		})
	}
	want := digests[equivalenceProtocols[0]]
	for proto, digest := range digests {
		if digest == "" {
			t.Fatalf("%s: subtest did not produce a digest", proto)
		}
		if digest != want {
			t.Errorf("final state under %s diverges from %s:\n  %s\n  %s",
				proto, equivalenceProtocols[0], digest, want)
		}
	}
}

// TestCrossProtocolConvergence is the concurrent companion: with many
// clients the commit order is protocol-dependent, so final states may differ
// ACROSS protocols — but within one run every replica must still converge to
// identical XML, under every protocol.
func TestCrossProtocolConvergence(t *testing.T) {
	for _, proto := range equivalenceProtocols {
		t.Run(proto, func(t *testing.T) {
			p := harness.Params{
				Sites: 3, Clients: 8, TxPerClient: 5, OpsPerTx: 4,
				UpdateTxPct: 60, UpdateOpPct: 50,
				BaseBytes: 24 << 10, Seed: 77,
				Protocol:             proto,
				DeadlockInterval:     5 * time.Millisecond,
				CheckSerializability: true,
			}
			res, err := harness.Run(p)
			if err != nil {
				t.Fatal(err)
			}
			if res.Committed == 0 {
				t.Fatal("nothing committed")
			}
		})
	}
}

// TestCrossProtocolConvergenceDigest repeats the concurrent run but keeps
// the cluster handle so the replica-divergence check inside FinalStateDigest
// runs against the live sites.
func TestCrossProtocolConvergenceDigest(t *testing.T) {
	for _, proto := range equivalenceProtocols {
		t.Run(proto, func(t *testing.T) {
			p := harness.Params{
				Sites: 3, Clients: 8, TxPerClient: 5, OpsPerTx: 4,
				UpdateTxPct: 60, UpdateOpPct: 50,
				BaseBytes: 24 << 10, Seed: 99,
				Protocol:         proto,
				DeadlockInterval: 5 * time.Millisecond,
			}
			cluster, err := harness.BuildCluster(p, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Stop()
			res := harness.RunOn(context.Background(), cluster, p)
			if res.Committed == 0 {
				t.Fatal("nothing committed")
			}
			if _, err := harness.FinalStateDigest(cluster); err != nil {
				t.Fatalf("replicas diverged under %s: %v", proto, err)
			}
		})
	}
}

// replaySite builds (or, over the same directory, rebuilds) a single
// journaled FileStore site under the named protocol.
func replaySite(t *testing.T, dir, proto string, hooks *sched.CrashHooks) *sched.Site {
	t.Helper()
	st, err := store.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	journal, err := store.OpenJournal(filepath.Join(dir, "commit.log"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := sched.Config{Store: st, Journal: journal, RetryInterval: 2 * time.Millisecond, Hooks: hooks}
	if cfg.Protocol, err = lock.ByName(proto); err != nil {
		t.Fatal(err)
	}
	s := sched.New(cfg)
	if err := s.AttachNetwork(transport.NewNetwork()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	return s
}

// replayTxn draws one update transaction confined to section sec of the
// replay document: changes, a rename there and back, a transpose, and
// inserts and removes of the section's own items. Confinement is what makes
// the concurrent run replayable: inserts under one parent do not commute in
// document order, so clients that share a parent could commit in another
// order than they executed.
func replayTxn(rng *rand.Rand, sec, n int) []txn.Operation {
	section := fmt.Sprintf("/doc/s%d", sec)
	up := func(u *xupdate.Update) txn.Operation { return txn.NewUpdate("d", u) }
	ops := []txn.Operation{txn.NewQuery("d", section+"/item/v")}
	for k := 0; k < 1+rng.Intn(3); k++ {
		switch rng.Intn(5) {
		case 0:
			ops = append(ops, up(&xupdate.Update{Kind: xupdate.Insert, Target: section, Pos: xmltree.Into,
				New: &xupdate.NodeSpec{Name: "item", Children: []*xupdate.NodeSpec{{Name: "v", Text: fmt.Sprintf("%d.%d", sec, n)}}}}))
		case 1:
			ops = append(ops, up(&xupdate.Update{Kind: xupdate.Remove, Target: section + "/item[3]"}))
		case 2:
			ops = append(ops, up(&xupdate.Update{Kind: xupdate.Transpose, Target: section + "/item[1]", Target2: section + "/item[2]"}))
		case 3:
			from, to := "note", "memo"
			if rng.Intn(2) == 0 {
				from, to = to, from
			}
			ops = append(ops, up(&xupdate.Update{Kind: xupdate.Rename, Target: section + "/" + from, NewName: to}))
		default:
			ops = append(ops, up(&xupdate.Update{Kind: xupdate.Change, Target: section + "/item[1]/v", Value: fmt.Sprintf("c%d", n)}))
		}
	}
	return ops
}

// TestCrossProtocolReplayEquivalence: what a restart rebuilds from the last
// checkpoint plus the journal is exactly what was live. A seeded workload —
// serial over every section, and concurrent with each client confined to
// its own — runs on a journaled FileStore site; its first half ends in a
// checkpoint, its second half stays in the journal (checkpoints are held
// back). The site is killed without drain and restarted alone: it must
// replay exactly the second half, and the restarted tree must serialise
// byte-identically to the pre-kill live tree, under every protocol.
func TestCrossProtocolReplayEquivalence(t *testing.T) {
	const sections, txPerClient = 4, 40
	var xml strings.Builder
	xml.WriteString("<doc>")
	for s := 0; s < sections; s++ {
		fmt.Fprintf(&xml, "<s%d><note>n</note><item><v>a</v></item><item><v>b</v></item><item><v>c</v></item></s%d>", s, s)
	}
	xml.WriteString("</doc>")
	for _, proto := range equivalenceProtocols {
		for _, clients := range []int{1, sections} {
			t.Run(fmt.Sprintf("%s/clients=%d", proto, clients), func(t *testing.T) {
				dir := t.TempDir()
				var hold atomic.Bool
				gate := make(chan struct{})
				s := replaySite(t, dir, proto, &sched.CrashHooks{BeforeCheckpoint: func(string) {
					if hold.Load() {
						<-gate
					}
				}})
				doc, err := xmltree.ParseString("d", xml.String())
				if err != nil {
					t.Fatal(err)
				}
				if err := s.AddDocument(doc); err != nil {
					t.Fatal(err)
				}
				var committed [2]atomic.Int64
				for half := range committed {
					var wg sync.WaitGroup
					for c := 0; c < clients; c++ {
						wg.Add(1)
						go func(c int) {
							defer wg.Done()
							rng := rand.New(rand.NewSource(int64(1000*clients + 10*c + half)))
							for n := 0; n < txPerClient*sections/clients/2; n++ {
								sec := c
								if clients == 1 {
									sec = rng.Intn(sections)
								}
								// A transaction whose update finds no target (a
								// remove in an emptied section) fails, a deadlock
								// victim aborts; both leave nothing, and the
								// streams do not depend on outcomes.
								if res, err := s.Submit(replayTxn(rng, sec, 100*half+n)); err == nil && res.State == txn.Committed {
									committed[half].Add(1)
								}
							}
						}(c)
					}
					wg.Wait()
					if half == 0 {
						s.Sync()
						hold.Store(true)
					}
				}
				live, err := s.Document("d")
				if err != nil {
					t.Fatal(err)
				}
				s.Kill()
				close(gate)
				s.Quiesce()

				restarted := replaySite(t, dir, proto, nil)
				replayed, err := restarted.Bootstrap()
				if err != nil {
					t.Fatal(err)
				}
				if want := committed[1].Load(); want == 0 || int64(replayed) != want {
					t.Fatalf("replayed %d records, want the %d commits after the checkpoint", replayed, want)
				}
				got, err := restarted.Document("d")
				if err != nil {
					t.Fatal(err)
				}
				if got.String() != live.String() {
					t.Fatalf("restarted tree differs from the pre-kill live tree (%d records replayed)\nlive:      %s\nrestarted: %s",
						replayed, live, got)
				}
			})
		}
	}
}
