// Benchmarks regenerating the paper's evaluation figures (§3.2) plus
// micro-benchmarks of the substrates and ablations of the scheduler's dials
// (protocol, deadlock period, network latency). Each figure benchmark runs the corresponding DTXTester workload
// once per iteration and reports the quantities the paper plots as custom
// metrics: resp_ms (mean transaction response time), deadlocks (transactions
// aborted as deadlock victims) and tx_s (throughput).
//
// The full sweep behind each figure — every x-axis value, rendered as the
// paper's series — is produced by cmd/dtxbench; the benchmarks here cover
// the characteristic points of each figure so `go test -bench .` exercises
// every experiment.
package dtx

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/dataguide"
	"repro/internal/harness"
	"repro/internal/lock"
	"repro/internal/mvcc"
	"repro/internal/replica"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/txn"
	"repro/internal/vindex"
	"repro/internal/xmark"
	"repro/internal/xmltree"
	"repro/internal/xpath"
	"repro/internal/xupdate"
)

// benchParams are the scaled-down workload dimensions used by the figure
// benchmarks: small enough for `go test -bench .` to sweep everything,
// contended enough to exercise waits and deadlock handling.
func benchParams(proto string) harness.Params {
	return harness.Params{
		Sites:       4,
		Clients:     6,
		TxPerClient: 3,
		OpsPerTx:    4,
		UpdateTxPct: 20,
		UpdateOpPct: 20,
		BaseBytes:   48 << 10,
		Partial:     true,
		Protocol:    proto,
		Latency:     100 * time.Microsecond,
		OpDelay:     500 * time.Microsecond,
	}
}

func runWorkload(b *testing.B, p harness.Params) {
	b.Helper()
	var resp, dl, tps float64
	for i := 0; i < b.N; i++ {
		p.Seed = int64(i)*7919 + 1
		res, err := harness.Run(p)
		if err != nil {
			b.Fatal(err)
		}
		resp += res.MeanRespMs
		dl += float64(res.Deadlocks)
		tps += res.ThroughputTPS
	}
	n := float64(b.N)
	b.ReportMetric(resp/n, "resp_ms")
	b.ReportMetric(dl/n, "deadlocks")
	b.ReportMetric(tps/n, "tx/s")
}

// runProfiledWorkload is runWorkload with the registry-backed latency
// breakdown enabled: ablations answer *why* a variant wins, so the
// per-phase quantiles are the point. Arming the registries costs the gated
// histogram observations, which is why only the ablation benchmarks (never
// the gated HOT_BENCH set) run profiled.
func runProfiledWorkload(b *testing.B, p harness.Params) {
	b.Helper()
	p.LatencyProfile = true
	var resp, dl, tps float64
	var last *harness.Result
	for i := 0; i < b.N; i++ {
		p.Seed = int64(i)*7919 + 1
		res, err := harness.Run(p)
		if err != nil {
			b.Fatal(err)
		}
		resp += res.MeanRespMs
		dl += float64(res.Deadlocks)
		tps += res.ThroughputTPS
		last = res
	}
	n := float64(b.N)
	b.ReportMetric(resp/n, "resp_ms")
	b.ReportMetric(dl/n, "deadlocks")
	b.ReportMetric(tps/n, "tx/s")
	if bd := last.Breakdown; bd != nil {
		b.ReportMetric(bd.LockWait.P99Ms, "lockwait_p99_ms")
		b.ReportMetric(bd.CommitFanout.P99Ms, "fanout_p99_ms")
		b.Logf("%s", last)
	}
}

// BenchmarkFig09Clients — Fig. 9: response time vs number of clients for
// read-only transactions, under total and partial replication, XDGL vs
// Node2PL.
func BenchmarkFig09Clients(b *testing.B) {
	for _, partial := range []bool{false, true} {
		mode := "total"
		if partial {
			mode = "partial"
		}
		for _, proto := range []string{"xdgl", "node2pl"} {
			for _, clients := range []int{4, 10} {
				name := fmt.Sprintf("%s/%s/clients=%d", mode, proto, clients)
				b.Run(name, func(b *testing.B) {
					p := benchParams(proto)
					p.Partial = partial
					p.Clients = clients
					p.UpdateTxPct = 0 // Fig. 9 uses reading transactions
					runWorkload(b, p)
				})
			}
		}
	}
}

// BenchmarkFig10UpdatePct — Fig. 10: response time and deadlocks vs the
// percentage of update transactions.
func BenchmarkFig10UpdatePct(b *testing.B) {
	for _, proto := range []string{"xdgl", "node2pl"} {
		for _, upd := range []int{20, 60} {
			b.Run(fmt.Sprintf("%s/upd=%d", proto, upd), func(b *testing.B) {
				p := benchParams(proto)
				p.Clients = 10
				p.UpdateTxPct = upd
				runWorkload(b, p)
			})
		}
	}
}

// BenchmarkFig11aBaseSize — Fig. 11a: response time and deadlocks vs the
// size of the base.
func BenchmarkFig11aBaseSize(b *testing.B) {
	for _, proto := range []string{"xdgl", "node2pl"} {
		for _, mult := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/base=%dx", proto, mult), func(b *testing.B) {
				p := benchParams(proto)
				p.BaseBytes *= mult
				runWorkload(b, p)
			})
		}
	}
}

// BenchmarkFig11bSites — Fig. 11b: response time and deadlocks vs the
// number of sites.
func BenchmarkFig11bSites(b *testing.B) {
	for _, proto := range []string{"xdgl", "node2pl"} {
		for _, sites := range []int{2, 8} {
			b.Run(fmt.Sprintf("%s/sites=%d", proto, sites), func(b *testing.B) {
				p := benchParams(proto)
				p.Sites = sites
				runWorkload(b, p)
			})
		}
	}
}

// BenchmarkFig12Throughput — Fig. 12: committed transactions over time
// (throughput / concurrency degree) for the two protocols on the fixed
// 4-site partial deployment.
func BenchmarkFig12Throughput(b *testing.B) {
	for _, proto := range []string{"xdgl", "node2pl"} {
		b.Run(proto, func(b *testing.B) {
			p := benchParams(proto)
			p.Clients = 10
			p.TxPerClient = 5
			runWorkload(b, p)
		})
	}
}

// BenchmarkFigDocsScaling — per-document scheduling domains: the same
// client count and per-operation work spread over 1 vs 4 documents at a
// fixed two-site deployment, under an update-only workload contended
// enough that one document's lock classes deadlock constantly. With one
// document every transaction funnels through one scheduling domain and
// most become deadlock victims; with four, the domains are independent and
// committed throughput scales.
//
// The valpred variants replace half of each transaction's operations with id
// point lookups (Zipf-skewed values) and contrast the scan path against
// value-indexed sites — the mixed read/write shape where index maintenance
// rides the update path and lookups skip the extent scan.
func BenchmarkFigDocsScaling(b *testing.B) {
	base := func(docs int) harness.Params {
		p := benchParams("xdgl")
		p.Sites = 2
		p.Clients = 8
		p.TxPerClient = 4
		p.OpsPerTx = 5
		p.Docs = docs
		p.Partial = false
		p.UpdateTxPct = 100
		p.UpdateOpPct = 100
		p.BaseBytes = 16 << 10
		p.Latency = 0
		p.OpDelay = 300 * time.Microsecond
		return p
	}
	for _, docs := range []int{1, 4} {
		b.Run(fmt.Sprintf("docs=%d", docs), func(b *testing.B) {
			runWorkload(b, base(docs))
		})
	}
	for _, indexed := range []bool{false, true} {
		mode := "scan"
		if indexed {
			mode = "indexed"
		}
		b.Run("docs=4/valpred-"+mode, func(b *testing.B) {
			p := base(4)
			p.UpdateOpPct = 50
			p.ValuePredPct = 100
			p.ValueZipf = 1.5
			if indexed {
				p.IndexedKeys = []string{"id"}
			}
			runWorkload(b, p)
		})
	}
}

// BenchmarkSnapshotReadScaling — MVCC snapshot reads: read-only
// transactions against one document while a writer continuously commits
// updates to it. Because snapshot readers acquire no locks and add no
// wait-for edges, read throughput must scale with the reader count
// instead of serialising behind the writer's exclusive locks; any reader
// abort fails the benchmark — except ErrSnapshotUnavailable, the
// retry-safe "begin timestamp lost the race against version GC" outcome,
// which is resubmitted the way SubmitWithRetry would. Reported as reads/s
// alongside the per-read latency.
func BenchmarkSnapshotReadScaling(b *testing.B) {
	for _, readers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("readers=%d", readers), func(b *testing.B) {
			cluster, err := New(Config{Sites: 2})
			if err != nil {
				b.Fatal(err)
			}
			defer cluster.Close()
			doc := benchDoc(b, 16<<10)
			if err := cluster.LoadXML("x", doc.String()); err != nil {
				b.Fatal(err)
			}

			stop := make(chan struct{})
			writerDone := make(chan struct{})
			go func() {
				defer close(writerDone)
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					cluster.Submit(0, Change("x",
						"/site/open_auctions/open_auction[1]/current",
						fmt.Sprintf("%d.00", i)))
				}
			}()

			b.ResetTimer()
			var wg sync.WaitGroup
			errs := make(chan error, readers)
			for r := 0; r < readers; r++ {
				n := b.N / readers
				if r < b.N%readers {
					n++
				}
				wg.Add(1)
				go func(site, n int) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						res, err := cluster.SubmitReadOnly(site%2,
							Query("x", "/site/people/person[1]/name"))
						if errors.Is(err, ErrSnapshotUnavailable) {
							i--
							continue
						}
						if err != nil {
							errs <- err
							return
						}
						if !res.Committed {
							errs <- fmt.Errorf("snapshot read did not commit: %s", res.Reason)
							return
						}
					}
				}(r, n)
			}
			wg.Wait()
			b.StopTimer()
			close(stop)
			<-writerDone
			select {
			case err := <-errs:
				b.Fatal(err)
			default:
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "reads/s")
		})
	}
}

// BenchmarkQuorumCommit — the quorum write path: a 3-replica document under
// Replication "quorum" with WriteQuorum 2 commits once the primary and one
// follower have durably acked the shipped record, instead of executing the
// write at every replica inside the transaction (BenchmarkDistributedTxn is
// the eager-mode counterpart). Gated in CI as a hot-path benchmark.
func BenchmarkQuorumCommit(b *testing.B) {
	cluster, err := New(Config{
		Sites:       3,
		Replication: ReplicationQuorum,
		WriteQuorum: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	doc := benchDoc(b, 64<<10)
	if err := cluster.LoadXML("x", doc.String()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cluster.Submit(0,
			Change("x", "/site/open_auctions/open_auction[1]/current", "42.00"),
		)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Committed {
			b.Fatal("txn did not commit")
		}
	}
}

// BenchmarkFollowerReadScaling — bounded-staleness follower reads: a fixed
// pool of snapshot readers fans out over the primary plus a varying number
// of followers while a writer continuously commits through the primary.
// Under quorum replication followers serve reads from their own MVCC chains
// (within the one-second staleness bound), so adding followers spreads the read load across
// replicas instead of funnelling everything through the primary's document
// mutex. Reported as reads/s; gated in CI as a hot-path benchmark.
func BenchmarkFollowerReadScaling(b *testing.B) {
	const readerPool = 8
	for _, followers := range []int{0, 1, 2} {
		b.Run(fmt.Sprintf("followers=%d", followers), func(b *testing.B) {
			sites := followers + 1
			cluster, err := New(Config{
				Sites:       sites,
				Replication: ReplicationQuorum,
				WriteQuorum: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer cluster.Close()
			doc := benchDoc(b, 16<<10)
			if err := cluster.LoadXML("x", doc.String()); err != nil {
				b.Fatal(err)
			}

			// A steady (throttled) update stream: the point is read scaling
			// under concurrent writes, not a saturating writer whose version
			// churn outruns the readers' snapshots.
			stop := make(chan struct{})
			writerDone := make(chan struct{})
			go func() {
				defer close(writerDone)
				tick := time.NewTicker(200 * time.Microsecond)
				defer tick.Stop()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					case <-tick.C:
					}
					cluster.Submit(0, Change("x",
						"/site/open_auctions/open_auction[1]/current",
						fmt.Sprintf("%d.00", i)))
				}
			}()

			b.ResetTimer()
			var wg sync.WaitGroup
			errs := make(chan error, readerPool)
			for r := 0; r < readerPool; r++ {
				n := b.N / readerPool
				if r < b.N%readerPool {
					n++
				}
				wg.Add(1)
				go func(site, n int) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						res, err := cluster.SubmitReadOnly(site%sites,
							Query("x", "/site/people/person[1]/name"))
						if errors.Is(err, ErrSnapshotUnavailable) {
							// The begin timestamp lost the race against
							// version GC; a fresh snapshot is safe to take.
							i--
							continue
						}
						if err != nil {
							errs <- err
							return
						}
						if !res.Committed {
							errs <- fmt.Errorf("follower read did not commit: %s", res.Reason)
							return
						}
					}
				}(r, n)
			}
			wg.Wait()
			b.StopTimer()
			close(stop)
			<-writerDone
			select {
			case err := <-errs:
				b.Fatal(err)
			default:
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "reads/s")
		})
	}
}

// --- Ablations ---

// BenchmarkAblationProtocol compares all three protocols, adding the
// whole-document lock the paper discusses as the traditional baseline.
// Runs profiled: `go test -bench BenchmarkAblationProtocol -v` prints each
// protocol's per-phase latency breakdown (and reports lockwait_p99_ms /
// fanout_p99_ms), so the comparison shows where the response time goes,
// not just which variant has more of it.
func BenchmarkAblationProtocol(b *testing.B) {
	for _, proto := range []string{"xdgl", "node2pl", "doclock"} {
		b.Run(proto, func(b *testing.B) {
			p := benchParams(proto)
			p.UpdateTxPct = 40
			runProfiledWorkload(b, p)
		})
	}
}

// BenchmarkAblationDeadlockPeriod varies the period of the distributed
// deadlock detector: short periods find cycles quickly but cost messages.
func BenchmarkAblationDeadlockPeriod(b *testing.B) {
	for _, period := range []time.Duration{2 * time.Millisecond, 10 * time.Millisecond, 50 * time.Millisecond} {
		b.Run(period.String(), func(b *testing.B) {
			p := benchParams("xdgl")
			p.UpdateTxPct = 40
			p.DeadlockInterval = period
			runWorkload(b, p)
		})
	}
}

// BenchmarkAblationLatency varies the synthetic network latency,
// quantifying the communication/synchronisation overhead argument of Fig. 9
// (and the WAN direction of the paper's future work).
func BenchmarkAblationLatency(b *testing.B) {
	for _, lat := range []time.Duration{0, 200 * time.Microsecond, 2 * time.Millisecond} {
		b.Run(lat.String(), func(b *testing.B) {
			p := benchParams("xdgl")
			p.Latency = lat
			runWorkload(b, p)
		})
	}
}

// --- Substrate micro-benchmarks ---

func benchDoc(b *testing.B, bytes int) *xmltree.Document {
	b.Helper()
	return xmark.Gen(xmark.Config{TargetBytes: bytes, Seed: 1})
}

func BenchmarkDataGuideBuild(b *testing.B) {
	doc := benchDoc(b, 256<<10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dataguide.Build(doc)
	}
}

func BenchmarkXPathEvalChildAxis(b *testing.B) {
	doc := benchDoc(b, 256<<10)
	q := xpath.MustParse("/site/people/person/name")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		xpath.Eval(q, doc)
	}
}

func BenchmarkXPathEvalDescendantPredicate(b *testing.B) {
	doc := benchDoc(b, 256<<10)
	q := xpath.MustParse("//person[id='7']/emailaddress")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		xpath.Eval(q, doc)
	}
}

// predicateDoc builds an XMark-people-shaped document with exactly n
// persons, its DataGuide, and an attached value index on the "id" key —
// exact extent sizes, unlike dialing xmark.Gen's byte target.
func predicateDoc(b *testing.B, n int) (*xmltree.Document, *dataguide.DataGuide) {
	b.Helper()
	doc := xmltree.NewDocument("pred", "site")
	people := doc.NewElement("people")
	if err := doc.AttachAt(doc.Root, people, xmltree.Into); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		person := doc.NewElement("person")
		if err := doc.AttachAt(people, person, xmltree.Into); err != nil {
			b.Fatal(err)
		}
		for _, kv := range [][2]string{
			{"id", fmt.Sprintf("%d", i)},
			{"name", fmt.Sprintf("name%d", i)},
			{"emailaddress", fmt.Sprintf("mailto:p%d@example.com", i)},
		} {
			c := doc.NewElement(kv[0])
			c.Text = kv[1]
			if err := doc.AttachAt(person, c, xmltree.Into); err != nil {
				b.Fatal(err)
			}
		}
	}
	g := dataguide.Build(doc)
	g.AttachIndex(vindex.New([]string{"id"}))
	g.ReindexAll(doc)
	return doc, g
}

// BenchmarkPredicateQuery — the value-index headline: equality and range
// predicate lookups against extents of 1k/10k/100k persons, indexed (postings
// hit through EvalIndexed) versus the linear extent scan (xpath.Eval). The
// indexed/scan result sets are verified identical before timing.
func BenchmarkPredicateQuery(b *testing.B) {
	for _, extent := range []int{1_000, 10_000, 100_000} {
		doc, g := predicateDoc(b, extent)
		queries := []struct {
			mode string
			q    *xpath.Query
		}{
			// Equality: one hit, landed near the extent's end so the scan
			// can't win by early placement.
			{"eq", xpath.MustParse(fmt.Sprintf("//person[id='%d']/emailaddress", extent-2))},
			// Range: the top ~100 ids, an ordered lookup over the sorted keys.
			{"range", xpath.MustParse(fmt.Sprintf("//person[id>='%d']/emailaddress", extent-100))},
		}
		for _, tc := range queries {
			indexed, ok := g.EvalIndexed(tc.q)
			if !ok {
				b.Fatalf("extent=%d/%s: query not index-eligible", extent, tc.mode)
			}
			scanned := xpath.Eval(tc.q, doc)
			if len(indexed) != len(scanned) || len(scanned) == 0 {
				b.Fatalf("extent=%d/%s: indexed %d nodes, scan %d", extent, tc.mode, len(indexed), len(scanned))
			}
			for i := range indexed {
				if indexed[i] != scanned[i] {
					b.Fatalf("extent=%d/%s: result %d differs", extent, tc.mode, i)
				}
			}
			b.Run(fmt.Sprintf("extent=%d/%s/indexed", extent, tc.mode), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, ok := g.EvalIndexed(tc.q); !ok {
						b.Fatal("index fallback")
					}
				}
			})
			b.Run(fmt.Sprintf("extent=%d/%s/scan", extent, tc.mode), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if len(xpath.Eval(tc.q, doc)) == 0 {
						b.Fatal("no matches")
					}
				}
			})
		}
	}
}

// BenchmarkLockFootprint contrasts the per-operation lock work of the two
// protocols on the same scan — the mechanism behind the paper's overhead
// results: XDGL's lock count is bounded by the DataGuide, Node2PL's grows
// with the result set.
func BenchmarkLockFootprint(b *testing.B) {
	doc := benchDoc(b, 256<<10)
	g := dataguide.Build(doc)
	q := xpath.MustParse("/site/people/person/name")
	for _, tc := range []struct {
		name  string
		proto lock.Protocol
	}{{"xdgl", lock.XDGL{}}, {"node2pl", lock.Node2PL{}}} {
		b.Run(tc.name, func(b *testing.B) {
			tbl := lock.NewTable(g)
			owner := lock.Owner{Txn: txn.ID{Site: 1, Seq: 1}, TS: 1}
			for i := 0; i < b.N; i++ {
				reqs, err := tc.proto.QueryRequests(doc, g, q)
				if err != nil {
					b.Fatal(err)
				}
				if c := tbl.Acquire(owner, reqs); c != nil {
					b.Fatal("unexpected conflict")
				}
				tbl.ReleaseAll(owner.Txn)
			}
		})
	}
}

// BenchmarkQueryCache covers the two structural caches on the query hot
// path: the per-site raw-text parse cache and the DataGuide's memoized
// Targets/PredicateNodes (hits validated against the guide's structural
// version). The miss cases are the former per-operation costs.
func BenchmarkQueryCache(b *testing.B) {
	doc := benchDoc(b, 256<<10)
	g := dataguide.Build(doc)
	const raw = "//person[id='7']/emailaddress"
	b.Run("parse-miss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := xpath.Parse(raw); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parse-hit", func(b *testing.B) {
		cache := xpath.NewCache(0)
		if _, err := cache.Get(raw); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cache.Get(raw); err != nil {
				b.Fatal(err)
			}
		}
	})
	q := xpath.MustParse(raw)
	b.Run("targets-miss", func(b *testing.B) {
		// A repeated query shape hits the memo, so cycle through more shapes
		// than the memo holds (1024): every lookup misses. The shapes differ
		// only in a child predicate no person has — one map probe each — and
		// the guide stays stationary across iterations.
		shapes := make([]*xpath.Query, 2048)
		for i := range shapes {
			shapes[i] = xpath.MustParse(fmt.Sprintf("//person[miss%d='7']/emailaddress", i))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if g.Targets(shapes[i%len(shapes)]) == nil {
				b.Fatal("no targets")
			}
		}
	})
	b.Run("targets-hit", func(b *testing.B) {
		g.Targets(q) // warm
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if g.Targets(q) == nil {
				b.Fatal("no targets")
			}
		}
	})
}

// BenchmarkCheckpoint is one checkpoint of a 64KB document: the published
// committed version saved to a FileStore with its log index. A site pays it
// once per 64 commits, not per commit.
func BenchmarkCheckpoint(b *testing.B) {
	st, err := store.NewFileStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	chain := mvcc.NewChain(mvcc.Options{})
	chain.Publish(benchDoc(b, 64<<10).Snapshot(), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		head := chain.Pin(1)
		image := head.Doc
		chain.Unpin(head)
		if err := st.SaveAt(image, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJournalIntentOps is what a commit pays for durability: one
// fsynced journal append of an intent carrying the commit's applied
// operation.
func BenchmarkJournalIntentOps(b *testing.B) {
	journal, err := store.OpenJournal(filepath.Join(b.TempDir(), "commit.log"))
	if err != nil {
		b.Fatal(err)
	}
	defer journal.Close()
	op := txn.NewUpdate("d", &xupdate.Update{Kind: xupdate.Change, Target: "/site/people/person[1]/name", Value: "Bench"})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := txn.ID{Site: 0, Seq: int64(i + 1)}
		rec := store.ReplRecord{Index: int64(i + 1), Txn: id, TS: txn.TS(i + 1), Ops: []txn.Operation{op}}
		if err := journal.LogIntent(id.String(), []string{"d"}, rec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTCPExchange is one scheduler round trip over loopback TCP: an
// ExecOpReq carrying a Change update, answered by an ExecOpResp with three
// results. It measures the codec, the framing and the socket, with no
// scheduler behind them.
func BenchmarkTCPExchange(b *testing.B) {
	resp := transport.ExecOpResp{Executed: true, AcquireLocking: true,
		Results: []string{"<current>42.00</current>", "<current>17.50</current>", "<current>9.00</current>"}}
	server, err := transport.ListenTCP(2, "127.0.0.1:0", transport.HandlerFunc(func(int, any) (any, error) { return resp, nil }))
	if err != nil {
		b.Fatal(err)
	}
	defer server.Close()
	client, err := transport.ListenTCP(1, "127.0.0.1:0", transport.HandlerFunc(func(int, any) (any, error) { return nil, nil }))
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	client.SetPeer(2, server.Addr())
	req := transport.ExecOpReq{Txn: txn.ID{Site: 1, Seq: 1}, TS: 1,
		Op: txn.NewUpdate("x", &xupdate.Update{Kind: xupdate.Change, Target: "/site/open_auctions/open_auction[1]/current", Value: "42.00"})}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Send(context.Background(), 2, req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUpdateApplyUndo(b *testing.B) {
	doc := benchDoc(b, 64<<10)
	g := dataguide.Build(doc)
	u := &xupdate.Update{Kind: xupdate.Insert, Target: "/site/people", Pos: xmltree.Into,
		New: &xupdate.NodeSpec{Name: "person", Children: []*xupdate.NodeSpec{
			{Name: "id", Text: "bench"}, {Name: "name", Text: "Bench"},
		}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, _, err := xupdate.Apply(u, doc, g)
		if err != nil {
			b.Fatal(err)
		}
		if err := rec.Undo(doc, g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFragmentDocument(b *testing.B) {
	doc := benchDoc(b, 256<<10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := replica.FragmentDocument(doc, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSingleSiteTxn is one read-modify-write transaction on a 64 KB
// document at one in-memory site, the shape every workload runs: a query,
// then a change. point-query reads one leaf of one auction (a positional
// path, one result); scan-query reads the current price of every open
// auction (a descendant scan, many results).
func BenchmarkSingleSiteTxn(b *testing.B) {
	for _, tc := range []struct{ name, query string }{
		{"point-query", "/site/people/person[1]/name"},
		{"scan-query", "//open_auction/current"},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cluster, err := New(Config{Sites: 1})
			if err != nil {
				b.Fatal(err)
			}
			defer cluster.Close()
			doc := benchDoc(b, 64<<10)
			if err := cluster.LoadXML("x", doc.String()); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := cluster.Submit(0,
					Query("x", tc.query),
					Change("x", "/site/open_auctions/open_auction[1]/current", "42.00"),
				)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Committed {
					b.Fatal("txn did not commit")
				}
			}
		})
	}
}

// BenchmarkQueryDocSize is one read-only query transaction on a journaled
// site against documents of growing size: a predicate-free child path, a
// descendant scan, the workloads' positional point read down child steps and
// one down a descendant step, and the value point lookup answered by scanning
// (predicate) and from an "id" value index (indexed). A query should cost
// what its result costs — the child and descendant results grow with the
// document, the point reads do not; the descendant scan walks only the
// section the DataGuide's summary says can match.
func BenchmarkQueryDocSize(b *testing.B) {
	pointLookup := xmark.PredicateQueryFor("people", 7)
	for _, size := range []struct {
		name  string
		bytes int
	}{{"64K", 64 << 10}, {"1M", 1 << 20}, {"4M", 4 << 20}} {
		b.Run(size.name, func(b *testing.B) {
			xml := benchDoc(b, size.bytes).String()
			load := func(keys []string) *Cluster {
				cluster, err := New(Config{Sites: 1, StoreDir: b.TempDir(), IndexedKeys: keys})
				if err != nil {
					b.Fatal(err)
				}
				b.Cleanup(cluster.Close)
				if err := cluster.LoadXML("x", xml); err != nil {
					b.Fatal(err)
				}
				return cluster
			}
			scanned, indexed := load(nil), load([]string{"id"})
			for _, tc := range []struct {
				name, query string
				cluster     *Cluster
			}{
				{"child", "/site/people/person/name", scanned},
				{"descendant", "//open_auction/current", scanned},
				{"positional", "/site/people/person[7]/name", scanned},
				{"descendant-positional", "//person[7]/name", scanned},
				{"predicate", pointLookup, scanned},
				{"indexed", pointLookup, indexed},
			} {
				b.Run(tc.name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						res, err := tc.cluster.Submit(0, Query("x", tc.query))
						if err != nil {
							b.Fatal(err)
						}
						if !res.Committed || len(res.Results[0]) == 0 {
							b.Fatalf("query %s: committed=%v results=%v", tc.query, res.Committed, res.Results)
						}
					}
					if tc.cluster != indexed {
						return
					}
					reg, err := indexed.Metrics(0)
					if err != nil {
						b.Fatal(err)
					}
					if n, err := reg.Count("dtx_indexed_queries_total"); err != nil || n == 0 {
						b.Fatalf("indexed variant never answered from the value index (%d, %v)", n, err)
					}
				})
			}
		})
	}
}

// BenchmarkTxnDocSize is one single-site write transaction — one change, on a
// journaled site — against documents of growing size. The commit path is
// meant to cost O(change): a checkpoint comes due once the journal since the
// image is as large as the image, so each commit pays a share of the tree
// copy in proportion to its record, not to the document, and the target
// path's positional step ends at its first match.
func BenchmarkTxnDocSize(b *testing.B) {
	for _, size := range []struct {
		name  string
		bytes int
	}{{"64K", 64 << 10}, {"1M", 1 << 20}, {"4M", 4 << 20}} {
		b.Run(size.name, func(b *testing.B) {
			cluster, err := New(Config{Sites: 1, StoreDir: b.TempDir()})
			if err != nil {
				b.Fatal(err)
			}
			defer cluster.Close()
			if err := cluster.LoadXML("x", benchDoc(b, size.bytes).String()); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := cluster.Submit(0,
					Change("x", "/site/open_auctions/open_auction[1]/current", "42.00"),
				)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Committed {
					b.Fatal("txn did not commit")
				}
			}
		})
	}
}

// BenchmarkObsOverhead measures the observability layer's cost on the
// distributed-commit hot path: the same transaction as BenchmarkDistributedTxn
// with the metrics registry unarmed (the default — every histogram observation
// and span gated off behind one atomic load) and armed (all latency
// histograms live, the state a scraped site runs in). Gated in CI as a
// hot-path benchmark: the off variant is the zero-overhead contract.
func BenchmarkObsOverhead(b *testing.B) {
	for _, armed := range []bool{false, true} {
		mode := "off"
		if armed {
			mode = "armed"
		}
		b.Run(mode, func(b *testing.B) {
			cluster, err := New(Config{Sites: 2})
			if err != nil {
				b.Fatal(err)
			}
			defer cluster.Close()
			doc := benchDoc(b, 64<<10)
			if err := cluster.LoadXML("x", doc.String()); err != nil {
				b.Fatal(err)
			}
			if armed {
				for site := 0; site < 2; site++ {
					reg, err := cluster.Metrics(site)
					if err != nil {
						b.Fatal(err)
					}
					reg.Arm()
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := cluster.Submit(0,
					Change("x", "/site/open_auctions/open_auction[1]/current", "42.00"),
				)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Committed {
					b.Fatal("txn did not commit")
				}
			}
		})
	}
}

func BenchmarkDistributedTxn(b *testing.B) {
	cluster, err := New(Config{Sites: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	doc := benchDoc(b, 64<<10)
	if err := cluster.LoadXML("x", doc.String()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cluster.Submit(0,
			Change("x", "/site/open_auctions/open_auction[1]/current", "42.00"),
		)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Committed {
			b.Fatal("txn did not commit")
		}
	}
}

// BenchmarkDistributedQuery is one locked five-query read transaction over a
// 256 KB XMark document held at all three sites: the fan-out layer's hot
// path. Site 0 coordinates and is the document's read site, so every query
// locks and evaluates there and the transaction sends no message.
func BenchmarkDistributedQuery(b *testing.B) {
	cluster, err := New(Config{Sites: 3})
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	doc := benchDoc(b, 256<<10)
	if err := cluster.LoadXML("x", doc.String()); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	sections := xmark.Sections(doc)
	ops := make([]Op, 5)
	for i := range ops {
		ops[i] = Query("x", xmark.QueryFor(sections[rng.Intn(len(sections))], rng))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cluster.Submit(0, ops...)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Committed {
			b.Fatal("txn did not commit")
		}
	}
}
