package harness

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lock"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/txn"
	"repro/internal/xmark"
	"repro/internal/xmltree"
)

// Params are the workload dials of the paper's experiments (§3.2): "each
// client contains 5 transactions with 5 operations each", update-transaction
// and update-operation percentages, base size, number of sites and clients,
// and the replication mode.
type Params struct {
	Sites       int
	Clients     int
	TxPerClient int
	OpsPerTx    int
	// UpdateTxPct is the percentage of transactions that are update
	// transactions; UpdateOpPct is the percentage of update operations
	// inside an update transaction (the paper fixes this at 20%).
	UpdateTxPct int
	UpdateOpPct int
	// ReadOnlyPct is the percentage of transactions submitted as read-only
	// snapshot transactions (SubmitReadOnlyCtx): all-query, served from the
	// MVCC version chains with no locks and no wait-for edges. The rest
	// follow UpdateTxPct on the locking path. The extra random draw happens
	// only when this knob is set, so zero preserves the exact workloads of
	// earlier seeds.
	ReadOnlyPct int
	// HotDocZipf, when > 1, skews the per-operation document choice with a
	// Zipf distribution (parameter s = HotDocZipf) over the document list,
	// making document 0 the hot document — the contention dial for
	// reader-versus-writer experiments. ≤ 1 keeps the uniform pick.
	HotDocZipf float64
	// HotKeyZipf, when > 1, skews the per-operation section choice inside the
	// picked document with a Zipf distribution (parameter s = HotKeyZipf),
	// making the document's first section hot — the intra-document contention
	// dial the adaptive scheduler reacts to. ≤ 1 keeps the uniform pick. The
	// skew generator replaces (never adds to) the uniform section draw, and
	// is only built when the knob is set, so zero preserves the exact
	// workloads of earlier seeds.
	HotKeyZipf float64
	// AnalyticsPct is the percentage of read transactions issued as analytics
	// transactions: every operation is a whole-section descendant scan
	// (xmark.ScanQueryFor) instead of the OLTP query mix. Under fine-grained
	// protocols those scans take wide read-lock sets and collide with every
	// writer in the section — the mixed OLTP/analytics dial for adaptive
	// scenarios. The extra random draw happens only when this knob is set.
	AnalyticsPct int
	// BaseBytes is the generated database size in bytes (the paper's MB
	// dial, scaled down: the in-process substrate keeps ratios, not
	// absolute sizes).
	BaseBytes int
	// Docs is the number of independently generated base documents (each of
	// BaseBytes), default 1. Every document is its own scheduling domain at
	// a site, so spreading one workload over several documents measures the
	// per-document scaling of the scheduler. Clients pick a document
	// uniformly per operation.
	Docs int
	// Partial selects partial replication (size-balanced fragments, one
	// site each) instead of total replication (every document everywhere).
	Partial bool
	// Protocol is "xdgl", "node2pl" or "doclock" — or "adaptive", which
	// starts every document under node2pl and lets the run-time policy
	// (sched.AdaptiveConfig) move it along the granularity ladder from
	// observed contention.
	Protocol string
	// AdaptiveWindow overrides the adaptive policy's sampling window
	// (Protocol "adaptive" only; zero keeps the scheduler default).
	AdaptiveWindow time.Duration
	// Latency is the synthetic one-way network latency between sites.
	Latency time.Duration
	// OpDelay is the client think time between operations.
	OpDelay time.Duration
	// DeadlockInterval is the period of the distributed deadlock detector.
	DeadlockInterval time.Duration
	// Seed makes the workload deterministic.
	Seed int64
	// CheckSerializability attaches the history recorder and verifies the
	// committed history after the run (slows large runs slightly).
	CheckSerializability bool
	// VictimOldest flips the deadlock victim rule to oldest-in-cycle (the
	// paper's rule is newest); an ablation knob.
	VictimOldest bool
	// Heartbeat enables failure detection with the given period (zero
	// disables it, the default). Required for Crash runs: it is what lets
	// the surviving sites detect the kill, resolve the victim's orphaned
	// transactions and route reads around it.
	Heartbeat time.Duration
	// Crash injects a crash-point fault: the chosen 2PC stage's Nth firing
	// at the chosen site kills that site abruptly mid-run (sched.CrashHooks
	// wired by BuildCluster). The workload keeps running against the
	// survivors; the run's Result then reflects the failure blast radius —
	// the class of chaos scenario the throughput benchmarks cannot reach.
	Crash *CrashSpec
	// Replication selects the write-replication mode ("" / "eager" /
	// "quorum", sched.Config.Replication) and WriteQuorum the ack threshold
	// in quorum mode (zero = majority).
	Replication string
	WriteQuorum int
	// ReplApplyLag injects a fixed delay at every follower before it applies
	// a shipped replication span (sched.CrashHooks.BeforeReplApply, armed at
	// EVERY site) — the fault-injection dial for bounded-staleness and
	// quorum-under-lag chaos runs.
	ReplApplyLag time.Duration
	// ValuePredPct is the percentage of read operations issued as value
	// point lookups (xmark.PredicateQueryFor — an equality predicate over the
	// section's id key) instead of the structural query mix. The extra
	// random draws happen only when this knob is set, so zero preserves the
	// exact workloads of earlier seeds.
	ValuePredPct int
	// ValueZipf, when > 1, skews the looked-up id with a Zipf distribution
	// (parameter s = ValueZipf) over the id domain, making low ids hot — the
	// skew dial for index-hit-rate experiments. ≤ 1 keeps the uniform pick.
	ValueZipf float64
	// IndexedKeys and AutoIndexAfter configure each site's value indexes
	// (sched.Config.IndexedKeys / AutoIndexAfter): pre-declared keys and the
	// scan-miss threshold for auto-indexing. Empty/zero disables indexing.
	IndexedKeys    []string
	AutoIndexAfter int
	// LatencyProfile arms every site's metrics registry and attaches a
	// per-phase latency breakdown (p50/p99 lock-wait, operation execute, 2PC
	// phases, persist Save) to the Result — the registry-backed view of where
	// a run's response time went. Off by default: arming enables the gated
	// histogram observations on every hot path.
	LatencyProfile bool
}

// CrashStage names a 2PC stage boundary a CrashSpec can target.
type CrashStage string

// Crash stages, in protocol order.
const (
	// CrashBeforeDecision kills a coordinator after its transaction
	// executed everywhere, before the commit decision record.
	CrashBeforeDecision CrashStage = "before-decision"
	// CrashAfterDecision kills a coordinator between its durable decision
	// record and the commit fan-out.
	CrashAfterDecision CrashStage = "after-decision"
	// CrashBeforeIntent kills a participant as a consolidation request
	// arrives, before its journal intent record.
	CrashBeforeIntent CrashStage = "before-intent"
	// CrashAfterIntent kills a participant right after its intent record is
	// durable: committed in its log, in no checkpoint yet.
	CrashAfterIntent CrashStage = "after-intent"
	// CrashMidCheckpoint kills a site inside a checkpoint, after the
	// committed image is picked and before its Store write.
	CrashMidCheckpoint CrashStage = "mid-checkpoint"
	// CrashBeforeSwitch kills a site at an adaptive protocol switch's
	// quiescent point: the document's lock table is drained and admissions
	// are blocked, but the new protocol is not yet installed. Protocol
	// choice is never persisted, so the restarted site must come back under
	// the configured default.
	CrashBeforeSwitch CrashStage = "before-switch"
)

// CrashSpec selects a crash point: the (After+1)th firing of Stage at Site
// kills the site.
type CrashSpec struct {
	Site  int
	Stage CrashStage
	After int
}

func (p Params) withDefaults() Params {
	if p.Sites <= 0 {
		p.Sites = 4
	}
	if p.Clients <= 0 {
		p.Clients = 10
	}
	if p.TxPerClient <= 0 {
		p.TxPerClient = 5
	}
	if p.OpsPerTx <= 0 {
		p.OpsPerTx = 5
	}
	if p.UpdateOpPct <= 0 {
		p.UpdateOpPct = 20
	}
	if p.BaseBytes <= 0 {
		p.BaseBytes = 128 << 10
	}
	if p.Docs <= 0 {
		p.Docs = 1
	}
	if p.Protocol == "" {
		p.Protocol = "xdgl"
	}
	if p.DeadlockInterval <= 0 {
		p.DeadlockInterval = 10 * time.Millisecond
	}
	return p
}

// Result aggregates the metrics of one run — the quantities the paper's
// figures plot.
type Result struct {
	Params    Params
	Total     int
	Committed int
	Aborted   int
	Failed    int
	// Deadlocks counts transactions aborted as deadlock victims, the
	// paper's "number of deadlocks".
	Deadlocks int
	// Response-time statistics over committed transactions, in
	// milliseconds (the paper reports mean response time).
	MeanRespMs float64
	P95RespMs  float64
	// Wall is the wall-clock duration of the whole run.
	Wall time.Duration
	// CommitTimes are offsets from run start of every commit, sorted — the
	// raw series behind Fig. 12's "transactions consolidated at each time
	// interval".
	CommitTimes []time.Duration
	// ThroughputTPS is committed transactions per wall-clock second.
	ThroughputTPS float64
	// ReadOnlyCommitted counts committed read-only snapshot transactions (a
	// subset of Committed); ReadOnlyAborted the ones that did not commit.
	ReadOnlyCommitted int
	ReadOnlyAborted   int
	// SnapshotReads and SnapshotPublishes aggregate the per-site MVCC
	// counters: queries served from pinned versions, and version
	// materialisations.
	SnapshotReads     int64
	SnapshotPublishes int64
	// IndexedQueries aggregates the per-site count of queries answered from
	// a value index instead of an extent scan.
	IndexedQueries int64
	// ProtocolSwitches aggregates the per-site count of completed adaptive
	// protocol switches (zero unless Protocol is "adaptive").
	ProtocolSwitches int64
	// Breakdown is the per-phase latency view, filled when
	// Params.LatencyProfile armed the registries.
	Breakdown *LatencyBreakdown
}

// PhaseLatency is one phase's merged-across-sites latency quantiles, in
// milliseconds. NaN-free: phases with no observations report zero.
type PhaseLatency struct {
	P50Ms float64
	P99Ms float64
}

// LatencyBreakdown decomposes a run's response time into the instrumented
// phases, computed from the sites' metric registries (obs.Quantile over the
// merged histograms of every site, and every document for the per-document
// families).
type LatencyBreakdown struct {
	LockWait      PhaseLatency // blocked-on-lock time per granted wait
	Exec          PhaseLatency // per-operation execute (grant + apply)
	DecisionWrite PhaseLatency // 2PC durable decision record
	CommitFanout  PhaseLatency // 2PC commit fan-out to participants
	QuorumAck     PhaseLatency // quorum-replication ack wait (quorum mode)
	PersistSave   PhaseLatency // background Store.Save
}

// DocInfo describes one targetable document: its name and the workload
// sections it holds, so the client simulator routes operations to documents
// that contain the data they touch (the fragmentation-predicate role).
type DocInfo struct {
	Name     string
	Sections []string
}

// Cluster is a running DTX deployment plus the routing information the
// client simulator needs.
type Cluster struct {
	Sites   []*sched.Site
	Network *transport.Network
	Docs    []DocInfo // documents clients may target
	catalog *replica.Catalog

	// Crash-run scratch state: the victim's throwaway journal directory,
	// removed on Stop (the journal itself is closed by its site).
	journalDir string
}

// Stop shuts the cluster down.
func (c *Cluster) Stop() {
	for _, s := range c.Sites {
		s.Stop()
	}
	if c.journalDir != "" {
		os.RemoveAll(c.journalDir)
	}
}

// BuildCluster constructs the deployment for the given parameters: sites,
// protocol, catalog, network (with latency), data generation and
// allocation. The returned cluster is ready to accept transactions.
func BuildCluster(p Params, hook sched.HistoryHook) (*Cluster, error) {
	p = p.withDefaults()
	base, adaptive := p.Protocol, false
	if base == "adaptive" {
		// Adaptive runs start every document on the ladder's middle rung and
		// let the policy climb toward xdgl or descend toward doclock from
		// observed contention.
		base, adaptive = "node2pl", true
	}
	proto, err := lock.ByName(base)
	if err != nil {
		return nil, err
	}
	net := transport.NewNetwork()
	net.SetLatency(p.Latency)
	catalog := replica.NewCatalog()
	ids := make([]int, p.Sites)
	for i := range ids {
		ids[i] = i
	}
	sites := make([]*sched.Site, p.Sites)
	cluster := &Cluster{Sites: sites, Network: net, catalog: catalog}
	var crashHooks *sched.CrashHooks
	if p.Crash != nil {
		crashHooks = &sched.CrashHooks{}
	}
	for i := range sites {
		cfg := sched.Config{
			SiteID:            i,
			Sites:             ids,
			Protocol:          proto,
			Catalog:           catalog,
			DeadlockInterval:  p.DeadlockInterval,
			OpDelay:           p.OpDelay,
			History:           hook,
			VictimOldest:      p.VictimOldest,
			HeartbeatInterval: p.Heartbeat,
			HeartbeatMisses:   2,
			Replication:       p.Replication,
			WriteQuorum:       p.WriteQuorum,
			IndexedKeys:       p.IndexedKeys,
			AutoIndexAfter:    p.AutoIndexAfter,
			Adaptive:          sched.AdaptiveConfig{Enabled: adaptive, Window: p.AdaptiveWindow},
		}
		if p.ReplApplyLag > 0 {
			// Each site gets its own hook struct: the crash victim's kill
			// closures must not be shared with the other sites.
			cfg.Hooks = &sched.CrashHooks{BeforeReplApply: func(string, int) { time.Sleep(p.ReplApplyLag) }}
		}
		if p.Crash != nil && i == p.Crash.Site {
			journal, dir, err := journalFor(i)
			if err != nil {
				return nil, err
			}
			cfg.Journal = journal
			cluster.journalDir = dir
			if cfg.Hooks != nil {
				crashHooks.BeforeReplApply = cfg.Hooks.BeforeReplApply
			}
			cfg.Hooks = crashHooks
		}
		sites[i] = sched.New(cfg)
		if p.LatencyProfile {
			sites[i].Metrics().Arm()
		}
		if err := sites[i].AttachNetwork(net); err != nil {
			return nil, err
		}
	}
	if p.Crash != nil {
		armCrash(p.Crash, crashHooks, sites)
	}

	bases := make([]*xmltree.Document, p.Docs)
	for d := range bases {
		name := "xmark"
		if p.Docs > 1 {
			name = fmt.Sprintf("xmark%d", d)
		}
		bases[d] = xmark.Gen(xmark.Config{Name: name, TargetBytes: p.BaseBytes, Seed: p.Seed + int64(d)*271})
	}
	var docs []DocInfo
	if p.Partial {
		perSite, err := replica.AllocatePartial(catalog, bases, p.Sites)
		if err != nil {
			return nil, err
		}
		for siteID, frags := range perSite {
			for _, fd := range frags {
				if err := sites[siteID].AddDocument(fd); err != nil {
					return nil, err
				}
				docs = append(docs, DocInfo{Name: fd.Name, Sections: xmark.Sections(fd)})
			}
		}
		sort.Slice(docs, func(i, j int) bool { return docs[i].Name < docs[j].Name })
	} else {
		for _, base := range bases {
			for _, s := range sites {
				if err := s.AddDocument(base.Clone()); err != nil {
					return nil, err
				}
			}
			docs = append(docs, DocInfo{Name: base.Name, Sections: xmark.Sections(base)})
		}
	}
	cluster.Docs = docs
	return cluster, nil
}

// journalFor opens a throwaway journal for the crash victim: the intent
// hooks only exist on the journaled commit path, and a site without a
// journal takes no checkpoint mid-run. The directory is removed by
// Cluster.Stop.
func journalFor(site int) (*store.Journal, string, error) {
	dir, err := os.MkdirTemp("", "dtx-crash")
	if err != nil {
		return nil, "", fmt.Errorf("harness: crash journal: %w", err)
	}
	j, err := store.OpenJournal(filepath.Join(dir, fmt.Sprintf("site%d.log", site)))
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", fmt.Errorf("harness: crash journal: %w", err)
	}
	return j, dir, nil
}

// armCrash installs the kill closure for the configured stage: the
// (After+1)th firing at the victim site crashes it.
func armCrash(spec *CrashSpec, hooks *sched.CrashHooks, sites []*sched.Site) {
	if spec.Site < 0 || spec.Site >= len(sites) {
		return
	}
	victim := sites[spec.Site]
	var n int64
	fire := func() {
		if atomic.AddInt64(&n, 1) == int64(spec.After)+1 {
			victim.Kill()
		}
	}
	switch spec.Stage {
	case CrashBeforeDecision:
		hooks.BeforeDecision = func(txn.ID) { fire() }
	case CrashAfterDecision:
		hooks.AfterDecision = func(txn.ID) { fire() }
	case CrashBeforeIntent:
		hooks.BeforeIntent = func(txn.ID, []string) { fire() }
	case CrashAfterIntent:
		hooks.AfterIntent = func(txn.ID, []string) { fire() }
	case CrashMidCheckpoint:
		hooks.BeforeCheckpoint = func(string) { fire() }
	case CrashBeforeSwitch:
		hooks.BeforeProtocolSwitch = func(string, string, string) { fire() }
	}
}

// Run executes the DTXTester workload against a fresh cluster and collects
// metrics. Aborted transactions are not resubmitted, matching the paper
// ("it is the responsibility of the application client to decide if it
// resubmits").
func Run(p Params) (*Result, error) {
	return RunCtx(context.Background(), p)
}

// RunCtx is Run bounded by a context: when it is cancelled, in-flight
// transactions abort (releasing their locks) and clients stop submitting,
// so a runaway experiment can be cut short cleanly.
func RunCtx(ctx context.Context, p Params) (*Result, error) {
	p = p.withDefaults()
	var hook *History
	var schedHook sched.HistoryHook
	if p.CheckSerializability {
		hook = NewHistory()
		schedHook = hook
	}
	cluster, err := BuildCluster(p, schedHook)
	if err != nil {
		return nil, err
	}
	defer cluster.Stop()
	res := RunOn(ctx, cluster, p)
	if hook != nil {
		if err := hook.CheckSerializable(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// RunOn drives the workload clients against an existing cluster and
// aggregates metrics. RunCtx composes it with BuildCluster; chaos tests
// call it directly, keeping the cluster handle so they can inspect (or
// kill) individual sites around the run.
func RunOn(ctx context.Context, cluster *Cluster, p Params) *Result {
	p = p.withDefaults()
	res := &Result{Params: p, Total: p.Clients * p.TxPerClient}
	var latencies []time.Duration
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < p.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(p.Seed + int64(c)*7919))
			site := cluster.Sites[c%len(cluster.Sites)]
			// Zipf-skewed document choice (optional): the generator is per
			// client and fed from the client's own seeded rng, so runs stay
			// deterministic. rand.NewZipf requires s > 1.
			var zipf *rand.Zipf
			if p.HotDocZipf > 1 && len(cluster.Docs) > 1 {
				zipf = rand.NewZipf(rng, p.HotDocZipf, 1, uint64(len(cluster.Docs)-1))
			}
			pick := func() DocInfo {
				if zipf != nil {
					return cluster.Docs[zipf.Uint64()]
				}
				return cluster.Docs[rng.Intn(len(cluster.Docs))]
			}
			// Value skew for point lookups, same per-client determinism as the
			// document Zipf. Only consulted when ValuePredPct fires, so runs
			// with the knob off draw nothing extra from the rng stream.
			var valZipf *rand.Zipf
			if p.ValuePredPct > 0 && p.ValueZipf > 1 {
				valZipf = rand.NewZipf(rng, p.ValueZipf, 1, xmark.PredicateQueryRange-1)
			}
			pickVal := func() int64 {
				if valZipf != nil {
					return int64(valZipf.Uint64())
				}
				return int64(rng.Intn(xmark.PredicateQueryRange))
			}
			// Hot-key skew over the sections of the picked document. The Zipf
			// generator replaces the uniform section draw (one draw either
			// way), keeping the rest of the client's rng stream aligned with
			// unskewed runs of the same seed.
			var secZipf *rand.Zipf
			if p.HotKeyZipf > 1 {
				secZipf = rand.NewZipf(rng, p.HotKeyZipf, 1, 255)
			}
			pickSection := func(doc DocInfo) string {
				if len(doc.Sections) == 0 {
					return "people"
				}
				if secZipf != nil {
					return doc.Sections[int(secZipf.Uint64())%len(doc.Sections)]
				}
				return doc.Sections[rng.Intn(len(doc.Sections))]
			}
			for t := 0; t < p.TxPerClient; t++ {
				if ctx.Err() != nil {
					return
				}
				readOnly := p.ReadOnlyPct > 0 && rng.Intn(100) < p.ReadOnlyPct
				ops := buildTxn(p, readOnly, pick, pickVal, pickSection, rng, int64(c)*1000+int64(t))
				t0 := time.Now()
				var r *sched.Result
				var err error
				if readOnly {
					r, err = site.SubmitReadOnlyCtx(ctx, ops)
				} else {
					r, err = site.SubmitCtx(ctx, ops)
				}
				lat := time.Since(t0)
				mu.Lock()
				if err != nil {
					res.Failed++
					mu.Unlock()
					continue
				}
				switch r.State {
				case txn.Committed:
					res.Committed++
					if readOnly {
						res.ReadOnlyCommitted++
					}
					res.CommitTimes = append(res.CommitTimes, time.Since(start))
					latencies = append(latencies, lat)
					res.MeanRespMs += float64(lat.Microseconds()) / 1000.0
				case txn.Aborted:
					res.Aborted++
					if readOnly {
						res.ReadOnlyAborted++
					}
				default:
					res.Failed++
					if readOnly {
						res.ReadOnlyAborted++
					}
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	res.Wall = time.Since(start)

	// Per-site stats: deadlock-victim aborts and MVCC snapshot counters.
	for _, s := range cluster.Sites {
		st := s.Stats()
		res.Deadlocks += int(st.DeadlockAborts)
		res.SnapshotReads += st.SnapshotReads
		res.SnapshotPublishes += st.SnapshotPublishes
		res.IndexedQueries += st.IndexedQueries
		res.ProtocolSwitches += st.ProtocolSwitches
	}
	if res.Committed > 0 {
		res.MeanRespMs /= float64(res.Committed)
		res.ThroughputTPS = float64(res.Committed) / res.Wall.Seconds()
	}
	sort.Slice(res.CommitTimes, func(i, j int) bool { return res.CommitTimes[i] < res.CommitTimes[j] })
	res.P95RespMs = p95(latencies)
	if p.LatencyProfile {
		res.Breakdown = collectBreakdown(cluster)
	}
	return res
}

// collectBreakdown merges each phase's histograms across every site (and
// every document, for the per-document families) and reads the p50/p99
// quantiles. Registry accessors are get-or-return, so looking a family up by
// its exposition name yields the very histograms the schedulers observe into.
func collectBreakdown(cluster *Cluster) *LatencyBreakdown {
	var lockWait, exec, decision, fanout, quorum, persist []*obs.Histogram
	for _, s := range cluster.Sites {
		reg := s.Metrics()
		lockWait = append(lockWait, reg.HistogramVec("dtx_lock_wait_seconds", "", "doc", obs.LatencyBuckets).Children()...)
		exec = append(exec, reg.HistogramVec("dtx_op_exec_seconds", "", "doc", obs.LatencyBuckets).Children()...)
		decision = append(decision, reg.Histogram("dtx_2pc_decision_write_seconds", "", obs.LatencyBuckets))
		fanout = append(fanout, reg.Histogram("dtx_2pc_commit_fanout_seconds", "", obs.LatencyBuckets))
		quorum = append(quorum, reg.Histogram("dtx_2pc_quorum_ack_seconds", "", obs.LatencyBuckets))
		persist = append(persist, reg.HistogramVec("dtx_persist_save_seconds", "", "doc", obs.LatencyBuckets).Children()...)
	}
	return &LatencyBreakdown{
		LockWait:      phaseLatency(lockWait),
		Exec:          phaseLatency(exec),
		DecisionWrite: phaseLatency(decision),
		CommitFanout:  phaseLatency(fanout),
		QuorumAck:     phaseLatency(quorum),
		PersistSave:   phaseLatency(persist),
	}
}

// phaseLatency reads p50/p99 in milliseconds from merged histograms,
// mapping the NaN of an unobserved phase to zero.
func phaseLatency(hists []*obs.Histogram) PhaseLatency {
	ms := func(q float64) float64 {
		v := obs.Quantile(q, hists...)
		if math.IsNaN(v) {
			return 0
		}
		return v * 1000
	}
	return PhaseLatency{P50Ms: ms(0.5), P99Ms: ms(0.99)}
}

// p95 returns the 95th-percentile latency in milliseconds.
func p95(latencies []time.Duration) float64 {
	if len(latencies) == 0 {
		return 0
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	idx := len(latencies) * 95 / 100
	if idx >= len(latencies) {
		idx = len(latencies) - 1
	}
	return float64(latencies[idx].Microseconds()) / 1000.0
}

// buildTxn assembles one client transaction per the workload percentages.
// Each operation picks a document (fragment) and then a query or update
// against a section that document actually holds (the section choice — and
// any hot-key skew — lives in pickSection). A read-only transaction is all
// queries; the update draw still happens so the rng stream stays aligned
// across the read-only split. With ValuePredPct set, that share of the reads
// become id point lookups (value picked by pickVal) — the shape the value
// index serves. With AnalyticsPct set, that share of the read transactions
// become whole-section scans.
func buildTxn(p Params, readOnly bool, pick func() DocInfo, pickVal func() int64, pickSection func(DocInfo) string, rng *rand.Rand, uniq int64) []txn.Operation {
	isUpdateTxn := rng.Intn(100) < p.UpdateTxPct && !readOnly
	// Analytics draw only for read transactions, and only when the knob is
	// set — update transactions short-circuit before touching the rng, the
	// same pattern the isUpdateTxn case below uses.
	isAnalyticsTxn := p.AnalyticsPct > 0 && !isUpdateTxn && rng.Intn(100) < p.AnalyticsPct
	ops := make([]txn.Operation, 0, p.OpsPerTx)
	for i := 0; i < p.OpsPerTx; i++ {
		doc := pick()
		section := pickSection(doc)
		switch {
		case isUpdateTxn && rng.Intn(100) < p.UpdateOpPct:
			u := xmark.UpdateFor(section, uniq*100+int64(i), rng)
			ops = append(ops, txn.NewUpdate(doc.Name, u))
		case isAnalyticsTxn:
			ops = append(ops, txn.NewQuery(doc.Name, xmark.ScanQueryFor(section)))
		case p.ValuePredPct > 0 && rng.Intn(100) < p.ValuePredPct:
			ops = append(ops, txn.NewQuery(doc.Name, xmark.PredicateQueryFor(section, pickVal())))
		default:
			ops = append(ops, txn.NewQuery(doc.Name, xmark.QueryFor(section, rng)))
		}
	}
	return ops
}

// String renders the result as one row of a paper-style table.
func (r *Result) String() string {
	row := fmt.Sprintf("clients=%d sites=%d upd%%=%d base=%dKB partial=%v proto=%-7s | resp=%.2fms commits=%d aborts=%d deadlocks=%d tps=%.1f wall=%v",
		r.Params.Clients, r.Params.Sites, r.Params.UpdateTxPct, r.Params.BaseBytes>>10,
		r.Params.Partial, r.Params.Protocol, r.MeanRespMs, r.Committed, r.Aborted,
		r.Deadlocks, r.ThroughputTPS, r.Wall.Round(time.Millisecond))
	if r.Params.ReadOnlyPct > 0 {
		row += fmt.Sprintf(" ro=%d/%d snapreads=%d", r.ReadOnlyCommitted,
			r.ReadOnlyCommitted+r.ReadOnlyAborted, r.SnapshotReads)
	}
	if r.Params.ValuePredPct > 0 || r.IndexedQueries > 0 {
		row += fmt.Sprintf(" idxq=%d", r.IndexedQueries)
	}
	if r.Params.Protocol == "adaptive" {
		row += fmt.Sprintf(" switches=%d", r.ProtocolSwitches)
	}
	if b := r.Breakdown; b != nil {
		row += fmt.Sprintf("\n  phase ms (p50/p99): lock-wait=%.2f/%.2f exec=%.2f/%.2f 2pc-decision=%.2f/%.2f 2pc-fanout=%.2f/%.2f quorum-ack=%.2f/%.2f persist=%.2f/%.2f",
			b.LockWait.P50Ms, b.LockWait.P99Ms, b.Exec.P50Ms, b.Exec.P99Ms,
			b.DecisionWrite.P50Ms, b.DecisionWrite.P99Ms, b.CommitFanout.P50Ms, b.CommitFanout.P99Ms,
			b.QuorumAck.P50Ms, b.QuorumAck.P99Ms, b.PersistSave.P50Ms, b.PersistSave.P99Ms)
	}
	return row
}
