// Package sched implements the DTX instance that runs at every site: the
// Listener, the TransactionManager (Scheduler + LockManager) and the
// DataManager of Fig. 1, together with the six algorithms of §2.3 —
// coordinator transaction processing (Alg. 1), participant remote-operation
// processing (Alg. 2), lock-manager operation processing (Alg. 3),
// distributed deadlock detection (Alg. 4), distributed commit (Alg. 5) and
// distributed abort (Alg. 6).
//
// Concurrency model: the paper's Algorithm 1 is a scheduler loop that
// multiplexes transactions from a queue; here each client transaction runs
// in its submitting goroutine and a per-DOCUMENT mutex serialises that
// document's lock manager, DataGuide and tree, which yields the same
// histories (operations of one transaction are sequential; operations of
// different transactions interleave only at lock-manager granularity) in
// idiomatic Go. Each document is its own scheduling domain: transactions
// touching different documents at one site never contend on a mutex, and a
// checkpoint picks the document's committed image under its lock but
// marshals and writes it to the Store outside it (see persist.go). The slim
// site mutex guards only site-lifecycle state — the clock, transaction
// registries, and the finished-transaction tombstones.
//
// Lock ordering: a docState mutex may be held while taking site.mu or a
// partTxn mutex; neither may be held while taking a docState mutex. The
// partTxn mutex is a leaf. The snapshot-read registry (roMu) may be held
// while taking site.mu; an roPinSet mutex may be held while taking a
// docState mutex; nothing takes roMu while holding site.mu or a docState
// mutex. commitMu is outermost: it may be held while taking a docState mutex
// or site.mu, never the reverse. An mvcc.Chain mutex is a leaf below
// everything.
package sched

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataguide"
	"repro/internal/lock"
	"repro/internal/mvcc"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/txn"
	"repro/internal/vindex"
	"repro/internal/wfg"
	"repro/internal/xmltree"
	"repro/internal/xpath"
	"repro/internal/xupdate"
)

// Config configures one DTX site instance.
type Config struct {
	// SiteID is this site's identifier; transaction IDs embed it, so it
	// doubles as the coordinator address of every transaction started here.
	SiteID int
	// Sites lists every site in the system, for deadlock detection sweeps.
	Sites []int
	// Protocol is the concurrency-control protocol (default XDGL). With the
	// adaptive scheduler enabled it is the protocol every document STARTS
	// under; each document may then move along the granularity ladder at
	// run time (adapt.go).
	Protocol lock.Protocol
	// Adaptive configures run-time adaptive concurrency control: when
	// Enabled, a per-site policy loop samples each document's conflict rate,
	// windowed lock-wait p99 and deadlock rate every Window and switches the
	// document between DocLock, Node2PL and XDGL at quiescent points, with
	// hysteresis (see AdaptiveConfig).
	Adaptive AdaptiveConfig
	// Catalog maps documents to the sites holding replicas.
	Catalog *replica.Catalog
	// Store is the persistence backend (default in-memory).
	Store store.Store
	// DeadlockInterval is the period of the distributed deadlock detector;
	// zero disables the background process (tests drive CheckDeadlocks
	// directly).
	DeadlockInterval time.Duration
	// RetryInterval bounds how long a waiting transaction sleeps before
	// re-attempting lock acquisition if no wake-up arrives (safety net).
	RetryInterval time.Duration
	// OpDelay inserts a pause between consecutive operations of a
	// transaction, modelling client think time. The evaluation workloads
	// use it to create the contention windows the paper's experiments
	// exhibit; tests use it to build deterministic interleavings.
	OpDelay time.Duration
	// History, when set, receives lock-footprint events for offline
	// serializability checking (see internal/harness). All sites of a
	// cluster share one hook so the event order is globally consistent.
	History HistoryHook
	// VictimOldest switches the distributed deadlock victim rule from the
	// paper's "most recent transaction in the circle" to the oldest — an
	// ablation knob; both rules guarantee progress.
	VictimOldest bool
	// Journal, when set, is the site's redo log: every local commit appends
	// one intent carrying its applied operations before it acknowledges, and
	// a restarted site replays the intents its saved documents do not cover
	// — the durability direction of the paper's future work. Without it the
	// site is memory-only: the Store is written on Sync and Stop (persist.go).
	Journal *store.Journal
	// HeartbeatInterval is the period of the liveness heartbeat to every
	// peer site; zero disables failure detection (every peer stays believed
	// Up, the pre-recovery behaviour). With heartbeats on, a peer that
	// misses HeartbeatMisses consecutive rounds is declared Down:
	// participant transactions it coordinated are resolved by the
	// termination protocol, reads route to the surviving replicas of its
	// documents, and writes touching them fail fast with
	// ErrReplicaUnavailable.
	HeartbeatInterval time.Duration
	// HeartbeatMisses is the consecutive-miss threshold before a Suspect
	// peer is declared Down (default 3).
	HeartbeatMisses int
	// SnapshotVersions bounds how many unpinned committed versions each
	// document's MVCC chain keeps materialised for read-only transactions
	// (default mvcc.DefaultMaxVersions). Versions pinned by live readers are
	// always kept; a state the chain lacks is cut from the live tree.
	SnapshotVersions int
	// Replication selects the write-replication mode. The default ("", or
	// ReplicationEager explicitly) keeps the original semantics: every write
	// executes at every replica and a partially-down replica set refuses
	// writes. ReplicationQuorum routes every operation of a read-write
	// transaction to each document's primary (the lowest-numbered catalog
	// site) and replicates committed effects by shipping the replication log
	// to the followers: a commit acknowledges once WriteQuorum replicas have
	// durably acked its records, so a partially-down replica set keeps
	// accepting writes, and lagging followers catch up incrementally from
	// the log. Followers serve snapshot reads within MaxStaleness.
	Replication string
	// WriteQuorum is the number of replicas (the primary included) that must
	// durably ack a commit's replication records before the commit
	// acknowledges in quorum mode; zero selects a majority of each
	// document's replica set.
	WriteQuorum int
	// MaxStaleness bounds how far behind its primary a follower may
	// knowingly lag and still serve snapshot reads in quorum mode (zero
	// selects 1s). A follower past the bound refuses with a retry-at-primary
	// code instead of serving arbitrarily old data.
	MaxStaleness time.Duration
	// ReplHorizon bounds how many replication-log records are retained per
	// document for incremental follower catch-up (zero selects 512); a
	// follower further behind falls back to whole-document transfer.
	ReplHorizon int
	// IndexedKeys lists the value-index keys maintained on every document at
	// this site: "@name" indexes the values of attribute name, a bare name
	// indexes the text of elements with that label (serving [name='v'] child
	// predicates and [text()='v'] on steps named name). Covered equality and
	// range predicates are answered from postings instead of scanning the
	// extent; everything else falls back to the scan.
	IndexedKeys []string
	// AutoIndexAfter, when positive, enables the auto-index heuristic: a
	// key that would have served a predicate but is not indexed is counted
	// on every scan fallback, and after this many misses it is indexed
	// automatically (postings built under the domain mutex on the next
	// locked query). Zero disables the heuristic.
	AutoIndexAfter int
	// Recovering starts the site in recovering state: it answers heartbeats
	// not-ready and refuses operations until FinishRecovery, so peers keep
	// routing around it while internal/recovery replays the journal and
	// catches its documents up.
	Recovering bool
	// Metrics, when set, is the observability registry the site registers its
	// metric families on (internal/obs); nil builds a private unarmed one.
	// The site's counters are always live either way — they back Stats — but
	// histogram/span collection only happens once the registry is armed
	// (dtxd's -metrics-addr listener, a MetricsReq scrape, or the harness's
	// latency breakdown arm it). Unarmed, each would-be observation costs one
	// atomic load.
	Metrics *obs.Registry
	// SlowTxnThreshold is the slow-transaction tracer's emission bound: a
	// transaction whose total time reaches it has its event timeline (begin,
	// per-op lock waits, each 2PC phase, quorum ack, commit) emitted as one
	// JSON line through TraceSink. Tracing is armed when TraceSink is set or
	// the threshold is positive; a set sink with a zero threshold traces
	// every transaction (the debugging mode dtxd's `-slow-txn 0` selects).
	// With both unset (the default) transactions carry no timeline at all.
	SlowTxnThreshold time.Duration
	// TraceSink receives one line of JSON per qualifying slow transaction.
	// It is called synchronously on the transaction's finishing goroutine and
	// must be fast, concurrency-safe and never call back into the site.
	TraceSink func(line string)
	// Hooks are test-only crash-point callbacks (see CrashHooks). Shared by
	// pointer so a harness can install hooks on an already-built site (but
	// never while transactions are in flight).
	Hooks *CrashHooks
}

// CrashHooks are fault-injection callbacks fired at the 2PC stage
// boundaries, for crash tests and the harness's chaos mode. Each hook runs
// outside every scheduler mutex, so a hook may call Site.Kill to simulate a
// crash exactly at that stage; the code after the hook observes the death
// the way it would observe a real one (journal writes fail, the transport
// endpoint is gone, checkpoints are abandoned). Nil hooks cost nothing.
type CrashHooks struct {
	// BeforeDecision fires at the coordinator after every operation
	// executed, before the commit decision record is logged.
	BeforeDecision func(id txn.ID)
	// AfterDecision fires at the coordinator once the decision record is
	// durable, before the commit fan-out.
	AfterDecision func(id txn.ID)
	// BeforeIntent fires in commitLocal before the journal intent record.
	BeforeIntent func(id txn.ID, docs []string)
	// AfterIntent fires in commitLocal once the intent record is durable,
	// before the commit is acknowledged — durable in the log, in no
	// checkpoint yet.
	AfterIntent func(id txn.ID, docs []string)
	// BeforeCheckpoint fires in the checkpointer after the committed image
	// is picked, before the Store write — the "mid-checkpoint" crash point.
	BeforeCheckpoint func(doc string)
	// BeforeReplApply fires at a follower when a shipped replication-log
	// span for doc arrives from site from, after the follower has recorded
	// how far ahead the primary is but before the records are applied — the
	// replication-lag injection point (a sleeping hook makes a follower that
	// knows it lags, which is what the bounded-staleness refusal keys on).
	BeforeReplApply func(doc string, from int)
	// BeforeProtocolSwitch fires at the quiescent point of an online
	// protocol switch: the domain's lock table has drained to zero owners
	// and admissions are blocked, immediately before the protocol is
	// swapped — the "mid-switch" crash point. The active protocol is never
	// persisted, so a site killed here restarts under its configured
	// default.
	BeforeProtocolSwitch func(doc, from, to string)
}

// GrantInfo describes one granted lock for history recording. Guard carries
// the predicate annotation of XDGL locks: the table lets checker-visibly
// incompatible modes coexist on one DataGuide path when their guards are
// provably disjoint, so any consumer reasoning about conflicts must apply
// the same Disjoint test the table does.
type GrantInfo struct {
	Path  string
	Mode  lock.Mode
	Guard *lock.Guard
}

// HistoryHook observes committed-history-relevant events. Implementations
// must be safe for concurrent use; calls may occur under site mutexes, so
// hooks must not call back into the site.
type HistoryHook interface {
	// OnAcquired fires when an operation's locks are granted at a site,
	// with the operation's full lock footprint.
	OnAcquired(site int, id txn.ID, op int, doc string, write bool, grants []GrantInfo)
	// OnUndone fires when an operation is undone at a site (its footprint
	// there no longer counts).
	OnUndone(site int, id txn.ID, op int)
	// OnFinished fires once per transaction at its coordinator.
	OnFinished(id txn.ID, committed bool)
}

func (c Config) withDefaults() Config {
	if c.Protocol == nil {
		c.Protocol = lock.XDGL{}
	}
	if c.Adaptive.Enabled {
		c.Adaptive = c.Adaptive.withDefaults()
	}
	if c.Catalog == nil {
		c.Catalog = replica.NewCatalog()
	}
	if c.Store == nil {
		c.Store = store.NewMemStore()
	}
	if c.RetryInterval <= 0 {
		c.RetryInterval = 25 * time.Millisecond
	}
	if c.HeartbeatMisses <= 0 {
		c.HeartbeatMisses = 3
	}
	if len(c.Sites) == 0 {
		c.Sites = []int{c.SiteID}
	}
	if c.Replication == ReplicationQuorum {
		if c.MaxStaleness <= 0 {
			c.MaxStaleness = time.Second
		}
		if c.ReplHorizon <= 0 {
			c.ReplHorizon = 512
		}
	}
	return c
}

// Stats counts site-level events; all counters are monotonic. It is the
// compatibility view over the site's obs registry: each field is assembled
// from the registry counter of the same meaning by Site.Stats, so the
// registry is the one source of truth and this struct stays a cheap
// value-type snapshot for callers (harness, dtxbench, the public SiteStats).
type Stats struct {
	TxnsCommitted      int64
	TxnsAborted        int64
	TxnsFailed         int64
	DeadlockAborts     int64 // transactions aborted because of a deadlock
	LocalDeadlocks     int64 // cycles found while adding a wait edge (Alg. 3)
	DistDeadlocks      int64 // cycles found by the periodic detector (Alg. 4)
	OpsExecuted        int64
	OpConflicts        int64 // lock acquisition failures
	RemoteOpsSent      int64
	RemoteOpsProcessed int64
	LocksAcquired      int64
	PersistErrors      int64 // failed checkpoints (see persist.go)
	SnapshotReads      int64 // queries served from MVCC versions, lock-free
	SnapshotPublishes  int64 // committed versions materialised into a chain
	LogRecordsShipped  int64 // replication records acked by a follower (per record, per follower)
	LogRecordsApplied  int64 // shipped replication records applied at this follower
	ReplStaleRefusals  int64 // snapshot reads refused for exceeding the staleness bound
	ReplCatchupRecords int64 // replication records applied during recovery catch-up
	IndexedQueries     int64 // queries answered from a value index instead of an extent scan
	ProtocolSwitches   int64 // completed online protocol switches (adapt.go)
}

// docState bundles the in-memory representation of one document at a site:
// the tree, its DataGuide, the lock table over the DataGuide, and the
// wait-for graph of that lock manager. The graph is per lock manager (not
// per site): in §2.4 both wait edges of the cross-document deadlock arise at
// site s2 but in different documents' lock managers, and the paper resolves
// the cycle with the *periodic distributed* check, not the local one —
// which is only possible if the local graphs are disjoint per document.
//
// Each docState is one scheduling domain: its mutex serialises every access
// to the document, guide, table, graph, undo log and log position, so
// transactions on different documents at one site proceed fully in
// parallel.
type docState struct {
	mu    sync.Mutex
	name  string // the document name, immutable; for metric labels
	doc   *xmltree.Document
	guide *dataguide.DataGuide
	table *lock.Table
	graph *wfg.Graph
	// undoLog is every update applied to the tree that a snapshot may still
	// have to take off it, in apply order: the one record of what each
	// transaction changed here. A commit journals its entries' operations and
	// stamps them committed, an undo or abort reverts and drops them
	// newest-first, and the committed tree as of any timestamp the log still
	// reaches is the live tree with the uncommitted entries and those
	// committed above the timestamp peeled off (publishLocked). Committed
	// entries are kept for the last checkpointEvery records; trimTS is the
	// newest commit trimmed off, the floor below which no state can be cut.
	undoLog []undoEntry
	trimTS  txn.TS

	// proto is the lock protocol currently active on this domain, seeded
	// from Config.Protocol and swapped at quiescent points by SwitchProtocol
	// (adapt.go). draining blocks new admissions while a switch waits for
	// the lock table to empty: processOperation refuses transactions that
	// hold nothing here yet (the coordinator's wait mode retries them) and
	// admits the rest so the drain can complete. Both guarded by mu.
	proto    lock.Protocol
	draining bool

	// met caches this document's child metric handles (resolved once here,
	// so the hot paths never do a labelled-vec map lookup).
	met docMetrics

	// versions is the document's MVCC chain: committed immutable snapshots
	// that read-only transactions pin and query without entering the lock
	// table or the wait-for graph (snapshot.go). Commits advance the chain's
	// commit timestamp in O(1); a version is materialised only when a reader
	// or a due checkpoint needs a state the chain lacks (publishLocked). The
	// chain has its own leaf mutex, so it is safe to touch with or without
	// ds.mu held.
	versions *mvcc.Chain

	// Log position, guarded by mu like the rest of the domain. replApplied is
	// the index of the newest record reflected in the live tree: commits
	// number their records with it in both replication modes (site-local in
	// eager mode, the primary's numbering in quorum mode). savedIdx is the
	// index the Store image reflects; replApplied-savedIdx is the checkpoint
	// lag.
	replApplied int64
	savedIdx    int64

	// Checkpointer state (persist.go): ckptWanted asks for one more
	// checkpoint, ckptActive marks the single checkpointer running.
	// persistErr latches the first failed checkpoint: the document's
	// persistent state can no longer be trusted to converge, so later
	// commits on it are refused.
	ckptWanted bool
	ckptActive bool
	persistErr error

	// Quorum replication (replication.go). knownHead and staleSince track,
	// at a follower, the newest primary index heard of and since when the
	// replica has known itself behind — the inputs of the bounded-staleness
	// refusal. replAcked tracks, at the primary, each follower's durably
	// acked index, so ships resend exactly the unacked suffix.
	knownHead  int64
	staleSince time.Time
	replAcked  map[int]int64
}

// undoEntry is one update on a document's tree: the operation as executed —
// the commit's redo record — and its inverse. cts and idx are zero while the
// transaction is undecided; its commit stamps them with the commit timestamp
// and the log index of its record. Strict two-phase locking makes any later
// update that touches what this one touched commit later (or not yet), so
// the entries above a timestamp always peel off cleanly, newest first.
type undoEntry struct {
	txn   txn.ID
	opIdx int
	op    txn.Operation
	rec   *xupdate.UndoRec
	cts   txn.TS
	idx   int64
}

// pendingOpsLocked returns the operations of the transaction's uncommitted
// updates in apply order — the order a replay must redo them in. Callers
// hold ds.mu.
func (ds *docState) pendingOpsLocked(id txn.ID) []txn.Operation {
	var ops []txn.Operation
	for i := range ds.undoLog {
		if p := &ds.undoLog[i]; p.txn == id && p.cts == 0 {
			ops = append(ops, p.op)
		}
	}
	return ops
}

// revertLocked undoes, newest first, and drops the transaction's uncommitted
// updates on the document — those of one operation, or all of them when
// opIdx is negative. Undoing and dropping inside one hold of ds.mu is what
// lets an operation-level undo and the transaction's abort race: each entry
// is reverted exactly once, and neither can release a lock over an effect
// still in the tree. Callers hold ds.mu.
func (ds *docState) revertLocked(id txn.ID, opIdx int) {
	mine := func(p undoEntry) bool {
		return p.txn == id && p.cts == 0 && (opIdx < 0 || p.opIdx == opIdx)
	}
	for i := len(ds.undoLog) - 1; i >= 0; i-- {
		if p := ds.undoLog[i]; mine(p) {
			// A failure here would mean a corrupted undo record: the tree
			// operations involved cannot fail on records a successful apply
			// produced.
			if err := p.rec.Undo(ds.doc, ds.guide); err != nil {
				panic(fmt.Sprintf("sched: undo of %s op %d failed: %v", id, p.opIdx, err))
			}
		}
	}
	ds.undoLog = slices.DeleteFunc(ds.undoLog, mine)
}

// partTxn is the participant-side record of a transaction that has executed
// (or tried to execute) operations at this site. The coordinator's own site
// keeps one too, so commit/abort treat all sites uniformly. What the
// transaction changed lives on the documents (docState.undoLog); this only
// remembers which documents to look at. The mutex (a leaf in the lock order)
// guards docs: concurrent batched reads of one transaction, and a stale
// operation racing the transaction's cleanup, can touch it from different
// document domains.
type partTxn struct {
	id          txn.ID
	ts          txn.TS
	coordinator int
	created     time.Time // for the orphan sweep's age threshold

	mu   sync.Mutex
	docs map[string]bool // documents touched here
}

// touch records a document as touched by the transaction at this site.
func (pt *partTxn) touch(doc string) {
	pt.mu.Lock()
	pt.docs[doc] = true
	pt.mu.Unlock()
}

// docNames snapshots the touched documents.
func (pt *partTxn) docNames() []string {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	out := make([]string, 0, len(pt.docs))
	for name := range pt.docs {
		out = append(out, name)
	}
	return out
}

// coordTxn is the coordinator-side state of a transaction submitted here.
// Interactive sessions grow t.Ops and results one operation at a time;
// batched read-only steps (Session.ExecBatch) run their operations
// concurrently, so the sites map and the wake channel carry a mutex.
type coordTxn struct {
	t        *txn.Transaction
	abortCh  chan string
	mu       sync.Mutex    // guards sites, wake and roDocSites
	sites    map[int]bool  // sites that received at least one operation
	wake     chan struct{} // closed to broadcast a wake-up, then replaced
	results  [][]string
	finished chan struct{} // closed once the transaction reaches a terminal state

	// trace is the slow-transaction event timeline, non-nil exactly when the
	// site's tracer is armed (metrics.go); fast transactions drop it at
	// finish.
	trace *txnTrace

	// roDocSites tracks, for a read-only transaction, which site each
	// document's reads are bound to — reads of one document must stick to
	// one site or repeatable reads break (snapshot.go). A binding is claimed
	// BEFORE the first read is dispatched, so concurrent batched reads of
	// one document agree on the site, and a terminal release reaches every
	// site that may hold a pin.
	roDocSites map[string]roRoute
}

// roRoute is one document's read-routing binding of a read-only transaction.
type roRoute struct {
	site   int
	pinned bool // a read succeeded there: the site holds the version pin
}

// addSite records a site as involved in the transaction.
func (ct *coordTxn) addSite(site int) {
	ct.mu.Lock()
	ct.sites[site] = true
	ct.mu.Unlock()
}

// remoteSites snapshots the involved sites excluding the coordinator's
// own. The local step of every 2PC phase runs unconditionally instead — a
// no-op when the transaction never touched the coordinator's site.
func (ct *coordTxn) remoteSites(self int) []int {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	sites := make([]int, 0, len(ct.sites))
	for site := range ct.sites {
		if site != self {
			sites = append(sites, site)
		}
	}
	return sites
}

// roSiteFor returns the document's read-routing binding, if one exists.
func (ct *coordTxn) roSiteFor(doc string) (roRoute, bool) {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	route, ok := ct.roDocSites[doc]
	return route, ok
}

// claimRoSite binds the document's reads to candidate unless another
// goroutine bound it first, and returns the winning binding.
func (ct *coordTxn) claimRoSite(doc string, candidate int) roRoute {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	if ct.roDocSites == nil {
		ct.roDocSites = make(map[string]roRoute)
	}
	if route, ok := ct.roDocSites[doc]; ok {
		return route
	}
	route := roRoute{site: candidate}
	ct.roDocSites[doc] = route
	return route
}

// markRoPinned records that a read succeeded at the document's bound site:
// the version is pinned there and the binding must never move again.
func (ct *coordTxn) markRoPinned(doc string, site int) {
	ct.mu.Lock()
	if route, ok := ct.roDocSites[doc]; ok && route.site == site {
		route.pinned = true
		ct.roDocSites[doc] = route
	}
	ct.mu.Unlock()
}

// rebindRoSite drops a binding whose site died before any read of the
// document succeeded there, so the next routing pass can pick a survivor.
// Returns false — and leaves the binding — when a concurrent sibling's read
// DID succeed at that site: the pin exists, the snapshot died with the
// site, and rerouting would serve a different version of the document.
func (ct *coordTxn) rebindRoSite(doc string, site int) bool {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	route, ok := ct.roDocSites[doc]
	if !ok || route.site != site {
		return true // a sibling already rebound it
	}
	if route.pinned {
		return false
	}
	delete(ct.roDocSites, doc)
	return true
}

// roRemoteSites snapshots the distinct remote sites that may hold pins for
// a read-only transaction (every bound site, pinned or merely claimed — a
// claim whose read errored mid-flight may still have pinned).
func (ct *coordTxn) roRemoteSites(self int) []int {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	seen := make(map[int]bool, len(ct.roDocSites))
	var out []int
	for _, route := range ct.roDocSites {
		if route.site != self && !seen[route.site] {
			seen[route.site] = true
			out = append(out, route.site)
		}
	}
	return out
}

// wakeChan returns the channel a wait-mode goroutine should select on. It
// must be fetched before the lock attempt: a wake broadcast during the
// attempt then closes exactly this channel, so the signal cannot be lost.
func (ct *coordTxn) wakeChan() <-chan struct{} {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	return ct.wake
}

// broadcastWake wakes every goroutine of the transaction currently in (or
// entering) wait mode — batched read-only steps can have several waiting
// concurrently, and a single-token channel would wake only one of them.
func (ct *coordTxn) broadcastWake() {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	close(ct.wake)
	ct.wake = make(chan struct{})
}

// Result is what a client gets back for a submitted transaction.
type Result struct {
	Txn     txn.ID
	State   txn.State
	Results [][]string // per-operation query results
	Reason  string     // why the transaction aborted or failed
	Err     error      // typed terminal error (nil when committed); works with errors.Is
}

// Site is one DTX instance. Create with New, attach to a transport with
// Attach (or AttachTCP via cmd/dtxd), then Submit transactions.
type Site struct {
	cfg Config
	id  int

	// mu guards site-lifecycle state only: the logical clock, the sequence
	// counter, the transaction registries and the finished tombstones.
	// Document state lives behind each docState's own mutex, so the hot
	// path holds mu for map lookups and counter ticks, never for lock-table
	// work, query evaluation or persistence.
	mu      sync.Mutex
	clock   txn.Clock
	seq     int64
	coord   map[txn.ID]*coordTxn
	part    map[txn.ID]*partTxn
	coordOf map[txn.ID]int // any transaction seen here -> its coordinator site
	// finished tombstones recently-terminated transactions, mapped to their
	// outcome (true = committed). The pipelined transport does not order an
	// abandoned operation exchange against the cleanup messages sent after
	// it, so a stale ExecOpReq can reach a participant after the
	// transaction's abort or commit; without the tombstone it would
	// re-create participant state and acquire locks that nothing ever
	// releases. The outcome additionally answers the termination protocol's
	// TxnStatusReq. Bounded by finishedRing (oldest evicted).
	finished     map[txn.ID]bool
	finishedRing []txn.ID
	finishedIdx  int

	// roMu guards the roPins registry map only — the per-transaction pin
	// sets carry their own mutex (snapshot.go), so the registry lock is
	// never held across version pinning or query evaluation.
	roMu   sync.Mutex
	roPins map[txn.ID]*roPinSet

	// docsMu guards the docs map itself (installation of new documents);
	// docStates are never removed, so a looked-up pointer stays valid.
	docsMu sync.RWMutex
	docs   map[string]*docState

	// m holds the site's metric handles; its counters back Stats. traceArmed
	// is fixed at construction from the trace config (read lock-free on the
	// hot path).
	m          *siteMetrics
	traceArmed bool

	// replLog is the in-memory per-document shipping log, non-nil exactly in
	// quorum-replication mode (replication.go). rywMu/recentWrites track the
	// last committed write per document submitted through this site, so
	// snapshot reads that follow a write here prefer the primary within the
	// staleness window (read-your-writes).
	replLog      *store.ReplLog
	rywMu        sync.Mutex
	recentWrites map[string]time.Time

	// queries caches parsed XPath per raw query text, site-wide: repeated
	// query templates skip the lexer and parser entirely. Update target
	// paths are pre-parsed on the Update itself (xupdate.Validate).
	queries *xpath.Cache

	// liveness is the failure-detector view of the peers, fed by heartbeats
	// and by the outcome of every transport exchange.
	liveness *liveness
	// ready gates service: 0 while the site is recovering (heartbeats
	// answer not-ready, operations are refused), 1 once it serves.
	ready int32
	// killed is set by Kill: the site died abruptly and must not write to
	// its store or journal again.
	killed int32
	// sweeping serialises the background orphan sweep (liveness.go).
	sweeping int32

	node     transport.Node
	stopCh   chan struct{}
	stopOnce sync.Once // Stop and Kill race on closing stopCh
	// ctx is the site's lifecycle context: background processes (the
	// deadlock detector, wake-up notifications) bind their transport
	// exchanges to it so Stop can cut a blocked poll short instead of
	// leaking it past Close.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	// commitMu serialises the journal-ordered step of every local commit and
	// of every applied record span: number the records, append the intent,
	// advance the documents (commitLocal, applyRecords).
	commitMu sync.Mutex
	// persistMu/persistCond/workerCount track the running checkpointers so
	// Sync, Stop and Quiesce can wait for them. A plain counter with a
	// condition variable, not a WaitGroup: commits keep starting
	// checkpointers while other goroutines wait, which WaitGroup forbids
	// (Add racing Wait across a zero crossing). stopping/commitGate close
	// the shutdown race between a late local consolidation and the journal
	// close: once stopping is set no new commitLocal may begin, and Stop
	// waits for the in-flight ones (commitGate) before the final checkpoint
	// — so the journal is closed only after every intent it will ever carry
	// has been written and covered.
	persistMu   sync.Mutex
	persistCond *sync.Cond
	workerCount int64
	stopping    bool
	commitGate  int64
}

// New creates a site instance. Documents must be loaded with LoadDocument
// or AddDocument before transactions touch them.
func New(cfg Config) *Site {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Site{
		cfg:          cfg,
		id:           cfg.SiteID,
		docs:         make(map[string]*docState),
		coord:        make(map[txn.ID]*coordTxn),
		part:         make(map[txn.ID]*partTxn),
		coordOf:      make(map[txn.ID]int),
		roPins:       make(map[txn.ID]*roPinSet),
		finished:     make(map[txn.ID]bool),
		finishedRing: make([]txn.ID, 4096),
		queries:      xpath.NewCache(4096),
		stopCh:       make(chan struct{}),
		ctx:          ctx,
		cancel:       cancel,
	}
	if !cfg.Recovering {
		s.ready = 1
	}
	s.m = newSiteMetrics(s, cfg.Metrics)
	s.traceArmed = cfg.TraceSink != nil || cfg.SlowTxnThreshold > 0
	if s.traceArmed {
		// Traces carry the same timings the histograms do; configuring the
		// tracer is configuring observability, so arm the gated paths.
		s.m.reg.Arm()
	}
	s.liveness = newLiveness(cfg.HeartbeatInterval > 0, s.abortOrphans)
	s.persistCond = sync.NewCond(&s.persistMu)
	if cfg.Replication == ReplicationQuorum {
		s.replLog = store.NewReplLog(cfg.ReplHorizon)
		s.recentWrites = make(map[string]time.Time)
	}
	if cfg.Journal != nil {
		// Fence the identifier space on EVERY journaled construction, not
		// just the recovery path: an incarnation that re-minted a prior ID
		// would have its seal silently close the crashed incarnation's
		// unrelated open intent.
		if m := cfg.Journal.MaxSeq(cfg.SiteID); m > 0 {
			s.AdvancePast(m + SeqFenceGap)
		}
	}
	return s
}

// Ready reports whether the site is serving (recovery, if any, completed).
func (s *Site) Ready() bool { return atomic.LoadInt32(&s.ready) == 1 }

// FinishRecovery marks a recovering site ready to serve: heartbeats start
// answering OK, so peers route traffic to it again.
func (s *Site) FinishRecovery() { atomic.StoreInt32(&s.ready, 1) }

// Killed reports whether the site was crashed with Kill.
func (s *Site) Killed() bool { return atomic.LoadInt32(&s.killed) == 1 }

// Journal returns the site's commit journal, or nil.
func (s *Site) Journal() *store.Journal { return s.cfg.Journal }

// PeerStates snapshots the liveness view for status reporting.
func (s *Site) PeerStates() []transport.PeerStatus { return s.liveness.snapshot() }

// PeerState returns the current belief about one peer.
func (s *Site) PeerState(site int) PeerState { return s.liveness.state(site) }

// doc returns the scheduling domain of a document, or nil.
func (s *Site) doc(name string) *docState {
	s.docsMu.RLock()
	ds := s.docs[name]
	s.docsMu.RUnlock()
	return ds
}

// allDocs snapshots every scheduling domain at the site.
func (s *Site) allDocs() []*docState {
	s.docsMu.RLock()
	out := make([]*docState, 0, len(s.docs))
	for _, ds := range s.docs {
		out = append(out, ds)
	}
	s.docsMu.RUnlock()
	return out
}

// isFinished reports whether the transaction is tombstoned at this site.
func (s *Site) isFinished(id txn.ID) bool {
	s.mu.Lock()
	_, dead := s.finished[id]
	s.mu.Unlock()
	return dead
}

// markFinishedLocked tombstones a terminated transaction with its outcome.
// Callers hold s.mu. The first outcome recorded wins: a stale cleanup
// message arriving after the transaction was resolved cannot flip it. The
// ring bounds memory: after its capacity in newer terminations the
// tombstone is evicted, which is far beyond any realistic in-flight window
// for a stale operation.
func (s *Site) markFinishedLocked(id txn.ID, committed bool) {
	if _, ok := s.finished[id]; ok {
		return
	}
	if old := s.finishedRing[s.finishedIdx]; old != txn.Zero {
		delete(s.finished, old)
	}
	s.finishedRing[s.finishedIdx] = id
	s.finishedIdx = (s.finishedIdx + 1) % len(s.finishedRing)
	s.finished[id] = committed
}

// ID returns the site identifier.
func (s *Site) ID() int { return s.id }

// Protocol returns the configured concurrency-control protocol — the one
// every document starts under. With the adaptive scheduler enabled, a
// document's currently ACTIVE protocol may differ; DocProtocol reports it.
func (s *Site) Protocol() lock.Protocol { return s.cfg.Protocol }

// Catalog returns the replica catalog the site routes with.
func (s *Site) Catalog() *replica.Catalog { return s.cfg.Catalog }

// Attach connects the site to a transport network endpoint and starts the
// configured background processes: the periodic deadlock detector and the
// liveness heartbeat.
func (s *Site) Attach(join func(transport.Handler) (transport.Node, error)) error {
	node, err := join(transport.HandlerFunc(s.HandleMessage))
	if err != nil {
		return err
	}
	s.node = node
	if s.cfg.DeadlockInterval > 0 {
		s.wg.Add(1)
		go s.detectorLoop()
	}
	if s.cfg.HeartbeatInterval > 0 {
		s.wg.Add(1)
		go s.heartbeatLoop()
	}
	if s.cfg.Adaptive.Enabled {
		s.wg.Add(1)
		go s.adaptLoop()
	}
	return nil
}

// AttachNetwork joins an in-process network.
func (s *Site) AttachNetwork(net *transport.Network) error {
	return s.Attach(func(h transport.Handler) (transport.Node, error) {
		return net.Join(s.id, h)
	})
}

// Stop terminates background processes, drains in-flight work and detaches
// from the network. Cancelling the lifecycle context unblocks a detector
// poll that is waiting on an unresponsive peer, so Stop never hangs behind
// it. Stop takes a final checkpoint — on a quiescent site every commit
// acknowledged before Stop is in the Store and the journal holds no open
// intent when Stop returns — and only then closes the site's journal: the
// stopping flag refuses consolidations that would race the close, and the
// commit gate waits out the ones already in flight, so no intent record can
// ever chase a closed journal.
func (s *Site) Stop() {
	s.persistMu.Lock()
	s.stopping = true
	s.persistMu.Unlock()
	s.stopOnce.Do(func() { close(s.stopCh) })
	s.cancel()
	s.wg.Wait()
	// Wait for in-flight local consolidations, then checkpoint them.
	s.persistMu.Lock()
	for s.commitGate > 0 {
		s.persistCond.Wait()
	}
	s.persistMu.Unlock()
	s.Sync()
	if s.node != nil {
		s.node.Close()
	}
	if s.cfg.Journal != nil && !s.Killed() {
		s.cfg.Journal.Close()
	}
}

// Kill crashes the site abruptly, simulating a process or machine failure:
// the transport endpoint drops (peers' in-flight calls fail with
// ErrPeerClosed and feed their suspicion state), the journal file handle
// closes without any final records, and the checkpointers abandon writes
// that have not reached the Store — acknowledged commits no checkpoint
// covers stay open intents in the journal, exactly as after a real crash.
// The Store and journal files survive for a restart, which replays them.
func (s *Site) Kill() {
	if !atomic.CompareAndSwapInt32(&s.killed, 0, 1) {
		return
	}
	atomic.StoreInt32(&s.ready, 0)
	s.persistMu.Lock()
	s.stopping = true
	s.persistMu.Unlock()
	s.stopOnce.Do(func() { close(s.stopCh) })
	s.cancel()
	if s.node != nil {
		s.node.Close()
	}
	if s.cfg.Journal != nil {
		s.cfg.Journal.Close()
	}
}

// enterCommit admits one local consolidation under the shutdown gate.
func (s *Site) enterCommit() bool {
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	if s.stopping {
		return false
	}
	s.commitGate++
	return true
}

// exitCommit retires one admitted consolidation.
func (s *Site) exitCommit() {
	s.persistMu.Lock()
	s.commitGate--
	if s.commitGate == 0 {
		s.persistCond.Broadcast()
	}
	s.persistMu.Unlock()
}

// Stats returns a snapshot of the site's counters, assembled from the obs
// registry (the storage; see metrics.go).
func (s *Site) Stats() Stats {
	m := s.m
	return Stats{
		TxnsCommitted:      m.txnsCommitted.Value(),
		TxnsAborted:        m.txnsAborted.Value(),
		TxnsFailed:         m.txnsFailed.Value(),
		DeadlockAborts:     m.deadlockAborts.Value(),
		LocalDeadlocks:     m.localDeadlocks.Value(),
		DistDeadlocks:      m.distDeadlocks.Value(),
		OpsExecuted:        m.opsExecuted.Value(),
		OpConflicts:        m.conflicts.Total(),
		RemoteOpsSent:      m.remoteOpsSent.Value(),
		RemoteOpsProcessed: m.remoteOpsProcessed.Value(),
		LocksAcquired:      m.locksAcquired.Value(),
		PersistErrors:      m.persistErrors.Value(),
		SnapshotReads:      m.snapshotReads.Value(),
		SnapshotPublishes:  m.snapshotPublishes.Value(),
		LogRecordsShipped:  m.logShipped.Value(),
		LogRecordsApplied:  m.logApplied.Value(),
		ReplStaleRefusals:  m.staleRefusals.Value(),
		ReplCatchupRecords: m.catchupRecords.Value(),
		IndexedQueries:     m.indexedQueries.Value(),
		ProtocolSwitches:   m.protocolSwitches.Total(),
	}
}

// newDocState builds the scheduling domain of a freshly installed document
// whose tree reflects its log up to idx, seeding its MVCC chain with an
// initial committed version at timestamp 0: the as-installed state is
// committed by definition, and the floor version lets a reader that begins
// before the first local commit pin something — after a restart too, when
// the tree is the saved image the Store (or catch-up) hands back.
func (s *Site) newDocState(doc *xmltree.Document, idx int64) *docState {
	g := dataguide.Build(doc)
	if len(s.cfg.IndexedKeys) > 0 || s.cfg.AutoIndexAfter > 0 {
		// Every install path builds its state here, so a replayed or caught-up
		// document rebuilds its postings from the recovered tree; later updates
		// maintain them through the guide hooks inside the same ds.mu section.
		g.AttachIndex(vindex.New(s.cfg.IndexedKeys, s.cfg.AutoIndexAfter))
		g.ReindexAll(doc)
	}
	ch := mvcc.NewChain(mvcc.Options{MaxVersions: s.cfg.SnapshotVersions})
	ch.Publish(doc.Snapshot(), 0)
	if s.replLog != nil {
		// No record history stands behind an image: the shipping window
		// restarts empty just past it.
		s.replLog.Reset(doc.Name, idx)
	}
	return &docState{
		name:        doc.Name,
		doc:         doc,
		guide:       g,
		table:       lock.NewTable(g),
		graph:       wfg.New(),
		proto:       s.cfg.Protocol,
		versions:    ch,
		met:         s.m.docMetrics(doc.Name),
		replApplied: idx,
		savedIdx:    idx,
	}
}

// AddDocument installs a document at this site (in memory and in the store)
// and registers it in the catalog for this site if absent.
func (s *Site) AddDocument(doc *xmltree.Document) error { return s.installOwn(doc, 0) }

// installOwn installs a document at a site that numbers its records itself:
// at head or, if that is further, past every record the site already holds
// for the name — the copy it replaces, or what an earlier life of the store
// left in the journal — so saving the image seals them all, none is replayed
// onto the new bytes and no index is minted twice.
func (s *Site) installOwn(doc *xmltree.Document, head int64) error {
	if old := s.doc(doc.Name); old != nil {
		old.mu.Lock()
		head = max(head, old.replApplied)
		old.mu.Unlock()
	} else if j := s.cfg.Journal; j != nil {
		recs, err := j.OpenRecords(doc.Name)
		if err != nil {
			return err
		}
		if len(recs) > 0 {
			head = max(head, recs[len(recs)-1].Index)
		}
	}
	return s.installAt(doc, head)
}

// installAt saves and installs a document that reflects its log up to idx.
func (s *Site) installAt(doc *xmltree.Document, idx int64) error {
	if err := s.saveImage(doc, idx); err != nil {
		return err
	}
	s.adopt(s.newDocState(doc, idx))
	return nil
}

// adopt makes ds the site's copy of its document and the site a holder of it.
func (s *Site) adopt(ds *docState) {
	s.docsMu.Lock()
	s.docs[ds.name] = ds
	s.docsMu.Unlock()
	if !s.cfg.Catalog.Holds(ds.name, s.id) {
		s.cfg.Catalog.Place(ds.name, append(s.cfg.Catalog.Sites(ds.name), s.id)...)
	}
}

// LoadDocument recovers a document from the storage structure into memory —
// the DataManager role of Fig. 1 — and registers this site as a holder in
// the catalog: the saved image, then the journal's open intents past the
// image's index replayed onto it. It returns how many records it replayed.
func (s *Site) LoadDocument(name string) (int, error) {
	doc, idx, err := s.cfg.Store.Load(name)
	if err != nil {
		return 0, err
	}
	ds := s.newDocState(doc, idx)
	var replayed int
	if j := s.cfg.Journal; j != nil {
		recs, err := j.OpenRecords(name)
		if err != nil {
			return 0, err
		}
		if replayed, err = s.applyRecords(ds, recs, true); err != nil {
			return 0, fmt.Errorf("sched: replay %s: %w", name, err)
		}
	}
	s.adopt(ds)
	return replayed, nil
}

// SeqFenceGap is added to a journal's maximum recorded sequence number when
// fencing a restarted site's identifier space. Read-only transactions never
// journal, so the journal's maximum undercounts the previous incarnation;
// the gap puts the new incarnation far past any plausibly unjournaled ID.
const SeqFenceGap = 1 << 20

// Bootstrap loads every document present in the site's store into memory
// (the DataManager recovering state after a restart), replaying the
// journal's open intents onto the saved images, and returns how many records
// it replayed. (The identifier-space fence past the journal's records is
// applied by New on every journaled construction.)
func (s *Site) Bootstrap() (int, error) {
	names, err := s.cfg.Store.List()
	if err != nil {
		return 0, err
	}
	var replayed int
	for _, name := range names {
		n, err := s.LoadDocument(name)
		if err != nil {
			return replayed, err
		}
		replayed += n
	}
	return replayed, nil
}

// ReplaceDocument installs a copy of a document fetched from a live peer and
// cut at the peer's log position head — the catch-up path of a restarted
// replica. A quorum follower takes that position as it is, even below its
// own: it is the primary's numbering, shipping refills from exactly there and
// the local records past it stay open in the journal. An eager replica
// numbers its own records and never steps back. Only safe while the site is
// not serving: live docState pointers are never replaced under traffic.
func (s *Site) ReplaceDocument(doc *xmltree.Document, head int64) error {
	if s.Ready() {
		return fmt.Errorf("sched: site %d: ReplaceDocument while serving", s.id)
	}
	// A long replay may have left the replaced copy's checkpointer running;
	// its image must not land over the new one.
	s.Quiesce()
	if s.replLog != nil {
		return s.installAt(doc, head)
	}
	return s.installOwn(doc, head)
}

// AdvancePast fences the site's transaction-identifier space and clock past
// the given sequence number. A restarted site calls it with the journal's
// maximum recorded sequence (plus a generous gap for unjournaled, read-only
// transactions), so the new incarnation can never mint an ID that collides
// with one from before the crash — peers may still hold tombstones or
// journal records naming those.
func (s *Site) AdvancePast(seq int64) {
	s.mu.Lock()
	if seq > s.seq {
		s.seq = seq
	}
	s.clock.Observe(txn.TS(seq))
	s.mu.Unlock()
}

// Call sends a message to a peer site and returns the response — the
// transport access internal/recovery uses for the termination protocol and
// document catch-up.
func (s *Site) Call(ctx context.Context, to int, msg any) (any, error) {
	return s.send(ctx, to, msg)
}

// Document returns a deep copy of the current in-memory document, for
// inspection by tests and tools without racing the schedulers.
func (s *Site) Document(name string) (*xmltree.Document, error) {
	ds := s.doc(name)
	if ds == nil {
		return nil, fmt.Errorf("sched: site %d does not hold %q", s.id, name)
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.doc.Clone(), nil
}

// Documents lists the documents held in memory at this site.
func (s *Site) Documents() []string {
	s.docsMu.RLock()
	defer s.docsMu.RUnlock()
	out := make([]string, 0, len(s.docs))
	for name := range s.docs {
		out = append(out, name)
	}
	return out
}

// HandleMessage implements the Listener role: "receive, handle and forward
// the requests from other schedulers to the DTX scheduler".
func (s *Site) HandleMessage(from int, msg any) (any, error) {
	switch m := msg.(type) {
	case transport.ExecOpReq:
		if !s.Ready() {
			return transport.ExecOpResp{Site: s.id, Failed: true,
				Code:  txn.CodeReplicaUnavailable,
				Error: fmt.Sprintf("site %d is recovering", s.id)}, nil
		}
		return s.handleExecOp(m), nil
	case transport.SnapshotReadReq:
		if !s.Ready() {
			return transport.SnapshotReadResp{Site: s.id, Failed: true,
				Code:  txn.CodeReplicaUnavailable,
				Error: fmt.Sprintf("site %d is recovering", s.id)}, nil
		}
		return s.handleSnapshotRead(m), nil
	case transport.SnapshotReleaseReq:
		s.snapshotRelease(m.Txn)
		return transport.Ack{OK: true}, nil
	case transport.PingReq:
		return transport.Ack{OK: s.Ready()}, nil
	case transport.TxnStatusReq:
		return s.txnStatusLocal(m.Txn), nil
	case transport.FetchDocReq:
		return s.handleFetchDoc(m), nil
	case transport.SiteStatusReq:
		return s.siteStatus(), nil
	case transport.MetricsReq:
		return transport.MetricsResp{Site: s.id, Text: s.MetricsText()}, nil
	case transport.UndoOpReq:
		s.undoOpLocal(m.Txn, m.OpIdx)
		return transport.Ack{OK: true}, nil
	case transport.CommitReq:
		// A remote consolidation request for a transaction this site has no
		// record of must be refused, not vacuously acknowledged: a site that
		// crashed and restarted between executing the operations and
		// receiving the commit lost the effects with its old incarnation,
		// and acking would report commit over bytes that do not exist. (The
		// coordinator's LOCAL commitLocal call legitimately no-ops for a
		// transaction that never touched its site; that call does not come
		// through here.)
		s.mu.Lock()
		_, inPart := s.part[m.Txn]
		_, terminated := s.finished[m.Txn]
		s.mu.Unlock()
		if !inPart && !terminated {
			return transport.Ack{OK: false,
				Error: fmt.Sprintf("site %d has no state for %s (restarted?)", s.id, m.Txn)}, nil
		}
		err := s.commitLocal(m.Txn)
		if err != nil {
			// A quorum shortfall happens past the local point of no return:
			// this site consolidated (persisted, locks released) but could
			// not replicate widely enough. Consolidated tells the
			// coordinator to fail the transaction honestly instead of
			// aborting over effects that cannot be undone.
			return transport.Ack{OK: false,
				Consolidated: errors.Is(err, errQuorumShort), Error: err.Error()}, nil
		}
		return transport.Ack{OK: true}, nil
	case transport.LogShipReq:
		return s.handleLogShip(m), nil
	case transport.LogFetchReq:
		return s.handleLogFetch(m), nil
	case transport.AbortReq:
		err := s.abortLocal(m.Txn)
		if err != nil {
			return transport.Ack{OK: false, Error: err.Error()}, nil
		}
		return transport.Ack{OK: true}, nil
	case transport.FailReq:
		s.failLocal(m.Txn)
		return transport.Ack{OK: true}, nil
	case transport.WFGReq:
		return transport.WFGResp{Edges: s.localEdges()}, nil
	case transport.VictimReq:
		s.signalAbort(m.Txn, m.Reason)
		return transport.Ack{OK: true}, nil
	case transport.WakeReq:
		s.signalWake(m.Txn)
		return transport.Ack{OK: true}, nil
	case transport.SubmitReq:
		var res *Result
		var err error
		if m.ReadOnly {
			res, err = s.SubmitReadOnly(m.Ops)
		} else {
			res, err = s.Submit(m.Ops)
		}
		if err != nil {
			return transport.SubmitResp{Error: err.Error()}, nil
		}
		return transport.SubmitResp{
			Txn:     res.Txn,
			State:   res.State.String(),
			Results: res.Results,
			Code:    txn.ErrorCode(res.Err),
			Error:   res.Reason,
		}, nil
	default:
		return nil, fmt.Errorf("sched: site %d: unknown message %T", s.id, msg)
	}
}

// signalWake nudges a coordinator-side transaction out of wait mode. The
// broadcast reaches every waiting goroutine of the transaction, including
// one that is mid-attempt and only selects on the channel afterwards.
func (s *Site) signalWake(id txn.ID) {
	s.mu.Lock()
	ct := s.coord[id]
	s.mu.Unlock()
	if ct == nil {
		return
	}
	ct.broadcastWake()
}

// signalAbort delivers a deadlock-victim signal to a coordinator-side
// transaction.
func (s *Site) signalAbort(id txn.ID, reason string) {
	s.mu.Lock()
	ct := s.coord[id]
	s.mu.Unlock()
	if ct == nil {
		return
	}
	select {
	case ct.abortCh <- reason:
	default:
	}
}

// send delivers a message to a peer site (never to self). The context bounds
// the exchange: transaction-scoped messages pass the transaction's context,
// cleanup messages (undo, commit, abort, fail, wake-ups) pass a detached one
// because they must complete even after the client gave up. Every exchange
// feeds the liveness view: an answer restores the peer to Up, a torn-down
// connection (ErrPeerClosed) demotes it to Suspect instead of staying a
// per-call hard error.
func (s *Site) send(ctx context.Context, to int, msg any) (any, error) {
	if s.node == nil {
		return nil, fmt.Errorf("sched: site %d is not attached to a network", s.id)
	}
	resp, err := s.node.Send(ctx, to, msg)
	switch {
	case err == nil:
		s.liveness.observeUp(to)
	case errors.Is(err, transport.ErrPeerClosed):
		s.liveness.observeClosed(to)
	}
	return resp, err
}

// handleFetchDoc serves a catch-up request: the serialized committed state of
// a locally held document and the log position it reflects — the same cut a
// checkpoint saves, so a writer in flight here leaves no trace in it. A
// recovering site refuses: it cannot vouch for its copy until its own
// catch-up completes.
func (s *Site) handleFetchDoc(req transport.FetchDocReq) transport.FetchDocResp {
	if !s.Ready() {
		return transport.FetchDocResp{}
	}
	ds := s.doc(req.Doc)
	if ds == nil {
		return transport.FetchDocResp{}
	}
	ds.mu.Lock()
	v, head := s.publishLocked(ds, math.MaxInt64)
	ds.mu.Unlock()
	defer ds.versions.Unpin(v)
	return transport.FetchDocResp{Found: true, XML: v.Doc.String(), Head: head}
}

// siteStatus reports the site's operational state for dtxctl -status.
func (s *Site) siteStatus() transport.SiteStatusResp {
	st := s.Stats()
	resp := transport.SiteStatusResp{
		Site:      s.id,
		Ready:     s.Ready(),
		Documents: s.Documents(),
		Peers:     s.PeerStates(),
		Committed: st.TxnsCommitted,
		Aborted:   st.TxnsAborted,
		Failed:    st.TxnsFailed,
	}
	sort.Strings(resp.Documents)
	for _, name := range resp.Documents {
		ds := s.doc(name)
		if ds == nil {
			continue
		}
		d := transport.DocStatus{Name: name, Role: "replica", Primary: s.primaryOf(name)}
		if s.replLog == nil || d.Primary == s.id {
			// Eager mode has no primaries; every replica reports as one so the
			// status view never suggests a lag that cannot exist.
			d.Role = "primary"
		}
		ds.mu.Lock()
		d.Applied = ds.replApplied
		d.Head = ds.knownHead
		d.Checkpoint = ds.savedIdx
		d.Protocol = ds.proto.Name()
		ds.mu.Unlock()
		if d.Applied > d.Head {
			// The primary's own applied position IS the head.
			d.Head = d.Applied
		}
		d.Behind = d.Head - d.Applied
		resp.Docs = append(resp.Docs, d)
	}
	return resp
}
