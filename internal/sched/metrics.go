package sched

import (
	"encoding/json"
	"math"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/txn"
)

// siteMetrics holds the site's pre-resolved metric handles. The counters are
// the only record of the site's events: callers read them by name through
// Registry.Count (Site.Metrics, dtx.Cluster.Metrics). Histograms and
// spans are gated on the registry's armed flag (see internal/obs), so an
// unconfigured site pays one atomic load per would-be observation and
// nothing else. Per-document children are resolved once in newDocState and
// cached on the docState (docMetrics), keeping map lookups off the hot path.
type siteMetrics struct {
	reg *obs.Registry

	// Counters (always live).
	txnsCommitted, txnsAborted, txnsFailed         *obs.Counter
	deadlockAborts, localDeadlocks, distDeadlocks  *obs.Counter
	opsExecuted, remoteOpsSent, remoteOpsProcessed *obs.Counter
	locksAcquired, persistErrors                   *obs.Counter
	snapshotReads, snapshotPublishes               *obs.Counter
	logShipped, logApplied                         *obs.Counter
	staleRefusals, catchupRecords                  *obs.Counter
	indexedQueries                                 *obs.Counter
	conflicts                                      *obs.CounterVec // per doc; Count reads the total

	// Latency histograms (armed-gated).
	lockWait      *obs.HistogramVec // per doc: first conflict -> grant
	opExec        *obs.HistogramVec // per doc: whole execute phase of one op
	opEval        *obs.HistogramVec // per doc: one query's evaluation at its evaluating replica
	decisionWrite *obs.Histogram    // 2PC: coordinator decision record write
	commitFanout  *obs.Histogram    // 2PC: CommitReq fan-out until every ack
	quorumAck     *obs.Histogram    // 2PC: shipQuorum wait for WriteQuorum acks
	detectorCycle *obs.Histogram    // one distributed deadlock sweep
	persistSave   *obs.HistogramVec // per doc: one checkpoint's Store write
	persistBatch  *obs.HistogramVec // per doc: commits covered per checkpoint
	replShip      *obs.HistogramVec // per peer: one LogShipReq round trip
	replApply     *obs.HistogramVec // per doc: applying one shipped span
}

// docMetrics are the per-document child handles cached on each docState.
type docMetrics struct {
	lockWait     *obs.Histogram
	opExec       *obs.Histogram
	opEval       *obs.Histogram
	conflicts    *obs.Counter
	persistSave  *obs.Histogram
	persistBatch *obs.Histogram
	replApply    *obs.Histogram
}

func (m *siteMetrics) docMetrics(doc string) docMetrics {
	return docMetrics{
		lockWait:     m.lockWait.With(doc),
		opExec:       m.opExec.With(doc),
		opEval:       m.opEval.With(doc),
		conflicts:    m.conflicts.With(doc),
		persistSave:  m.persistSave.With(doc),
		persistBatch: m.persistBatch.With(doc),
		replApply:    m.replApply.With(doc),
	}
}

// newSiteMetrics builds the site's unarmed registry, registers the
// scheduler's metric families on it and wires the exposition-time gauges
// over the site's live state.
func newSiteMetrics(s *Site) *siteMetrics {
	reg := obs.New()
	reg.SetLabel("site", strconv.Itoa(s.id))
	m := &siteMetrics{
		reg:                reg,
		txnsCommitted:      reg.Counter("dtx_txns_committed_total", "Transactions committed at this coordinator."),
		txnsAborted:        reg.Counter("dtx_txns_aborted_total", "Transactions aborted at this coordinator."),
		txnsFailed:         reg.Counter("dtx_txns_failed_total", "Transactions failed (not cleanly resolved) at this coordinator."),
		deadlockAborts:     reg.Counter("dtx_deadlock_aborts_total", "Transactions aborted as deadlock victims."),
		localDeadlocks:     reg.Counter("dtx_deadlocks_local_total", "Cycles found while adding a wait edge (Alg. 3)."),
		distDeadlocks:      reg.Counter("dtx_deadlocks_distributed_total", "Cycles found by the periodic distributed detector (Alg. 4)."),
		opsExecuted:        reg.Counter("dtx_ops_executed_total", "Operations executed at this site."),
		remoteOpsSent:      reg.Counter("dtx_remote_ops_sent_total", "Operations shipped to remote participants."),
		remoteOpsProcessed: reg.Counter("dtx_remote_ops_processed_total", "Remote operations processed at this participant."),
		locksAcquired:      reg.Counter("dtx_locks_acquired_total", "Locks granted."),
		persistErrors:      reg.Counter("dtx_persist_errors_total", "Failed checkpoints (latched per document)."),
		snapshotReads:      reg.Counter("dtx_snapshot_reads_total", "Queries served lock-free from MVCC versions."),
		snapshotPublishes:  reg.Counter("dtx_snapshot_publishes_total", "Committed versions materialised into an MVCC chain."),
		logShipped:         reg.Counter("dtx_repl_records_shipped_total", "Replication records acked by a follower (per record, per follower)."),
		logApplied:         reg.Counter("dtx_repl_records_applied_total", "Shipped replication records applied at this follower."),
		staleRefusals:      reg.Counter("dtx_repl_stale_refusals_total", "Snapshot reads refused for exceeding the staleness bound."),
		catchupRecords:     reg.Counter("dtx_repl_catchup_records_total", "Replication records applied during recovery catch-up."),
		indexedQueries:     reg.Counter("dtx_indexed_queries_total", "Queries answered from a value index instead of an extent scan."),
		conflicts:          reg.CounterVec("dtx_op_conflicts_total", "Lock acquisition failures.", "doc"),

		lockWait:      reg.HistogramVec("dtx_lock_wait_seconds", "Lock-wait time per operation: first conflicting attempt to grant.", "doc", obs.LatencyBuckets),
		opExec:        reg.HistogramVec("dtx_op_exec_seconds", "2PC execute phase: one operation routed, executed and acknowledged.", "doc", obs.LatencyBuckets),
		opEval:        reg.HistogramVec("dtx_op_eval_seconds", "Query evaluation at the one replica that answers it (a locked read counts once cluster-wide) or at a snapshot read, excluding lock wait.", "doc", obs.LatencyBuckets),
		decisionWrite: reg.Histogram("dtx_2pc_decision_write_seconds", "2PC decision phase: journaling the coordinator commit decision.", obs.LatencyBuckets),
		commitFanout:  reg.Histogram("dtx_2pc_commit_fanout_seconds", "2PC commit phase: consolidation fan-out until every participant acked.", obs.LatencyBuckets),
		quorumAck:     reg.Histogram("dtx_2pc_quorum_ack_seconds", "Quorum replication: shipQuorum wait for WriteQuorum durable acks.", obs.LatencyBuckets),
		detectorCycle: reg.Histogram("dtx_deadlock_cycle_seconds", "One distributed deadlock-detection sweep (Alg. 4).", obs.LatencyBuckets),
		persistSave:   reg.HistogramVec("dtx_persist_save_seconds", "Checkpoint: one committed image marshalled and written to the Store.", "doc", obs.LatencyBuckets),
		persistBatch:  reg.HistogramVec("dtx_persist_batch_size", "Checkpoint: commits one saved image covered.", "doc", obs.SizeBuckets),
		replShip:      reg.HistogramVec("dtx_repl_ship_seconds", "Replication: one LogShipReq round trip to a follower.", "peer", obs.LatencyBuckets),
		replApply:     reg.HistogramVec("dtx_repl_apply_seconds", "Replication: applying one shipped span at this follower.", "doc", obs.LatencyBuckets),
	}

	// Exposition-time gauges read the live state the subsystems already
	// maintain, so the write paths never touch them.
	reg.GaugeFunc("dtx_site_ready", "1 when the site serves traffic, 0 while recovering or killed.", func() float64 {
		if s.Ready() {
			return 1
		}
		return 0
	})
	// docGauge exposes one value per document, read under the domain mutex.
	docGauge := func(name, help string, value func(ds *docState) float64) {
		reg.LabeledGaugeFunc(name, help, "doc", func() []obs.LabeledValue {
			var out []obs.LabeledValue
			for _, ds := range s.allDocs() {
				ds.mu.Lock()
				v := value(ds)
				ds.mu.Unlock()
				out = append(out, obs.LabeledValue{Label: ds.name, Value: v})
			}
			return out
		})
	}
	docGauge("dtx_checkpoint_lag_records", "Records applied to the document that its saved image does not reflect yet (what a restart would replay).",
		func(ds *docState) float64 { return float64(ds.replApplied - ds.savedIdx) })
	reg.CounterFunc("dtx_mvcc_gc_reclaimed_total", "MVCC versions retired by chain GC.", func() float64 {
		var n int64
		for _, ds := range s.allDocs() {
			n += ds.versions.Reclaimed()
		}
		return float64(n)
	})
	docGauge("dtx_mvcc_chain_length", "Retained MVCC versions per document.",
		func(ds *docState) float64 { return float64(ds.versions.Len()) })
	docGauge("dtx_mvcc_pinned_versions", "MVCC versions pinned by live readers per document.",
		func(ds *docState) float64 { return float64(ds.versions.Pinned()) })
	docGauge("dtx_repl_behind_records", "Replication lag: known primary head minus last applied record, per document.",
		func(ds *docState) float64 { return float64(max(ds.knownHead-ds.replApplied, 0)) })
	docGauge("dtx_repl_staleness_seconds", "Replication lag age: how long this follower has known itself behind, per document.",
		func(ds *docState) float64 {
			if ds.staleSince.IsZero() || ds.knownHead <= ds.replApplied {
				return 0
			}
			return time.Since(ds.staleSince).Seconds()
		})
	return m
}

// Metrics returns the site's registry, for consumers that expose or arm it
// (dtxd's -metrics-addr listener, the harness's latency breakdown).
func (s *Site) Metrics() *obs.Registry { return s.m.reg }

// MetricsText renders the registry — the payload of the MetricsReq RPC, so
// dtxctl can dump any site's metrics over the scheduler transport without an
// HTTP listener. Serving the RPC arms the registry like an HTTP scrape does.
func (s *Site) MetricsText() string {
	s.m.reg.Arm()
	return s.m.reg.Text()
}

// ---- slow-transaction tracer ----

// traceEvent is one step of a transaction's timeline. At is the offset from
// the transaction's begin; Ms is the step's own duration where one is
// measured (lock waits, phase spans).
type traceEvent struct {
	Ev  string  `json:"ev"`
	Doc string  `json:"doc,omitempty"`
	Op  int     `json:"op,omitempty"`
	At  float64 `json:"at_ms"`
	Ms  float64 `json:"ms,omitempty"`
}

// txnTrace is the lightweight per-transaction event timeline. It exists only
// while tracing is armed (Config.TraceSink set, or SlowTxnThreshold > 0);
// fast transactions' traces are dropped on the floor at finish, slow ones
// are rendered as one JSON line. The mutex is a leaf: batched read-only
// steps append concurrently.
type txnTrace struct {
	begin time.Time
	mu    sync.Mutex
	ev    []traceEvent
}

func newTxnTrace() *txnTrace {
	return &txnTrace{begin: time.Now()}
}

// add appends one event. dur <= 0 omits the ms field.
func (tr *txnTrace) add(ev, doc string, op int, dur time.Duration) {
	if tr == nil {
		return
	}
	e := traceEvent{Ev: ev, Doc: doc, Op: op, At: roundMs(time.Since(tr.begin))}
	if dur > 0 {
		e.Ms = roundMs(dur)
	}
	tr.mu.Lock()
	tr.ev = append(tr.ev, e)
	tr.mu.Unlock()
}

func roundMs(d time.Duration) float64 {
	return math.Round(float64(d)/float64(time.Millisecond)*1000) / 1000
}

// traceLine is the emitted structure: one line of JSON per slow transaction.
type traceLine struct {
	Txn     string       `json:"txn"`
	Site    int          `json:"site"`
	State   string       `json:"state"`
	Reason  string       `json:"reason,omitempty"`
	TotalMs float64      `json:"total_ms"`
	Events  []traceEvent `json:"events"`
}

// emitTrace renders and emits the transaction's timeline when it qualifies:
// tracing configured, and the transaction's total time at or above the
// threshold (a zero threshold with a sink traces everything — the
// trace-every-transaction debugging mode). Called after the terminal state
// is recorded; the sink must not call back into the site.
func (s *Site) emitTrace(id txn.ID, state txn.State, reason string, tr *txnTrace) {
	if tr == nil || s.cfg.TraceSink == nil {
		return
	}
	total := time.Since(tr.begin)
	if total < s.cfg.SlowTxnThreshold {
		return
	}
	tr.mu.Lock()
	events := append([]traceEvent(nil), tr.ev...)
	tr.mu.Unlock()
	line := traceLine{
		Txn:     id.String(),
		Site:    s.id,
		State:   state.String(),
		Reason:  reason,
		TotalMs: roundMs(total),
		Events:  events,
	}
	buf, err := json.Marshal(line)
	if err != nil {
		return
	}
	s.cfg.TraceSink(string(buf))
}

// traceFor returns the coordinator-side trace of a transaction, or nil.
// Participant-side code (commitLocal's quorum wait) uses it to attach phase
// events when the coordinator is local; remote participants' phases surface
// through their own site's histograms instead.
func (s *Site) traceFor(id txn.ID) *txnTrace {
	if !s.traceArmed {
		return nil
	}
	s.mu.Lock()
	ct := s.coord[id]
	s.mu.Unlock()
	if ct == nil {
		return nil
	}
	return ct.trace
}
