// Package transport implements the communication infrastructure between DTX
// schedulers — the first of the three modifications the paper makes to run
// XDGL distributed: "a communication infrastructure between schedulers was
// inserted, allowing it to execute remote functions, at the same time that
// it acquires necessary locks and allows the commitment and abortion of a
// distributed transaction".
//
// Two interchangeable transports are provided: an in-process network with
// configurable synthetic latency (the default for experiments, standing in
// for the paper's 100 Mbit/s LAN), and a TCP transport using encoding/gob
// for multi-process deployments (cmd/dtxd).
package transport

import (
	"encoding/gob"

	"repro/internal/store"
	"repro/internal/txn"
	"repro/internal/wfg"
)

// ExecOpReq asks a participant to execute one remote operation of a
// distributed transaction (Algorithm 1, l. 13 / Algorithm 2). A query is
// sent to one replica, its document's read site, which locks and evaluates
// it; an update is sent to every replica, and each locks and applies it.
type ExecOpReq struct {
	Txn         txn.ID
	TS          txn.TS
	Coordinator int
	OpIdx       int
	Op          txn.Operation
}

// ExecOpResp reports the outcome of a remote operation, carrying the status
// flags of Algorithm 2 back to the coordinator (l. 13). Code classifies a
// failure with one of the txn error codes so the coordinator can rebuild a
// typed error (txn.FromCode) instead of a bare string.
type ExecOpResp struct {
	Site           int
	Executed       bool
	AcquireLocking bool
	Deadlock       bool
	Failed         bool
	Code           string
	Error          string
	Results        []string
}

// UndoOpReq asks a participant to undo one executed operation because the
// operation failed to acquire locks at some other site (Algorithm 1, l. 16).
type UndoOpReq struct {
	Txn   txn.ID
	OpIdx int
}

// CommitReq asks a participant to consolidate a transaction (Algorithm 5).
type CommitReq struct{ Txn txn.ID }

// AbortReq asks a participant to cancel a transaction (Algorithm 6).
type AbortReq struct{ Txn txn.ID }

// Ack is the generic acknowledgement response. Consolidated distinguishes a
// failed CommitReq whose receiver nonetheless applied the transaction's
// effects (e.g. a quorum shortfall after the local commit point of no
// return) from a clean refusal — the coordinator must fail, not abort, when
// any participant consolidated.
type Ack struct {
	OK           bool
	Consolidated bool
	Error        string
}

// WFGReq pulls a site's wait-for graph snapshot (Algorithm 4, l. 4).
type WFGReq struct{}

// WFGResp carries the snapshot.
type WFGResp struct{ Edges []wfg.Edge }

// VictimReq asks the coordinator of a transaction to abort it because the
// distributed deadlock detector chose it as the victim (Algorithm 4, l. 8).
type VictimReq struct {
	Txn    txn.ID
	Reason string
}

// WakeReq tells a coordinator that locks one of its waiting transactions
// was blocked on have been released ("when a transaction commits, those
// that entered wait mode ... start executing again").
type WakeReq struct{ Txn txn.ID }

// SubmitReq carries a client transaction to a site's Listener (used by the
// TCP transport; in-process clients call the site API directly). ReadOnly
// submits the transaction through the MVCC snapshot-read path: every
// operation must be a query, no locks are taken, and the reads observe the
// committed versions at or below the transaction's begin timestamp.
type SubmitReq struct {
	Ops      []txn.Operation
	ReadOnly bool
}

// SubmitResp reports the outcome of a client transaction. Code carries the
// txn error code of a non-committed outcome so remote clients keep typed
// errors (txn.FromCode) across the wire.
type SubmitResp struct {
	Txn     txn.ID
	State   string
	Results [][]string
	Code    string
	Error   string
}

// PingReq is a liveness heartbeat. The receiver answers Ack{OK:true} once it
// is serving (a recovering site answers OK:false so peers keep routing
// around it until catch-up completes).
type PingReq struct{}

// TxnStatusReq asks a site what it knows about a transaction's outcome —
// the query of the presumed-abort termination protocol. A recovering
// participant sends it to the transaction's coordinator (which answers from
// its decision records and tombstones) and, failing that, to every site
// that may have participated.
type TxnStatusReq struct{ Txn txn.ID }

// Transaction outcomes carried by TxnStatusResp.
const (
	OutcomeCommitted = "committed"
	OutcomeAborted   = "aborted"
	OutcomeActive    = "active"
	OutcomeUnknown   = "unknown"
)

// TxnStatusResp answers a TxnStatusReq. Authoritative marks the answer of a
// transaction's own coordinator (including the presumed abort it derives
// from the absence of a decision record); participant answers are hearsay a
// resolver combines — any "committed" wins, since a participant can only
// have consolidated after the coordinator decided commit.
type TxnStatusResp struct {
	Outcome       string
	Authoritative bool
}

// FetchDocReq asks a site for the committed XML of a document it holds — the
// catch-up path a restarted replica uses before rejoining.
type FetchDocReq struct{ Doc string }

// FetchDocResp carries the serialized document. Found is false when the
// site does not hold the document (or is itself recovering and cannot vouch
// for its copy). Head is the log index the serialized state reflects, cut
// atomically with the document so the fetcher can install both together and
// resume incremental replication from it.
type FetchDocResp struct {
	Found bool
	XML   string
	Head  int64
}

// SiteStatusReq asks a site for its operational status (dtxctl -status).
type SiteStatusReq struct{}

// PeerStatus is one entry of a site's liveness view.
type PeerStatus struct {
	Site   int
	Status string // "up" | "suspect" | "down"
}

// DocStatus is one document's log view at a site: its role there (primary
// or replica), the last log record it applied (the journal head), the record
// its saved image reflects (Checkpoint — a restart replays the records
// between the two), the newest record it knows the primary holds, and the
// gap to it. Outside quorum mode Head equals Applied.
type DocStatus struct {
	Name       string
	Primary    int
	Role       string // "primary" | "replica"
	Applied    int64
	Checkpoint int64
	Head       int64
	Behind     int64
}

// SiteStatusResp reports a site's documents, liveness view, headline
// counters and the lock protocol every document at the site runs under.
type SiteStatusResp struct {
	Site      int
	Ready     bool
	Protocol  string
	Documents []string
	Docs      []DocStatus
	Peers     []PeerStatus
	Committed int64
	Aborted   int64
	Failed    int64
}

// MetricsReq asks a site for its metrics registry rendered in Prometheus
// text format — the transport-level scrape dtxctl -metrics uses, so any
// site can be inspected without an HTTP listener. Serving it arms the
// site's gated instrumentation, like an HTTP scrape does.
type MetricsReq struct{}

// MetricsResp carries the exposition text.
type MetricsResp struct {
	Site int
	Text string
}

// RecoverReq asks a site to run an online recovery pass: checkpoint every
// document, then settle the journal's dangling coordinator decisions with
// the termination protocol. (Document catch-up is a restart-only step — a
// serving site's in-memory state is already authoritative.)
type RecoverReq struct{}

// RecoverResp summarises the recovery pass.
type RecoverResp struct {
	Resolved int
	Report   string
	Error    string
}

// SnapshotReadReq asks a site to evaluate one query of a read-only
// transaction against the newest committed version of a document at or
// below the transaction's begin timestamp TS. The receiver pins that
// version for the transaction — repeated reads of the document observe the
// same version — until a SnapshotReleaseReq (or the orphan sweep, if the
// coordinator dies) releases the pins. No locks are taken and no wait-for
// edges are added.
type SnapshotReadReq struct {
	Txn         txn.ID
	TS          txn.TS
	Coordinator int
	Doc         string
	Query       string
}

// SnapshotReadResp answers a SnapshotReadReq. VersionTS is the commit
// timestamp of the version the query ran against.
type SnapshotReadResp struct {
	Site      int
	Failed    bool
	Code      string
	Error     string
	Results   []string
	VersionTS txn.TS
}

// SnapshotReleaseReq tells a site that a read-only transaction finished:
// every version it pinned there can be released. Fire-and-forget cleanup —
// a lost release is recovered by the orphan sweep.
type SnapshotReleaseReq struct{ Txn txn.ID }

// LogShipReq streams replication-log records for one document from its
// primary to a follower. Records are the contiguous span after the
// follower's last acked index; Head is the primary's newest index, so a
// follower always learns how far behind it is even when Records is partial.
type LogShipReq struct {
	Doc     string
	From    int // shipping (primary) site
	Primary int
	Head    int64
	Records []store.ReplRecord
}

// LogAck answers a LogShipReq with the follower's applied index. A follower
// that detects a gap (the span starts past its applied index) sets NeedFrom
// to the index it must be resent from; the primary rewinds and retries.
type LogAck struct {
	Site     int
	Applied  int64
	NeedFrom int64
	OK       bool
	Error    string
}

// LogFetchReq asks a document's primary for the replication records after a
// given index — the incremental catch-up path a restarted follower uses
// before falling back to whole-document transfer.
type LogFetchReq struct {
	Doc   string
	After int64
}

// LogFetchResp answers a LogFetchReq. PastHorizon reports that the span is
// no longer retained (compacted away) and the follower must fetch the whole
// document instead.
type LogFetchResp struct {
	Found       bool
	PastHorizon bool
	Head        int64
	Records     []store.ReplRecord
}

func init() {
	gob.Register(ExecOpReq{})
	gob.Register(ExecOpResp{})
	gob.Register(UndoOpReq{})
	gob.Register(CommitReq{})
	gob.Register(AbortReq{})
	gob.Register(Ack{})
	gob.Register(WFGReq{})
	gob.Register(WFGResp{})
	gob.Register(VictimReq{})
	gob.Register(WakeReq{})
	gob.Register(SubmitReq{})
	gob.Register(SubmitResp{})
	gob.Register(PingReq{})
	gob.Register(TxnStatusReq{})
	gob.Register(TxnStatusResp{})
	gob.Register(FetchDocReq{})
	gob.Register(FetchDocResp{})
	gob.Register(SiteStatusReq{})
	gob.Register(SiteStatusResp{})
	gob.Register(MetricsReq{})
	gob.Register(MetricsResp{})
	gob.Register(RecoverReq{})
	gob.Register(RecoverResp{})
	gob.Register(SnapshotReadReq{})
	gob.Register(SnapshotReadResp{})
	gob.Register(SnapshotReleaseReq{})
	gob.Register(LogShipReq{})
	gob.Register(LogAck{})
	gob.Register(LogFetchReq{})
	gob.Register(LogFetchResp{})
}
