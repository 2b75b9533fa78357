package dtx

import (
	"repro/internal/txn"
)

// Sentinel errors of the public API. Every transaction-terminating failure
// returned by Cluster.Submit, Cluster.SubmitWithRetry and the Txn methods
// wraps exactly one of these, so clients branch with errors.Is instead of
// parsing reason strings:
//
//	res, err := cluster.Submit(0, ops...)
//	switch {
//	case err == nil:                          // committed
//	case errors.Is(err, dtx.ErrDeadlock):     // victim — safe to resubmit
//	case errors.Is(err, dtx.ErrUnknownDocument):
//	    ...
//	}
//
// Relationships: ErrDeadlock wraps ErrAborted (a deadlock victim is an
// aborted transaction), and a cancellation-triggered abort additionally
// wraps the context's cause (context.Canceled or context.DeadlineExceeded).
var (
	// ErrAborted: the transaction was rolled back cleanly — deadlock victim,
	// context cancellation, or client Abort. All effects were undone and all
	// locks released; resubmission is safe.
	ErrAborted = txn.ErrAborted
	// ErrDeadlock: the transaction was aborted as a deadlock victim (wraps
	// ErrAborted). SubmitWithRetry retries exactly this class.
	ErrDeadlock = txn.ErrDeadlock
	// ErrTxnFailed: the transaction could not be resolved cleanly (an
	// operation failed mid-flight or a participant rejected commit/abort).
	ErrTxnFailed = txn.ErrFailed
	// ErrUnknownDocument: an operation named a document no site holds.
	ErrUnknownDocument = txn.ErrUnknownDocument
	// ErrSiteOutOfRange: a site index does not exist in this cluster.
	ErrSiteOutOfRange = txn.ErrSiteOutOfRange
	// ErrTxnDone: a step or commit arrived after the transaction already
	// reached a terminal state.
	ErrTxnDone = txn.ErrTxnDone
	// ErrReplicaUnavailable: the operation needed a replica at a site that
	// is down or suspected down. Reads route around dead replicas
	// automatically, so this surfaces when no replica of a document is
	// believed alive, or when a write would touch a partially-down replica
	// set — in the default eager mode writes must reach every copy, so they
	// fail fast instead of queueing behind a dead site. Under
	// Config.Replication "quorum" a write fails this way only when the
	// document's PRIMARY is down: down followers are routed around, and the
	// commit proceeds on the write quorum. Retry once the site is restarted
	// (RestartSite) or the failure detector readmits it.
	ErrReplicaUnavailable = txn.ErrReplicaUnavailable
	// ErrReadOnly: an update was attempted on a read-only transaction
	// (BeginReadOnly / SubmitReadOnly). The refusal is non-terminal for an
	// interactive Txn — it stays live and keeps serving snapshot reads.
	ErrReadOnly = txn.ErrReadOnly
	// ErrSnapshotUnavailable: a read-only transaction needed a committed
	// state at its begin timestamp, but the document's undo log no longer
	// reaches back that far ("snapshot too old"). Wraps ErrAborted;
	// resubmission starts a fresh snapshot and is safe — SubmitWithRetry
	// retries this class alongside deadlock victims.
	ErrSnapshotUnavailable = txn.ErrSnapshotUnavailable
)
