package txn

import (
	"errors"
	"fmt"
)

// Sentinel errors shared by every layer of the system and re-exported by the
// public dtx package. They classify transaction outcomes so clients can
// branch with errors.Is instead of matching reason strings:
//
//   - ErrAborted: the transaction was rolled back cleanly — by the deadlock
//     detector, by context cancellation, or by the client itself. Every
//     participant site undid its effects and released its locks.
//   - ErrDeadlock: the transaction was chosen as a deadlock victim. Wraps
//     ErrAborted, so errors.Is(err, ErrAborted) also holds; resubmission is
//     safe and is what a retry policy automates.
//   - ErrFailed: the transaction could not be cleanly resolved (an operation
//     failed mid-flight, or commit/abort was rejected at a participant).
//   - ErrUnknownDocument: an operation named a document no site holds.
//   - ErrSiteOutOfRange: a site index does not exist in the cluster.
//   - ErrTxnDone: a step arrived after the transaction already committed or
//     rolled back.
//   - ErrReplicaUnavailable: an operation needed a replica at a site that is
//     currently down or suspected down. Reads route around dead replicas
//     automatically, so this surfaces when NO replica of a document is
//     believed alive, or when a write would touch a partially-down replica
//     set (a write must reach every copy, so it fails fast instead).
//   - ErrReadOnly: an update was attempted on a read-only transaction. The
//     refusal is non-terminal: the transaction stays live and keeps serving
//     snapshot reads.
//   - ErrSnapshotUnavailable: a read-only transaction needed a committed
//     state at its begin timestamp, but the document's undo log no longer
//     reaches back that far ("snapshot too old"). Wraps ErrAborted;
//     resubmission starts a fresh snapshot and is safe, so retry policies
//     treat it like a deadlock victim.
var (
	ErrAborted             = errors.New("dtx: transaction aborted")
	ErrDeadlock            = fmt.Errorf("%w (deadlock victim)", ErrAborted)
	ErrSnapshotUnavailable = fmt.Errorf("%w (snapshot unavailable)", ErrAborted)
	ErrFailed              = errors.New("dtx: transaction failed")
	ErrUnknownDocument     = errors.New("dtx: unknown document")
	ErrSiteOutOfRange      = errors.New("dtx: site out of range")
	ErrTxnDone             = errors.New("dtx: transaction already finished")
	ErrReplicaUnavailable  = errors.New("dtx: replica unavailable")
	ErrReadOnly            = errors.New("dtx: read-only transaction")
)

// Wire codes for the sentinels. Transport responses carry a code next to the
// human-readable message so typed errors survive crossing site boundaries.
const (
	CodeNone                = ""
	CodeAborted             = "aborted"
	CodeDeadlock            = "deadlock"
	CodeFailed              = "failed"
	CodeUnknownDocument     = "unknown-document"
	CodeSiteOutOfRange      = "site-out-of-range"
	CodeReplicaUnavailable  = "replica-unavailable"
	CodeSnapshotUnavailable = "snapshot-unavailable"
	CodeReadOnly            = "read-only"

	// CodeReplicaStale is a refinement of CodeReplicaUnavailable a follower
	// answers when it is healthy but lagging beyond the bounded-staleness
	// window: the caller should retry at the primary WITHOUT marking the
	// follower suspect. It maps back to ErrReplicaUnavailable — servers set
	// the code explicitly, never via ErrorCode.
	CodeReplicaStale = "replica-stale"
)

// ErrorCode maps an error to its wire code. Unclassified errors map to
// CodeFailed so a remote peer never mistakes a failure for success; nil maps
// to CodeNone.
func ErrorCode(err error) string {
	switch {
	case err == nil:
		return CodeNone
	case errors.Is(err, ErrUnknownDocument):
		return CodeUnknownDocument
	case errors.Is(err, ErrDeadlock):
		return CodeDeadlock
	case errors.Is(err, ErrSnapshotUnavailable):
		return CodeSnapshotUnavailable
	case errors.Is(err, ErrAborted):
		return CodeAborted
	case errors.Is(err, ErrReadOnly):
		return CodeReadOnly
	case errors.Is(err, ErrSiteOutOfRange):
		return CodeSiteOutOfRange
	case errors.Is(err, ErrReplicaUnavailable):
		return CodeReplicaUnavailable
	default:
		return CodeFailed
	}
}

// FromCode reconstructs a typed error from a wire code and message — the
// inverse of ErrorCode, up to the sentinel the code names. An empty code with
// a message is an unclassified failure; an empty code without one is nil.
func FromCode(code, msg string) error {
	var base error
	switch code {
	case CodeNone:
		if msg == "" {
			return nil
		}
		base = ErrFailed
	case CodeAborted:
		base = ErrAborted
	case CodeDeadlock:
		base = ErrDeadlock
	case CodeUnknownDocument:
		base = ErrUnknownDocument
	case CodeSiteOutOfRange:
		base = ErrSiteOutOfRange
	case CodeReplicaUnavailable, CodeReplicaStale:
		base = ErrReplicaUnavailable
	case CodeSnapshotUnavailable:
		base = ErrSnapshotUnavailable
	case CodeReadOnly:
		base = ErrReadOnly
	default:
		base = ErrFailed
	}
	if msg == "" {
		return base
	}
	return fmt.Errorf("%w: %s", base, msg)
}
