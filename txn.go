package dtx

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/sched"
	"repro/internal/txn"
)

// Txn is an interactive transaction handle: each step executes immediately
// under strict 2PL, returns what it read, and keeps its locks until Commit
// or Abort — so a client can query, branch on the result, and update within
// one isolated unit of work spanning any number of sites.
//
// The handle is bound to the context passed to Begin. Cancelling it (or its
// deadline expiring) aborts the transaction and releases its locks at every
// participant site; the in-flight and all later calls return an error
// wrapping ErrAborted. A Txn is meant to be driven by one goroutine, like
// database/sql.Tx.
type Txn struct {
	sess *sched.Session
	site int
}

// Begin opens an interactive transaction coordinated by the given site. The
// context governs the whole transaction lifetime.
func (c *Cluster) Begin(ctx context.Context, site int) (*Txn, error) {
	if site < 0 || site >= len(c.ids) {
		return nil, fmt.Errorf("%w: site %d (cluster has %d)", ErrSiteOutOfRange, site, len(c.ids))
	}
	sess, err := c.site(site).Begin(ctx)
	if err != nil {
		return nil, err
	}
	return &Txn{sess: sess, site: site}, nil
}

// BeginReadOnly opens an interactive read-only transaction coordinated by
// the given site, served by the MVCC snapshot-read subsystem instead of the
// lock manager. Every query reads the newest committed version of its
// document at or below the transaction's begin timestamp — never a writer's
// mid-transaction state, and repeatably (re-reading a document observes the
// same version). Read-only transactions acquire no locks and add no wait-for
// edges, so they can never deadlock with writers or be chosen as deadlock
// victims; Commit is a trivially cheap release of the read snapshot. Updates
// are refused with ErrReadOnly without terminating the transaction. A first
// read of a document too long after the begin to cut its state fails the
// transaction with ErrSnapshotUnavailable — resubmit to read a fresh snapshot.
func (c *Cluster) BeginReadOnly(ctx context.Context, site int) (*Txn, error) {
	if site < 0 || site >= len(c.ids) {
		return nil, fmt.Errorf("%w: site %d (cluster has %d)", ErrSiteOutOfRange, site, len(c.ids))
	}
	sess, err := c.site(site).BeginReadOnly(ctx)
	if err != nil {
		return nil, err
	}
	return &Txn{sess: sess, site: site}, nil
}

// ID returns the transaction identifier (coordinator site + sequence).
func (t *Txn) ID() string { return t.sess.ID().String() }

// ReadOnly reports whether the transaction was opened with BeginReadOnly.
func (t *Txn) ReadOnly() bool { return t.sess.ReadOnly() }

// Site returns the coordinator site of the transaction.
func (t *Txn) Site() int { return t.site }

// Err returns the transaction's terminal error: nil while it is running or
// after a successful commit, the typed abort/failure error otherwise.
func (t *Txn) Err() error { return t.sess.Err() }

// Do executes one operation and returns its query results (nil for
// updates). On error the transaction is already resolved — aborted or
// failed everywhere, locks released — and every later call returns the same
// terminal error.
func (t *Txn) Do(op Op) ([]string, error) {
	return t.sess.Exec(op.inner)
}

// Query reads the nodes selected by the XPath expression and returns their
// string rendering (attribute value for /@attr steps, text content
// otherwise), read-locked until the transaction ends.
func (t *Txn) Query(doc, path string) ([]string, error) {
	return t.Do(Query(doc, path))
}

// DoBatch executes several independent read-only operations concurrently —
// their per-site round trips overlap instead of paying one round trip per
// step — and returns their query results in argument order. All operations
// must be queries (built with Query); reads of one transaction have no
// mutual ordering a client can observe, since under strict 2PL every lock
// is held until Commit or Abort either way. A batch refused up front (an
// operation that is not a query, or malformed) returns an error WITHOUT
// affecting the transaction — it stays live, holding its locks, and
// accepts further steps. An error from executing the batch means the
// transaction is already resolved cluster-wide, exactly as for Do.
func (t *Txn) DoBatch(ops ...Op) ([][]string, error) {
	inner := make([]txn.Operation, len(ops))
	for i, op := range ops {
		inner[i] = op.inner
	}
	return t.sess.ExecBatch(inner)
}

// Insert adds a new subtree at the given position relative to the target.
func (t *Txn) Insert(doc, target string, pos Position, node Node) error {
	_, err := t.Do(Insert(doc, target, pos, node))
	return err
}

// Remove deletes the subtree(s) selected by the target path.
func (t *Txn) Remove(doc, target string) error {
	_, err := t.Do(Remove(doc, target))
	return err
}

// Rename changes the element name of the selected node(s).
func (t *Txn) Rename(doc, target, newName string) error {
	_, err := t.Do(Rename(doc, target, newName))
	return err
}

// Change replaces the text content of the selected node(s).
func (t *Txn) Change(doc, target, value string) error {
	_, err := t.Do(Change(doc, target, value))
	return err
}

// ChangeAttr sets an attribute on the selected node(s).
func (t *Txn) ChangeAttr(doc, target, attr, value string) error {
	_, err := t.Do(ChangeAttr(doc, target, attr, value))
	return err
}

// Transpose swaps the positions of the two selected nodes.
func (t *Txn) Transpose(doc, a, b string) error {
	_, err := t.Do(Transpose(doc, a, b))
	return err
}

// Commit consolidates the transaction at every involved site and releases
// its locks. A pending deadlock-victim signal or context cancellation wins
// and aborts instead, returning the corresponding typed error.
func (t *Txn) Commit() error { return t.sess.Commit() }

// Abort rolls the transaction back everywhere and releases its locks.
// Returns nil on a clean abort; a second Abort (or one after Commit)
// returns the transaction's terminal error or ErrTxnDone.
func (t *Txn) Abort() error { return t.sess.Abort() }

// RetryPolicy bounds the resubmission of deadlock victims: MaxAttempts
// total tries with exponential backoff between them. The zero value is
// usable and means DefaultRetryPolicy.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries, first included (default 5).
	MaxAttempts int
	// Backoff is the pause before the first retry (default 2ms).
	Backoff time.Duration
	// MaxBackoff caps the growing pause (default 250ms).
	MaxBackoff time.Duration
	// Multiplier scales the pause after every retry (default 2).
	Multiplier float64
}

// DefaultRetryPolicy is a sensible policy for contended workloads.
var DefaultRetryPolicy = RetryPolicy{
	MaxAttempts: 5,
	Backoff:     2 * time.Millisecond,
	MaxBackoff:  250 * time.Millisecond,
	Multiplier:  2,
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = DefaultRetryPolicy.MaxAttempts
	}
	if p.Backoff <= 0 {
		p.Backoff = DefaultRetryPolicy.Backoff
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = DefaultRetryPolicy.MaxBackoff
	}
	if p.Multiplier < 1 {
		p.Multiplier = DefaultRetryPolicy.Multiplier
	}
	return p
}

// SubmitWithRetry runs the transaction like SubmitCtx but resubmits it when
// it is aborted as a deadlock victim — the paper leaves resubmission "to the
// application", and this is that decision packaged as a bounded
// exponential-backoff policy. ErrDeadlock and ErrSnapshotUnavailable
// outcomes are retried (both mean "resubmission is safe and should
// succeed"); any other error (including a cancellation-triggered ErrAborted)
// returns immediately. After MaxAttempts the last retryable error is
// returned.
func (c *Cluster) SubmitWithRetry(ctx context.Context, site int, policy RetryPolicy, ops ...Op) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	policy = policy.withDefaults()
	backoff := policy.Backoff
	for attempt := 1; ; attempt++ {
		res, err := c.SubmitCtx(ctx, site, ops...)
		retryable := errors.Is(err, ErrDeadlock) || errors.Is(err, ErrSnapshotUnavailable)
		if err == nil || !retryable || attempt >= policy.MaxAttempts {
			return res, err
		}
		timer := time.NewTimer(backoff)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return res, fmt.Errorf("%w: %w", ErrAborted, context.Cause(ctx))
		}
		backoff = time.Duration(float64(backoff) * policy.Multiplier)
		if backoff > policy.MaxBackoff {
			backoff = policy.MaxBackoff
		}
	}
}

// result converts a scheduler outcome into the public shape.
func result(res *sched.Result) *Result {
	return &Result{
		ID:        res.Txn.String(),
		Committed: res.State == txn.Committed,
		State:     strings.ToLower(res.State.String()),
		Reason:    res.Reason,
		Results:   res.Results,
	}
}
