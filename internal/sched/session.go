package sched

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/txn"
)

// Session is an interactive coordinator-side transaction: operations are
// executed one at a time with Exec, each returning its result immediately so
// the client can branch on what it read while the locks of every prior step
// are still held (strict 2PL — nothing is released before the terminal
// commit or abort). A Session is bound to the context passed to Begin:
// cancelling it aborts the transaction and releases its locks at every
// participant site, whether a step is in flight or the client is between
// operations.
//
// A Session is not safe for concurrent steps — like database/sql.Tx, one
// goroutine drives it. Cancellation and deadlock-victim signals arrive from
// other goroutines and are serialised internally.
type Session struct {
	site     *Site
	ctx      context.Context
	ct       *coordTxn
	readOnly bool // immutable after begin: steps go through the MVCC snapshot path

	mu      sync.Mutex
	inStep  bool
	done    bool
	state   txn.State
	err     error  // terminal cause; nil after a successful commit
	unwatch func() // deregisters the cancellation callbacks Begin set up
}

// Begin opens an interactive transaction with this site as coordinator.
// The context governs the whole transaction: when it is cancelled, the
// transaction is aborted (Algorithm 6) and every lock it holds anywhere in
// the cluster is released.
func (s *Site) Begin(ctx context.Context) (*Session, error) {
	return s.begin(ctx, false)
}

// BeginReadOnly opens an interactive read-only transaction with this site as
// coordinator. Its begin timestamp (the Lamport timestamp every transaction
// resolves at begin) doubles as the snapshot timestamp: each query pins and
// reads the newest committed version of its document at or below it, taking
// no locks and adding no wait-for edges, so read-only transactions can never
// deadlock with writers or be chosen as deadlock victims. Updates are refused
// with ErrReadOnly (non-terminal — the session stays live); Commit is the
// trivially vacuous release of the pinned versions.
func (s *Site) BeginReadOnly(ctx context.Context) (*Session, error) {
	return s.begin(ctx, true)
}

func (s *Site) begin(ctx context.Context, readOnly bool) (*Session, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if s.ctx.Err() != nil {
		return nil, fmt.Errorf("sched: site %d is stopped", s.id)
	}
	if !s.Ready() {
		// A recovering site must not coordinate either: an acknowledged
		// write would race the catch-up that replaces its documents.
		return nil, fmt.Errorf("%w: site %d is recovering", txn.ErrReplicaUnavailable, s.id)
	}
	if err := abortCause(ctx); err != nil {
		return nil, err
	}
	sess := &Session{site: s, ctx: ctx, ct: s.beginTxn(), readOnly: readOnly}
	// Cancelling the client's context or stopping the site aborts an idle
	// session; an in-flight step observes both in its own wait loop.
	// Registered under sess.mu, so a callback that fires at once waits
	// until unwatch is set.
	sess.mu.Lock()
	stopClient := context.AfterFunc(ctx, func() { sess.cancel(abortCause(ctx)) })
	stopSite := context.AfterFunc(s.ctx, func() { sess.cancel(abortCause(s.ctx)) })
	sess.unwatch = func() { stopClient(); stopSite() }
	sess.mu.Unlock()
	return sess, nil
}

// ID returns the transaction identifier.
func (sess *Session) ID() txn.ID { return sess.ct.t.ID }

// ReadOnly reports whether the session was opened with BeginReadOnly.
func (sess *Session) ReadOnly() bool { return sess.readOnly }

// step returns the executor for one operation of this session: the locking
// execOp for read-write transactions, the pin-and-read snapshot path for
// read-only ones.
func (sess *Session) step() func(context.Context, *coordTxn, int) error {
	if sess.readOnly {
		return sess.site.execSnapshotOp
	}
	return sess.site.execOp
}

// Done reports whether the transaction has reached a terminal state.
func (sess *Session) Done() bool {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.done
}

// Err returns the terminal cause: nil while the transaction is running or
// after it committed, the typed abort/failure error otherwise.
func (sess *Session) Err() error {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.err
}

// cancel terminates an idle session. If a step is in flight it does nothing:
// the step's own context/stop checks terminate the session, including the
// post-step re-check that closes the race with a cancellation arriving just
// as the step completes.
func (sess *Session) cancel(cause error) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.done || sess.inStep {
		return
	}
	sess.terminateLocked(cause)
}

// interrupted reports why the session must stop accepting work — the site
// shutting down or the context being cancelled — or nil. A cancellation
// callback fires only once and defers to an in-flight step, so every
// Exec/Commit boundary re-checks both conditions here; without this a stop
// racing a step would be lost for the session's remaining lifetime.
func (sess *Session) interrupted() error {
	return cmp.Or(abortCause(sess.site.ctx), abortCause(sess.ctx))
}

// Exec runs one operation of the transaction — a query at its document's
// read site, an update at every site holding the document — and returns
// the operation's query results (nil for updates). On error the
// transaction has already been resolved — aborted or failed cluster-wide,
// locks released — and the same terminal error is returned by any further
// call.
func (sess *Session) Exec(op txn.Operation) ([]string, error) {
	sess.mu.Lock()
	if sess.done {
		err := cmp.Or(sess.err, txn.ErrTxnDone)
		sess.mu.Unlock()
		return nil, err
	}
	if sess.inStep {
		sess.mu.Unlock()
		return nil, fmt.Errorf("sched: %s: concurrent step on one transaction", sess.ct.t.ID)
	}
	opIdx := len(sess.ct.t.Ops)
	if sess.readOnly && op.Kind != txn.OpQuery {
		// Non-terminal refusal, before the operation is recorded: the
		// transaction stays live and keeps serving snapshot reads.
		sess.mu.Unlock()
		return nil, fmt.Errorf("%w: operation %d is an update", txn.ErrReadOnly, opIdx)
	}
	if err := validateOp(opIdx, op); err != nil {
		sess.mu.Unlock()
		return nil, err
	}
	if ierr := sess.interrupted(); ierr != nil {
		sess.terminateLocked(ierr)
		err := sess.err
		sess.mu.Unlock()
		return nil, err
	}
	sess.ct.t.Ops = append(sess.ct.t.Ops, op)
	sess.ct.results = append(sess.ct.results, nil)
	sess.inStep = true
	sess.mu.Unlock()

	stepErr := sess.step()(sess.ctx, sess.ct, opIdx)

	sess.mu.Lock()
	defer sess.mu.Unlock()
	sess.inStep = false
	if stepErr == nil {
		// Cancelled or stopped in the instant the step succeeded: the
		// cancellation callback saw a step in flight and deferred to us.
		stepErr = sess.interrupted()
	}
	if stepErr != nil {
		sess.terminateLocked(stepErr)
		return nil, sess.err
	}
	return sess.ct.results[opIdx], nil
}

// ExecBatch runs several read-only operations of the transaction
// concurrently and returns their query results in operation order. The
// operations must all be queries: reads of one transaction have no mutual
// ordering a client can observe — under strict 2PL their locks are all held
// until the terminal commit or abort either way — so they may overlap their
// per-site round trips; updates order against other operations and must go
// through Exec. A batch refused up front (a non-query or malformed
// operation) returns an error without affecting the session, which stays
// live and usable; an error from executing the batch means the transaction
// has already been resolved cluster-wide, exactly as for Exec.
func (sess *Session) ExecBatch(ops []txn.Operation) ([][]string, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	sess.mu.Lock()
	if sess.done {
		err := cmp.Or(sess.err, txn.ErrTxnDone)
		sess.mu.Unlock()
		return nil, err
	}
	if sess.inStep {
		sess.mu.Unlock()
		return nil, fmt.Errorf("sched: %s: concurrent step on one transaction", sess.ct.t.ID)
	}
	base := len(sess.ct.t.Ops)
	for i := range ops {
		if ops[i].Kind != txn.OpQuery {
			sess.mu.Unlock()
			return nil, fmt.Errorf("sched: batch operation %d is not read-only", i)
		}
		if err := validateOp(base+i, ops[i]); err != nil {
			sess.mu.Unlock()
			return nil, err
		}
	}
	if ierr := sess.interrupted(); ierr != nil {
		sess.terminateLocked(ierr)
		err := sess.err
		sess.mu.Unlock()
		return nil, err
	}
	sess.ct.t.Ops = append(sess.ct.t.Ops, ops...)
	sess.ct.results = append(sess.ct.results, make([][]string, len(ops))...)
	sess.inStep = true
	sess.mu.Unlock()

	stepErr := sess.site.execOps(sess.ctx, sess.ct, base, len(ops), sess.step())

	sess.mu.Lock()
	defer sess.mu.Unlock()
	sess.inStep = false
	if stepErr == nil {
		stepErr = sess.interrupted()
	}
	if stepErr != nil {
		sess.terminateLocked(stepErr)
		return nil, sess.err
	}
	return sess.ct.results[base : base+len(ops)], nil
}

// Commit consolidates the transaction at every involved site (Algorithm 5).
// A pending deadlock-victim signal or context cancellation takes precedence
// and aborts instead.
func (sess *Session) Commit() error {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.done {
		if sess.err != nil {
			return sess.err
		}
		return txn.ErrTxnDone
	}
	if sess.inStep {
		return fmt.Errorf("sched: %s: commit while a step is in flight", sess.ct.t.ID)
	}
	select {
	case r := <-sess.ct.abortCh:
		sess.terminateLocked(fmt.Errorf("%w: %s", txn.ErrDeadlock, r))
		return sess.err
	default:
	}
	if ierr := sess.interrupted(); ierr != nil {
		sess.terminateLocked(ierr)
		return sess.err
	}
	if sess.readOnly {
		// Trivially vacuous commit: a read-only transaction has no effects
		// anywhere — no 2PC round, no decision record; just release the
		// pinned versions, local and remote.
		sess.site.releaseReadOnly(sess.ct)
		sess.finishLocked(txn.Committed, nil)
		return nil
	}
	switch err := sess.site.commitTransaction(sess.ct); {
	case err == nil:
		sess.finishLocked(txn.Committed, nil)
	case errors.Is(err, txn.ErrReplicaUnavailable):
		sess.finishLocked(txn.Aborted, err) // a lost read site: nothing was written
	default:
		sess.finishLocked(txn.Failed, err)
	}
	return sess.err
}

// Abort cancels the transaction at every involved site (Algorithm 6),
// undoing its operations and releasing its locks. Returns nil on a clean
// abort; aborting an already-finished transaction returns its terminal
// error (or ErrTxnDone after a commit).
func (sess *Session) Abort() error {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.done {
		if sess.err != nil {
			return sess.err
		}
		return txn.ErrTxnDone
	}
	if sess.inStep {
		return fmt.Errorf("sched: %s: abort while a step is in flight", sess.ct.t.ID)
	}
	if sess.readOnly {
		sess.site.releaseReadOnly(sess.ct)
		sess.finishLocked(txn.Aborted, fmt.Errorf("%w: rolled back by the client", txn.ErrAborted))
		return nil
	}
	if sess.site.abortTransaction(sess.ct) {
		sess.finishLocked(txn.Aborted, fmt.Errorf("%w: rolled back by the client", txn.ErrAborted))
		return nil
	}
	sess.finishLocked(txn.Failed, fmt.Errorf("%w: abort could not cancel at every site", txn.ErrFailed))
	return sess.err
}

// Result snapshots the terminal outcome in the batch-submission shape. Valid
// once the session is done; the batch Submit path uses it.
func (sess *Session) Result() *Result {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	reason := ""
	if sess.err != nil {
		reason = sess.err.Error()
	}
	return &Result{
		Txn:     sess.ct.t.ID,
		State:   sess.state,
		Results: sess.ct.results,
		Reason:  reason,
		Err:     sess.err,
	}
}

// terminateLocked resolves a live transaction after a step error or
// cancellation: failures (unresolvable state) broadcast failure, everything
// else aborts cleanly — escalating to failure if some participant cannot
// cancel (Algorithm 6, l. 5–10). Callers hold sess.mu.
func (sess *Session) terminateLocked(cause error) {
	s := sess.site
	if sess.readOnly {
		// Nothing to undo and no locks to release anywhere: terminating a
		// read-only transaction is pin release, never a failure broadcast.
		s.releaseReadOnly(sess.ct)
		if errors.Is(cause, txn.ErrFailed) || errors.Is(cause, txn.ErrUnknownDocument) {
			sess.finishLocked(txn.Failed, cause)
		} else {
			sess.finishLocked(txn.Aborted, cause)
		}
		return
	}
	switch {
	case errors.Is(cause, txn.ErrFailed) || errors.Is(cause, txn.ErrUnknownDocument):
		s.failTransaction(sess.ct)
		sess.finishLocked(txn.Failed, cause)
	default:
		if s.abortTransaction(sess.ct) {
			sess.finishLocked(txn.Aborted, cause)
		} else {
			sess.finishLocked(txn.Failed, cause)
		}
	}
}

// finishLocked records the terminal state, updates the site counters, and
// unregisters the coordinator-side transaction. Callers hold sess.mu.
func (sess *Session) finishLocked(state txn.State, cause error) {
	s := sess.site
	id := sess.ct.t.ID
	sess.done = true
	sess.state = state
	sess.err = cause
	switch state {
	case txn.Committed:
		s.m.txnsCommitted.Inc()
	case txn.Aborted:
		s.m.txnsAborted.Inc()
		if errors.Is(cause, txn.ErrDeadlock) {
			s.m.deadlockAborts.Inc()
		}
	case txn.Failed:
		s.m.txnsFailed.Inc()
	}
	sess.ct.t.State = state
	s.mu.Lock()
	delete(s.coord, id)
	s.mu.Unlock()
	sess.unwatch()
	if tr := sess.ct.trace; tr != nil {
		reason := ""
		if cause != nil {
			reason = cause.Error()
		}
		tr.add("finish", "", 0, 0)
		s.emitTrace(id, state, reason, tr)
	}
	if s.cfg.History != nil {
		s.cfg.History.OnFinished(id, state == txn.Committed)
	}
}
