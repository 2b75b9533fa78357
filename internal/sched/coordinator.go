package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/transport"
	"repro/internal/txn"
)

// validateOp rejects malformed operations before they reach any scheduler.
func validateOp(i int, op txn.Operation) error {
	if op.Doc == "" {
		return fmt.Errorf("sched: operation %d has no document", i)
	}
	if op.Kind == txn.OpUpdate {
		if op.Update == nil {
			return fmt.Errorf("sched: operation %d is an update without a body", i)
		}
		if err := op.Update.Validate(); err != nil {
			return fmt.Errorf("sched: operation %d: %w", i, err)
		}
	}
	return nil
}

// Submit runs a batch transaction with this site as coordinator and blocks
// until it commits, aborts or fails (Algorithm 1). An error is returned only
// for malformed submissions; the transaction's own outcome — including its
// typed terminal error — is in the Result.
func (s *Site) Submit(ops []txn.Operation) (*Result, error) {
	return s.SubmitCtx(context.Background(), ops)
}

// SubmitCtx is Submit bound to a context: it is a thin wrapper over the
// interactive Session — Begin, one Exec per operation, Commit — so batch and
// interactive transactions share one code path. Cancelling the context
// aborts the transaction and releases its locks everywhere.
func (s *Site) SubmitCtx(ctx context.Context, ops []txn.Operation) (*Result, error) {
	return s.submitWith(ctx, ops, s.Begin)
}

// SubmitReadOnly runs a batch transaction through the MVCC snapshot-read
// path: every operation must be a query (anything else is refused up front
// with ErrReadOnly, before a transaction exists), no locks are taken, and the
// reads observe committed versions at or below the transaction's begin
// timestamp. See Site.BeginReadOnly for the semantics.
func (s *Site) SubmitReadOnly(ops []txn.Operation) (*Result, error) {
	return s.SubmitReadOnlyCtx(context.Background(), ops)
}

// SubmitReadOnlyCtx is SubmitReadOnly bound to a context.
func (s *Site) SubmitReadOnlyCtx(ctx context.Context, ops []txn.Operation) (*Result, error) {
	for i := range ops {
		if ops[i].Kind != txn.OpQuery {
			return nil, fmt.Errorf("%w: operation %d is not a query", txn.ErrReadOnly, i)
		}
	}
	return s.submitWith(ctx, ops, s.BeginReadOnly)
}

// submitWith is the shared batch-submission driver: begin a session with the
// given mode, step through the operations (auto-batching consecutive queries
// when there is no client think time to model), commit, and report.
func (s *Site) submitWith(ctx context.Context, ops []txn.Operation, begin func(context.Context) (*Session, error)) (*Result, error) {
	if len(ops) == 0 {
		return nil, fmt.Errorf("sched: empty transaction")
	}
	for i := range ops {
		if err := validateOp(i, ops[i]); err != nil {
			return nil, err
		}
	}
	sess, err := begin(ctx)
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(ops); {
		if i > 0 && s.cfg.OpDelay > 0 {
			// Client think time between operations; a cancellation during
			// the pause is observed by the next Exec (or by the session
			// watcher, whichever gets there first).
			timer := time.NewTimer(s.cfg.OpDelay)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
			case <-s.stopCh:
				timer.Stop()
			}
		}
		if s.cfg.OpDelay == 0 {
			// With no client think time to model, a run of consecutive
			// read-only operations has no ordering the client can observe —
			// under strict 2PL all their locks are held to the end either
			// way — so they ship through the concurrent path and overlap
			// their per-site round trips.
			j := i
			for j < len(ops) && ops[j].Kind == txn.OpQuery {
				j++
			}
			if j-i >= 2 {
				if _, err := sess.ExecBatch(ops[i:j]); err != nil {
					break
				}
				i = j
				continue
			}
		}
		if _, err := sess.Exec(ops[i]); err != nil {
			break
		}
		i++
	}
	if !sess.Done() {
		sess.Commit()
	}
	res := sess.Result()
	// Batch callers index Results by operation position; pad for the
	// operations an early abort never reached.
	for len(res.Results) < len(ops) {
		res.Results = append(res.Results, nil)
	}
	return res, nil
}

func (s *Site) beginTxn() *coordTxn {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	id := txn.ID{Site: s.id, Seq: s.seq}
	ts := s.clock.Tick()
	ct := &coordTxn{
		t:        txn.New(id, ts, nil),
		wake:     make(chan struct{}),
		abortCh:  make(chan string, 1),
		sites:    make(map[int]bool),
		finished: make(chan struct{}),
	}
	if s.traceArmed {
		ct.trace = newTxnTrace()
		ct.trace.add("begin", "", 0, 0)
	}
	s.coord[id] = ct
	s.coordOf[id] = s.id
	return ct
}

// execOp executes one operation at every site holding its document, retrying
// with wait mode on lock conflicts (Algorithm 1, l. 5–23). It returns nil
// once the operation executed everywhere, or the typed terminal error that
// dooms the transaction: ErrDeadlock for victims, ErrUnknownDocument /
// ErrFailed for unresolvable operations, ErrAborted wrapping the context
// cause on cancellation.
func (s *Site) execOp(ctx context.Context, ct *coordTxn, opIdx int) error {
	op := ct.t.Ops[opIdx]
	id, ts := ct.t.ID, ct.t.TS
	sp := s.m.reg.Span() // whole execute phase of this operation (armed-gated)
	var waitStart time.Time
	for {
		// Fetched before the attempt: a wake broadcast during the attempt
		// closes exactly this channel, so it cannot be lost.
		wakeCh := ct.wakeChan()
		// A victim signal or cancellation can arrive at any point while the
		// operation retries; honour them before burning another attempt.
		select {
		case r := <-ct.abortCh:
			return fmt.Errorf("%w: %s", txn.ErrDeadlock, r)
		default:
		}
		if ctx.Err() != nil {
			return fmt.Errorf("%w: %w", txn.ErrAborted, context.Cause(ctx))
		}

		// Replica-aware routing: reads run on the replicas believed alive
		// and route around dead ones; writes must reach every copy, so a
		// partially-down replica set fails them fast with a typed error the
		// client can branch on (retry later, degrade, alert) instead of a
		// lock-timeout limbo.
		sites, down := s.cfg.Catalog.LiveSites(op.Doc, s.liveness)
		if len(sites) == 0 && len(down) == 0 {
			return fmt.Errorf("%w: no site holds %q", txn.ErrUnknownDocument, op.Doc)
		}
		if s.replLog != nil {
			// Quorum mode: every operation of a read-write transaction runs
			// at the document's primary only — lock state must live in one
			// place — and the committed effects reach the followers through
			// log shipping, so a down follower never blocks a write. Only a
			// down primary makes the document unavailable for writing.
			primary := s.primaryOf(op.Doc)
			alive := false
			for _, site := range sites {
				if site == primary {
					alive = true
					break
				}
			}
			if !alive {
				return fmt.Errorf("%w: primary site %d of %q is down", txn.ErrReplicaUnavailable, primary, op.Doc)
			}
			sites = []int{primary}
		} else {
			if op.Kind != txn.OpQuery && len(down) > 0 {
				return fmt.Errorf("%w: %q has down replica site(s) %v", txn.ErrReplicaUnavailable, op.Doc, down)
			}
			if len(sites) == 0 {
				return fmt.Errorf("%w: no live replica of %q", txn.ErrReplicaUnavailable, op.Doc)
			}
		}

		var res localResult
		if len(sites) == 1 && sites[0] == s.id {
			// Algorithm 1, l. 5–10: the operation involves only the
			// coordinator's site.
			res = s.processOperation(id, ts, s.id, opIdx, op)
			ct.addSite(s.id)
		} else {
			// Algorithm 1, l. 12–22: ship the operation to every
			// participant holding the document (the coordinator included,
			// if it holds a copy) and wait for all responses.
			res = s.execRemote(ctx, ct, opIdx, op, sites)
		}

		switch {
		case res.retryRouting:
			// A replica died mid-read; re-route immediately against the
			// survivors (the loop re-filters the replica set by liveness).
			continue
		case res.failed:
			if res.code == txn.CodeAborted && ctx.Err() != nil {
				// A send abandoned by cancellation classified the failure as
				// an abort; keep the actual cause in the chain instead of the
				// stringified transport error.
				return fmt.Errorf("%w: %w", txn.ErrAborted, context.Cause(ctx))
			}
			msg := res.err
			if msg == "" {
				msg = "operation failed"
			}
			return txn.FromCode(res.code, msg)
		case res.deadlock:
			return fmt.Errorf("%w: deadlock detected while locking", txn.ErrDeadlock)
		case res.executed:
			if op.Kind == txn.OpQuery {
				ct.results[opIdx] = res.results
			}
			ct.t.Ops[opIdx].Executed = true
			if sp.Active() {
				if !waitStart.IsZero() {
					wait := time.Since(waitStart)
					s.m.lockWait.With(op.Doc).ObserveDuration(wait)
					ct.trace.add("lock-wait", op.Doc, opIdx, wait)
				}
				s.m.opExec.With(op.Doc).ObserveDuration(sp.Elapsed())
				ct.trace.add("exec", op.Doc, opIdx, sp.Elapsed())
			}
			return nil
		}

		// Not acquired: wait mode (Algorithm 1, l. 9 / l. 17) until a
		// wake-up, a victim signal, cancellation, or the retry safety net.
		// The first conflicting attempt starts the lock-wait clock; it stops
		// at the grant (the executed case above).
		if sp.Active() && waitStart.IsZero() {
			waitStart = time.Now()
		}
		timer := time.NewTimer(s.cfg.RetryInterval)
		select {
		case <-wakeCh:
			timer.Stop()
		case r := <-ct.abortCh:
			timer.Stop()
			return fmt.Errorf("%w: %s", txn.ErrDeadlock, r)
		case <-ctx.Done():
			timer.Stop()
			return fmt.Errorf("%w: %w", txn.ErrAborted, context.Cause(ctx))
		case <-s.stopCh:
			timer.Stop()
			return fmt.Errorf("%w: site stopping", txn.ErrAborted)
		case <-timer.C:
		}
	}
}

// execOps runs n consecutive operations of the transaction, starting at
// base, concurrently — the batched read-only path. Each operation goes
// through the full machinery of the given executor (execOp with its per-site
// fan-out, wait mode and victim signals, or execSnapshotOp's pin-and-read)
// under a context that the first failing sibling cancels, so a doomed batch
// stops burning retries. The returned error is the batch's root cause: a
// typed terminal error from the operation that failed, in preference to the
// ErrAborted wrappers its cancelled siblings report.
func (s *Site) execOps(ctx context.Context, ct *coordTxn, base, n int, exec func(context.Context, *coordTxn, int) error) error {
	if n == 1 {
		return exec(ctx, ct, base)
	}
	bctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := exec(bctx, ct, base+i); err != nil {
				errs[i] = err
				cancel(err)
			}
		}(i)
	}
	wg.Wait()
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, txn.ErrAborted) {
			// A deadlock victim or unresolvable operation is the cause the
			// client should see, not the cancellation it spread.
			return err
		}
		if first == nil {
			first = err
		}
	}
	return first
}

// execRemote fans one operation out to all sites holding the document and
// merges the participant statuses (Algorithm 1, l. 12–22).
func (s *Site) execRemote(ctx context.Context, ct *coordTxn, opIdx int, op txn.Operation, sites []int) localResult {
	id, ts := ct.t.ID, ct.t.TS
	type siteResult struct {
		site int
		res  localResult
		err  error
	}
	results := make([]siteResult, len(sites))
	var wg sync.WaitGroup
	for i, site := range sites {
		ct.addSite(site)
		wg.Add(1)
		go func(i, site int) {
			defer wg.Done()
			if site == s.id {
				results[i] = siteResult{site: site, res: s.processOperation(id, ts, s.id, opIdx, op)}
				return
			}
			s.m.remoteOpsSent.Inc()
			resp, err := s.send(ctx, site, transport.ExecOpReq{
				Txn: id, TS: ts, Coordinator: s.id, OpIdx: opIdx, Op: op,
			})
			if err != nil {
				results[i] = siteResult{site: site, err: err}
				return
			}
			r, ok := resp.(transport.ExecOpResp)
			if !ok {
				results[i] = siteResult{site: site, err: fmt.Errorf("unexpected response %T", resp)}
				return
			}
			results[i] = siteResult{site: site, res: localResult{
				executed: r.Executed,
				acquired: r.AcquireLocking,
				deadlock: r.Deadlock,
				failed:   r.Failed,
				code:     r.Code,
				err:      r.Error,
				results:  r.Results,
			}}
		}(i, site)
	}
	wg.Wait()

	merged := localResult{acquired: true, executed: true}
	anyExecuted := false
	for _, sr := range results {
		if sr.err != nil {
			// Communication failure (or a send abandoned by cancellation):
			// the operation fails; an abort follows. If the cancellation is
			// the cause, it wins over the failure classification so the
			// client sees ErrAborted, not ErrFailed.
			merged.failed = true
			if ctx.Err() != nil {
				merged.code = txn.CodeAborted
			}
			merged.err = sr.err.Error()
			continue
		}
		if sr.res.failed {
			merged.failed = true
			if merged.code == txn.CodeNone {
				merged.code = sr.res.code
			}
			merged.err = sr.res.err
		}
		if sr.res.deadlock {
			merged.deadlock = true
		}
		if !sr.res.acquired {
			merged.acquired = false
		}
		if sr.res.executed {
			anyExecuted = true
			if op.Kind == txn.OpQuery && merged.results == nil {
				merged.results = sr.res.results
			}
		}
	}
	merged.executed = merged.acquired && !merged.failed && !merged.deadlock && anyExecuted

	// Failover: a replica whose connection tore down mid-exchange has
	// already been demoted to Suspect by send; one that answered "replica
	// unavailable" (it is recovering, or was killed under this very
	// exchange) is demoted here — it responded, so send counted it Up. A
	// read rolls its partial execution back and retries against the
	// survivors (the routing loop re-filters by liveness); a write cannot
	// proceed with a partial replica set and fails with the typed replica
	// error.
	var closed []int
	for _, sr := range results {
		switch {
		case sr.err != nil && errors.Is(sr.err, transport.ErrPeerClosed):
			closed = append(closed, sr.site)
		case sr.err == nil && sr.res.failed && sr.res.code == txn.CodeReplicaUnavailable && sr.site != s.id:
			s.liveness.observeClosed(sr.site)
			closed = append(closed, sr.site)
		}
	}
	if len(closed) > 0 && ctx.Err() == nil && !merged.deadlock {
		// Re-routing is only productive when failure detection will actually
		// remove the dead replica from the next routing pass; with the
		// liveness view inert (no heartbeats) the retry would re-select the
		// same dead site forever, so the typed error surfaces instead.
		if op.Kind == txn.OpQuery && s.liveness.enabled {
			for _, sr := range results {
				if sr.err == nil && sr.res.executed {
					s.undoOpEverywhere(id, opIdx, sr.site)
				}
			}
			return localResult{retryRouting: true}
		}
		merged.failed = true
		merged.code = txn.CodeReplicaUnavailable
	}

	// Algorithm 1, l. 15–17: if the operation did not acquire locks at some
	// participant, undo it wherever it did execute, then wait.
	if !merged.failed && !merged.deadlock && !merged.acquired {
		for _, sr := range results {
			if sr.err == nil && sr.res.executed {
				s.undoOpEverywhere(ct.t.ID, opIdx, sr.site)
			}
		}
		// Locks acquired at sites that granted but did not need undo (e.g.
		// a query that executed) are released by undoOpEverywhere too; for
		// sites that merely granted locks without executing there is
		// nothing to release because participant lock acquisition and
		// execution are atomic under the site mutex.
	}
	return merged
}

// undoOpEverywhere undoes one operation at one site (local or remote). Undo
// is cleanup and must not be cut short by the client's cancellation, so it
// runs detached from the transaction context.
func (s *Site) undoOpEverywhere(id txn.ID, opIdx int, site int) {
	if site == s.id {
		s.undoOpLocal(id, opIdx)
		return
	}
	_, _ = s.send(context.Background(), site, transport.UndoOpReq{Txn: id, OpIdx: opIdx})
}

// fanOut runs fn for every site concurrently — the join of one concurrent
// 2PC phase — returning each branch's outcome (indexed like sites) and
// their conjunction. A single-site list runs inline, sparing the goroutine.
func fanOut(sites []int, fn func(site int) bool) ([]bool, bool) {
	oks := make([]bool, len(sites))
	if len(sites) == 1 {
		oks[0] = fn(sites[0])
		return oks, oks[0]
	}
	var wg sync.WaitGroup
	for i, site := range sites {
		wg.Add(1)
		go func(i, site int) {
			defer wg.Done()
			oks[i] = fn(site)
		}(i, site)
	}
	wg.Wait()
	all := true
	for _, ok := range oks {
		all = all && ok
	}
	return oks, all
}

// commitTransaction is Algorithm 5: ask every involved site to consolidate;
// if any refuses, abort. Returns true if the commit completed. The remote
// consolidations are issued concurrently and joined — the commit phase
// costs the slowest participant instead of the sum — but the coordinator's
// own consolidation deliberately stays LAST, exactly as in the serial protocol:
// a remote refusal then still finds the local replica unconsolidated.
//
// Refusal outcomes are reported honestly. If NO remote site consolidated
// (the common coordinator-plus-one-participant deployment, or an
// all-refuse round) the abort rolls everything back cleanly. If the
// concurrent round left some sites consolidated and some refusing, no
// clean cancellation exists — a consolidated participant has already
// persisted and released its locks — so the transaction fails everywhere
// (Algorithm 6, l. 5–10), rather than pretending the divergence away.
func (s *Site) commitTransaction(ct *coordTxn) bool {
	id := ct.t.ID
	remote := ct.remoteSites(s.id)
	// A read-only transaction has no persistent effects anywhere: its
	// consolidation is pure lock release, so it needs no decision record,
	// and a participant that died holding its read locks released them with
	// its life — a failed remote ack is vacuous, not a failure. The same
	// tolerance applies per participant in a mixed transaction: a site that
	// only served reads (no update targets a document it replicates) has
	// nothing to consolidate, so its death must not fail a commit whose
	// writes all reached live replicas. writeSites is computed lazily — it
	// is only consulted when a peer connection tore down mid-commit, and
	// the healthy hot path must not pay its catalog lookups per commit.
	readOnly := true
	for i := range ct.t.Ops {
		if ct.t.Ops[i].Kind != txn.OpQuery {
			readOnly = false
			break
		}
	}
	writeSites := sync.OnceValue(func() map[int]bool {
		out := make(map[int]bool)
		for i := range ct.t.Ops {
			if ct.t.Ops[i].Kind == txn.OpQuery {
				continue
			}
			for _, site := range s.cfg.Catalog.Sites(ct.t.Ops[i].Doc) {
				out[site] = true
			}
		}
		return out
	})
	if hooks := s.cfg.Hooks; hooks != nil && hooks.BeforeDecision != nil {
		hooks.BeforeDecision(id)
	}
	// Commit decision record, durable BEFORE any participant may
	// consolidate: the presumed-abort rule ("no decision record at the
	// coordinator means abort") is only sound under that order. A site
	// without a journal keeps the pre-recovery semantics (participants fall
	// back to each other when this coordinator crashes). With no remote
	// participants there is nobody the record could ever answer — and the
	// local intent proves the commit by itself — so the local-only commit
	// path skips the extra fsync.
	if s.cfg.Journal != nil && !readOnly && len(remote) > 0 {
		dsp := s.m.reg.Span()
		if err := s.cfg.Journal.LogDecision(id.String()); err != nil {
			// The decision cannot be made durable (journal failure, or the
			// site is dying): do not commit anybody.
			s.abortTransaction(ct)
			return false
		}
		dsp.Done(s.m.decisionWrite)
		ct.trace.add("2pc-decision-write", "", 0, dsp.Elapsed())
	}
	if hooks := s.cfg.Hooks; hooks != nil && hooks.AfterDecision != nil {
		hooks.AfterDecision(id)
	}
	var oks []bool
	allOK := true
	var ackMu sync.Mutex
	vacuous := make(map[int]bool) // dead read-only participants: ok but consolidated nothing
	maybeConsolidated := false    // a write participant's ack was lost with its connection
	if len(remote) > 0 {
		fsp := s.m.reg.Span()
		oks, allOK = fanOut(remote, func(site int) bool {
			resp, err := s.send(context.Background(), site, transport.CommitReq{Txn: id})
			if err != nil && errors.Is(err, transport.ErrPeerClosed) {
				ackMu.Lock()
				defer ackMu.Unlock()
				if !writeSites()[site] {
					// The participant held only read locks for this
					// transaction and is gone — the locks died with it;
					// nothing to consolidate there. Counts as ok for the
					// join but never as a consolidation.
					vacuous[site] = true
					return true
				}
				// A write participant whose connection tore down
				// mid-exchange: ErrPeerClosed cannot distinguish "never
				// delivered" from "processed, ack lost", and the
				// participant may hold a durable consolidation. The commit
				// must NOT be rolled back on that uncertainty (a clean
				// abort would diverge from the maybe-consolidated replica
				// and void the decision record that reconciles it).
				maybeConsolidated = true
				return false
			}
			ack, _ := resp.(transport.Ack)
			if err == nil && !ack.OK && ack.Consolidated {
				// The participant applied the transaction past its point of
				// no return (e.g. a quorum shortfall after the local commit)
				// and refused only the outcome: no clean abort exists.
				ackMu.Lock()
				maybeConsolidated = true
				ackMu.Unlock()
			}
			return err == nil && ack.OK
		})
		fsp.Done(s.m.commitFanout)
		ct.trace.add("2pc-commit-fanout", "", 0, fsp.Elapsed())
	}
	// Algorithm 5, l. 10–11: consolidate locally and release the locks.
	if allOK {
		localErr := s.commitLocal(id)
		if localErr == nil {
			if s.cfg.Journal != nil && !readOnly {
				// A transaction that changed nothing at this site has no intent
				// for a checkpoint to seal; seal the decision so it does not
				// linger as unresolved across restarts.
				_ = s.cfg.Journal.SealDecision(id.String())
			}
			s.noteWrites(ct)
			return true
		}
		if errors.Is(localErr, errQuorumShort) {
			// The local consolidation itself is done — journaled, locks
			// released — only the replication quorum fell short.
			maybeConsolidated = true
		}
	}
	// Algorithm 5, l. 5–7: commit rejected. A vacuous ok (dead read-only
	// participant) is not a consolidation; a lost ack from a write
	// participant must be presumed one.
	anyConsolidated := maybeConsolidated
	for i, ok := range oks {
		if ok && !vacuous[remote[i]] {
			anyConsolidated = true
		}
	}
	if anyConsolidated {
		// Some participant holds the consolidated state: the decision record
		// stays, truthfully — recovery reconciles against the survivors.
		s.failTransaction(ct)
	} else {
		// Nobody consolidated: roll back cleanly and void the decision so
		// the undelivered commit cannot resurface at a recovering
		// participant.
		s.abortTransaction(ct)
		if s.cfg.Journal != nil {
			_ = s.cfg.Journal.VoidDecision(id.String())
		}
	}
	return false
}

// abortTransaction is Algorithm 6: ask every involved site to cancel; if a
// site cannot, escalate to failure everywhere. Returns true if the abort
// completed cleanly (false means the transaction failed). Abort must run to
// completion even when triggered by a cancelled client context — it is what
// releases the locks — so its messages are sent detached. The remote
// cancellations are independent undo-and-release work and are issued
// concurrently; the local release deliberately comes LAST. Aborts dominate
// under deadlock churn, and releasing the coordinator's locks first hands
// the freed resources to the local waiters in lock-step with every other
// victim — a phase-locked storm where retrying victims perpetually rebuild
// the cycle and starve the old transactions the victim rule protects.
// Remote-first staggers the wake-ups exactly as the serial protocol did,
// which is what lets the oldest waiter slip in and make progress.
func (s *Site) abortTransaction(ct *coordTxn) bool {
	id := ct.t.ID
	remote := ct.remoteSites(s.id)
	ok := true
	if len(remote) > 0 {
		_, ok = fanOut(remote, func(site int) bool {
			resp, err := s.send(context.Background(), site, transport.AbortReq{Txn: id})
			ack, _ := resp.(transport.Ack)
			return err == nil && ack.OK
		})
	}
	if !ok {
		// Algorithm 6, l. 5–10: cancellation impossible somewhere — the
		// transaction fails everywhere.
		s.failTransaction(ct)
		return false
	}
	_ = s.abortLocal(id) // local cancellation cannot refuse
	return true
}

// failTransaction broadcasts failure (Algorithm 6, l. 6–9) to the remote
// sites concurrently, then marks the failure locally — the same
// remote-first release order as abort, for the same liveness reason.
func (s *Site) failTransaction(ct *coordTxn) {
	id := ct.t.ID
	if remote := ct.remoteSites(s.id); len(remote) > 0 {
		_, _ = fanOut(remote, func(site int) bool {
			_, _ = s.send(context.Background(), site, transport.FailReq{Txn: id})
			return true
		})
	}
	s.failLocal(id)
}
