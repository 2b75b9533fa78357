package sched

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/lock"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/txn"
	"repro/internal/wfg"
	"repro/internal/xpath"
	"repro/internal/xupdate"
)

// localResult is the outcome of one lock-manager operation attempt —
// Algorithm 3's return enriched with the status flags Algorithm 2 tags onto
// remote operations. code classifies failures with a txn error code so the
// coordinator reconstructs typed errors across the wire.
type localResult struct {
	executed bool
	acquired bool
	deadlock bool
	failed   bool
	code     string
	err      string
	results  []string
}

// handleExecOp processes one remote operation shipped by a coordinator —
// the body of Algorithm 2's loop for a single dequeued remote operation.
func (s *Site) handleExecOp(req transport.ExecOpReq) transport.ExecOpResp {
	s.mu.Lock()
	s.clock.Observe(req.TS)
	s.mu.Unlock()
	s.m.remoteOpsProcessed.Inc()

	res := s.processOperation(req.Txn, req.TS, req.OpIdx, req.Op)
	return transport.ExecOpResp{
		Executed:       res.executed,
		AcquireLocking: res.acquired,
		Deadlock:       res.deadlock,
		Failed:         res.failed,
		Code:           res.code,
		Error:          res.err,
		Results:        res.results,
	}
}

// terminatedResult refuses a stale operation outrun by the transaction's
// own commit or abort (the pipelined transport does not order an abandoned
// exchange against later cleanup) rather than resurrect the terminated
// transaction's participant state and leak its locks.
func (s *Site) terminatedResult(id txn.ID) localResult {
	return localResult{failed: true, code: txn.CodeAborted,
		err: fmt.Sprintf("site %d: transaction %s already terminated", s.id, id)}
}

// processOperation is Algorithm 3 (process_operation): acquire the locks the
// protocol demands for the operation; on success execute it against the
// in-memory document; on conflict add wait-for edges and check for a local
// deadlock; partial effects of a failed attempt are undone before returning.
// Everything document-shaped happens under the document's own mutex — the
// per-document scheduling domain — so operations on different documents at
// this site run fully in parallel.
func (s *Site) processOperation(id txn.ID, ts txn.TS, opIdx int, op txn.Operation) localResult {
	ds := s.doc(op.Doc)
	if ds == nil {
		return localResult{failed: true, code: txn.CodeUnknownDocument,
			err: fmt.Sprintf("site %d does not hold document %q", s.id, op.Doc)}
	}

	// Register participant-side state so commit/abort can find this
	// transaction even if it never acquires a single lock here.
	s.mu.Lock()
	if _, dead := s.finished[id]; dead {
		s.mu.Unlock()
		return s.terminatedResult(id)
	}
	pt := s.part[id]
	if pt == nil {
		pt = &partTxn{
			id:      id,
			ts:      ts,
			created: time.Now(),
			docs:    make(map[string]bool),
		}
		s.part[id] = pt
	}
	s.mu.Unlock()
	pt.touch(op.Doc)

	ds.mu.Lock()
	defer ds.mu.Unlock()

	// Translate the operation into lock requests under the site's protocol.
	// Queries go through the site's parse cache; update targets are
	// pre-parsed on the Update itself.
	var reqs []lock.Request
	var q *xpath.Query
	var err error
	switch op.Kind {
	case txn.OpQuery:
		q, err = s.queries.Get(op.Query)
		if err == nil {
			reqs, err = s.cfg.Protocol.QueryRequests(ds.doc, ds.guide, q)
		}
	case txn.OpUpdate:
		reqs, err = s.cfg.Protocol.UpdateRequests(ds.doc, ds.guide, op.Update)
	default:
		err = fmt.Errorf("unknown operation kind %d", op.Kind)
	}
	if err != nil {
		return localResult{failed: true, err: err.Error()}
	}

	// Re-check the tombstone now that the domain mutex is held: a cleanup
	// racing this operation marks the transaction finished BEFORE taking
	// the domain mutex to release its locks, so a grant made after this
	// check is always observed (and released) by that cleanup, and a grant
	// refused here leaks nothing.
	if s.isFinished(id) {
		return s.terminatedResult(id)
	}

	conflicts := ds.table.Acquire(lock.Owner{Txn: id, TS: ts, Op: opIdx}, reqs)
	if len(conflicts) > 0 {
		// Algorithm 3, l. 8: link the conflicting transactions in the
		// wait-for graph, then check whether the new edges close a circle
		// through this transaction. Stale edges from a previous attempt of
		// the same operation are replaced by the fresh conflict set.
		ds.met.conflicts.Inc()
		ds.graph.ClearWaiter(id)
		for _, c := range conflicts {
			ds.graph.AddEdge(id, ts, c.Txn, c.TS)
		}
		deadlock := ds.graph.CycleThrough(id) != nil
		if deadlock {
			// The requester is the victim: drop its wait edges now, or the
			// survivor's next attempt closes a cycle through the dying
			// victim and is chosen too.
			s.m.localDeadlocks.Inc()
			ds.graph.ClearWaiter(id)
		}
		return localResult{acquired: false, deadlock: deadlock}
	}

	// Locks granted: the transaction is no longer waiting on anybody here.
	ds.graph.ClearWaiter(id)
	s.m.locksAcquired.Add(int64(len(reqs)))
	if s.cfg.History != nil {
		grants := make([]GrantInfo, 0, len(reqs))
		for _, r := range reqs {
			if r.Node != nil || r.DocNode != nil {
				grants = append(grants, GrantInfo{Path: r.Path(), Mode: r.Mode, Guard: r.Guard})
			}
		}
		// Under ds.mu, so the hook's sequence numbers order conflicting
		// grants on one document exactly as the lock manager granted them.
		s.cfg.History.OnAcquired(s.id, id, opIdx, op.Doc, op.Kind == txn.OpUpdate, grants)
	}

	// Execute the operation against the main-memory representation.
	var out localResult
	out.acquired = true
	switch op.Kind {
	case txn.OpQuery:
		out.executed = true
		// Indexed path first: a predicate over an indexed key is answered
		// from postings (plus residual filters) instead of scanning the
		// matched extents. Falls back to the scan when no index covers the
		// query. Both run under ds.mu, so the index is exactly as current as
		// the tree.
		sp := s.m.reg.Span()
		if nodes, ok := ds.guide.EvalIndexed(q); ok {
			out.results = xpath.RenderStrings(q, nodes)
			s.m.indexedQueries.Inc()
		} else {
			out.results = xpath.EvalStrings(q, ds.doc)
		}
		sp.Done(ds.met.opEval)
	case txn.OpUpdate:
		rec, _, aerr := xupdate.Apply(op.Update, ds.doc, ds.guide)
		if aerr != nil {
			// The update itself failed (not a lock problem): Algorithm 2
			// l. 10–11 tags the operation for abort.
			out.failed = true
			out.err = aerr.Error()
		} else {
			ds.undoLog = append(ds.undoLog, undoEntry{txn: id, opIdx: opIdx, op: op, rec: rec})
			out.executed = true
		}
	}
	if out.executed {
		s.m.opsExecuted.Inc()
	}
	return out
}

// undoOpLocal undoes the effects of one operation of a transaction and
// releases the locks that operation acquired (Algorithm 1, l. 16: an
// operation that could not lock everywhere is undone wherever it ran).
func (s *Site) undoOpLocal(id txn.ID, opIdx int) {
	s.mu.Lock()
	pt := s.part[id]
	s.mu.Unlock()
	if pt == nil {
		// Already cleaned up (commit or abort outran this undo); the
		// cleanup released everything, including this operation's locks.
		return
	}
	var released int
	var waiters []txn.ID
	for _, name := range pt.docNames() {
		ds := s.doc(name)
		if ds == nil {
			continue
		}
		ds.mu.Lock()
		ds.revertLocked(id, opIdx)
		released += ds.table.ReleaseOp(id, opIdx)
		waiters = collectWaitersLocked(ds, id, waiters)
		ds.mu.Unlock()
	}
	if s.cfg.History != nil {
		s.cfg.History.OnUndone(s.id, id, opIdx)
	}
	if released > 0 {
		s.notifyWaiters(waiters)
	}
}

// collectWaitersLocked appends the transactions waiting on id in one
// document's lock manager, removing the satisfied wait edges. Callers hold
// ds.mu.
func collectWaitersLocked(ds *docState, id txn.ID, waiters []txn.ID) []txn.ID {
	for _, w := range ds.graph.Waiters(id) {
		ds.graph.RemoveEdge(w, id)
		waiters = append(waiters, w)
	}
	return waiters
}

// releaseLocks releases every lock of the transaction in the named
// documents (strict-2PL release) and returns the waiters to wake, for
// notifyWaiters to signal outside every mutex. It also drops the
// transaction from those documents' wait-for graphs. Locks and wait edges can only exist in
// documents the transaction touched (partTxn.docs), so passing
// pt.docNames() keeps release O(touched documents), not O(site documents).
func (s *Site) releaseLocks(id txn.ID, names []string) []txn.ID {
	var waiters []txn.ID
	for _, name := range names {
		ds := s.doc(name)
		if ds == nil {
			continue
		}
		ds.mu.Lock()
		ds.table.ReleaseAll(id)
		// Capture waiters before dropping the transaction from the graph,
		// so exactly those that were blocked on it are woken.
		waiters = collectWaitersLocked(ds, id, waiters)
		ds.graph.RemoveTxn(id)
		ds.mu.Unlock()
	}
	return waiters
}

// localEdges snapshots the union of this site's per-document wait-for
// graphs — the site's contribution to Algorithm 4.
func (s *Site) localEdges() []wfg.Edge {
	var out []wfg.Edge
	for _, ds := range s.allDocs() {
		ds.mu.Lock()
		out = append(out, ds.graph.Edges()...)
		ds.mu.Unlock()
	}
	return out
}

// notifyWaiters delivers wake-ups: "when a transaction commits, those that
// entered wait mode waiting for the locks of the one that committed, start
// executing again". Each wake goes to the waiter's coordinator, the site
// its ID names.
func (s *Site) notifyWaiters(waiters []txn.ID) {
	// Deterministic order keeps tests stable; a waiter blocked in several
	// documents is woken once.
	sort.Slice(waiters, func(i, j int) bool { return waiters[i].Less(waiters[j]) })
	for _, id := range slices.Compact(waiters) {
		if id.Site == s.id {
			s.signalWake(id)
			continue
		}
		// Best effort: a lost wake-up is recovered by the retry interval.
		// Bound to the lifecycle context so a wake to an unresponsive peer
		// cannot outlive the site.
		go func() {
			_, _ = s.send(s.ctx, id.Site, transport.WakeReq{Txn: id})
		}()
	}
}

// tombstone marks a transaction terminated with its outcome and unregisters
// its participant state, returning the record. Marking BEFORE releasing any
// lock or undoing any effect is what closes the race with a stale in-flight
// operation: the operation re-checks the tombstone under the document mutex
// before granting, so it either grants before the cleanup's release (which
// then observes and frees the grant) or refuses.
//
// The first outcome recorded wins; won reports whether THIS call recorded
// it, and prevCommitted the outcome that beat it otherwise — the atomic
// decision point between a consolidation and a concurrent local resolution
// (orphan abort) of the same transaction.
func (s *Site) tombstone(id txn.ID, committed bool) (pt *partTxn, won bool, prevCommitted bool) {
	s.mu.Lock()
	pt = s.part[id]
	prevCommitted, terminated := s.finished[id]
	won = !terminated
	s.markFinishedLocked(id, committed)
	delete(s.part, id)
	s.mu.Unlock()
	return pt, won, prevCommitted
}

// commitLocal consolidates a transaction at this site: make its effects
// durable with one journal intent and release its locks (Algorithm 5,
// l. 10–11). The intent carries, per changed document, the operations the
// transaction applied — the redo record a restart replays and the record
// quorum mode ships — so the commit path does no serialization and no I/O
// beyond that one fsynced append; documents reach the Store through
// checkpoints (persist.go).
//
// Refusals (a latched checkpoint failure, a journal error) happen before any
// teardown, so the coordinator's subsequent abort still finds the
// participant state intact and rolls the transaction back cleanly. The
// coordinator only commits once every operation has completed at every
// site, so no operation of the transaction is in flight here during the
// scan.
func (s *Site) commitLocal(id txn.ID) error {
	s.mu.Lock()
	pt := s.part[id]
	committed, terminated := s.finished[id]
	s.mu.Unlock()
	if terminated {
		// A consolidation request outrun by this site's own resolution of
		// the transaction (e.g. an orphan abort after a false suspicion of
		// the coordinator): re-committing is a no-op, but consolidating a
		// transaction this site already rolled back must be refused, or the
		// coordinator would report commit over diverged replicas.
		if committed {
			return nil
		}
		return fmt.Errorf("sched: site %d: %s already aborted here", s.id, id)
	}
	if !s.enterCommit() {
		return fmt.Errorf("sched: site %d is stopping", s.id)
	}
	defer s.exitCommit()

	// Collect the documents the transaction changed — those still carrying
	// uncommitted updates of it, with the operations to redo — and refuse if
	// any has a latched checkpoint failure.
	var names []string
	var changed []shipItem
	if pt != nil {
		names = pt.docNames()
		for _, name := range names {
			ds := s.doc(name)
			if ds == nil {
				continue
			}
			ds.mu.Lock()
			perr := ds.persistErr
			ops := ds.pendingOpsLocked(id)
			ds.mu.Unlock()
			if perr != nil {
				return perr
			}
			if len(ops) > 0 {
				changed = append(changed, shipItem{ds: ds, rec: store.ReplRecord{Txn: id, Ops: ops}})
			}
		}
	}

	ships, won, err := s.consolidate(id, changed)
	if err != nil || !won {
		return err // nil: a duplicate consolidation already did the work
	}
	s.notifyWaiters(s.releaseLocks(id, names))
	if len(ships) > 0 {
		// Ship after the local point of no return: locks are released and
		// the intent is durable, so a quorum shortfall is a
		// consolidated-but-uncertain outcome (errQuorumShort), never a clean
		// abort.
		qsp := s.m.reg.Span()
		if err := s.shipQuorum(ships); err != nil {
			return err
		}
		qsp.Done(s.m.quorumAck)
		s.traceFor(id).add("2pc-quorum-ack", "", 0, qsp.Elapsed())
	}
	return nil
}

// consolidate is commitLocal's point of no return: journal the intent, win
// the tombstone, advance the changed documents. With documents changed it
// runs under commitMu, which makes "number the records, append the intent,
// advance the documents" one step per site: a document's records reach the
// journal in index order and a refused append consumes no index, so the
// open intents past a saved image are always a gapless run. It returns the
// records quorum mode still has to ship, and whether this call won the
// consolidation (false with a nil error: a duplicate request).
func (s *Site) consolidate(id txn.ID, changed []shipItem) (ships []shipItem, won bool, err error) {
	if len(changed) > 0 {
		s.commitMu.Lock()
		defer s.commitMu.Unlock()
	}
	docs := make([]string, len(changed))
	for i := range changed {
		ds := changed[i].ds
		ds.mu.Lock()
		changed[i].rec.Index = ds.replApplied + 1
		ds.mu.Unlock()
		docs[i] = ds.name
	}
	journaled := s.cfg.Journal != nil && len(changed) > 0
	sizes := make([]int, len(changed)) // journal payload bytes per document
	if journaled {
		// The journaled records carry the clock reading the consolidation
		// will exceed; a replay only needs it positive.
		s.mu.Lock()
		logTS := s.clock.Tick()
		s.mu.Unlock()
		recs := make([]store.ReplRecord, len(changed))
		for i := range changed {
			recs[i] = changed[i].rec
			recs[i].TS = logTS
		}
		if hooks := s.cfg.Hooks; hooks != nil && hooks.BeforeIntent != nil {
			hooks.BeforeIntent(id, docs)
		}
		if sizes, err = s.cfg.Journal.AppendIntent(id.String(), docs, recs...); err != nil {
			return nil, false, fmt.Errorf("sched: journal intent: %w", err)
		}
		if hooks := s.cfg.Hooks; hooks != nil && hooks.AfterIntent != nil {
			hooks.AfterIntent(id, docs)
		}
	}

	// The tombstone (see tombstone) is the decision point against a
	// concurrent local resolution: commitLocal's entry check is advisory
	// (TOCTOU), only winning the tombstone authorises the consolidation.
	if _, first, prevCommitted := s.tombstone(id, true); !first {
		if prevCommitted {
			return nil, false, nil
		}
		// An orphan abort slipped in after the entry check and rolled the
		// transaction back; acknowledging the commit now would report
		// consolidation over an undone state. Void what we journaled so a
		// restart does not replay it; its indexes were never taken.
		if journaled {
			_ = s.cfg.Journal.LogAbort(id.String(), docs...)
		}
		return nil, false, fmt.Errorf("sched: site %d: %s aborted during consolidation", s.id, id)
	}
	if len(changed) == 0 {
		return nil, true, nil
	}
	// Stamp the consolidation on each changed document: its updates become
	// committed (their undo-log entries take the commit timestamp and the
	// record's index; trimLocked), its log position and journal bytes move
	// to the record just journaled and its version chain's commit clock
	// advances — O(1) commit publication; the committed tree is materialised
	// only on demand (snapshot.go). One tick taken AFTER the append stamps
	// the whole local consolidation: a snapshot reader that began while the
	// intent was being written has a timestamp below it and sees the
	// transaction on none of its documents, instead of on those it happens
	// to read late.
	s.mu.Lock()
	cts := s.clock.Tick()
	s.mu.Unlock()
	for i := range changed {
		ds, rec := changed[i].ds, &changed[i].rec
		rec.TS = cts
		ds.mu.Lock()
		for j := range ds.undoLog {
			if p := &ds.undoLog[j]; p.txn == id && p.cts == 0 {
				p.cts, p.idx = cts, rec.Index
			}
		}
		ds.replApplied = rec.Index
		ds.logBytes += int64(sizes[i])
		ds.trimLocked()
		ds.versions.Advance(cts)
		s.checkpointIfDueLocked(ds)
		ds.mu.Unlock()
	}
	if !s.quorum {
		return nil, true, nil
	}
	return changed, true, nil
}

// abortLocal cancels a transaction at this site: undo every operation in
// reverse order and release all locks (Algorithm 6, l. 13–14). Unlike
// commit, an abort CAN race a stale in-flight operation of the same
// transaction (an exchange abandoned by cancellation). The tombstone plus
// the document mutex make the undo set complete: an in-flight operation that
// passed its tombstone re-check holds the document mutex from that check
// through recording its update in the undo log, so the revert below sees it;
// operations arriving later are refused by the tombstone.
func (s *Site) abortLocal(id txn.ID) {
	pt, _, _ := s.tombstone(id, false)
	var names []string
	if pt != nil {
		names = pt.docNames()
		// Every effect is undone, on every document, before any lock goes.
		for _, name := range names {
			if ds := s.doc(name); ds != nil {
				ds.mu.Lock()
				ds.revertLocked(id, -1)
				ds.mu.Unlock()
			}
		}
	}
	s.notifyWaiters(s.releaseLocks(id, names))
}
