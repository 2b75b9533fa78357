package sched

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/mvcc"
	"repro/internal/transport"
	"repro/internal/txn"
	"repro/internal/vindex"
	"repro/internal/xpath"
)

// This file is the scheduler half of the MVCC snapshot-read subsystem
// (internal/mvcc holds the version chains). A read-only transaction resolves
// a begin timestamp at its coordinator, and every query pins — at whichever
// site serves it — the newest committed version of its document at or below
// that timestamp. Pinned versions are immutable trees, so queries evaluate
// against them with zero lock-table footprint and zero wait-for-graph edges;
// commit and abort reduce to releasing the pins.
//
// Consistency: a read observes its document's commits stamped at or below
// the transaction's begin timestamp and no others — never a writer's
// mid-transaction state — and repeated reads of one document observe the
// same version (the pin is per transaction per document and never re-taken).
// So a read-only transaction sees every commit its site acknowledged before
// it began, regardless of writers in flight
// (TestSnapshotReadSeesCommitBesideDirtyWriter) and of commits landing before
// its first read (TestSnapshotReadIgnoresCommitAfterBegin): publishLocked
// cuts that state from the live tree when the reader pins. The undo log it
// cuts with reaches back checkpointEvery records (trimLocked); a first read
// later than that aborts with ErrSnapshotUnavailable instead of serving an
// older state.

// roPinSet is the per-site pin state of one read-only transaction. The
// registry map (Site.roPins, guarded by Site.roMu) holds one per transaction
// that has read here; the set's own mutex serialises pinning against
// release, so the site-wide registry lock is never held across version
// pinning or materialisation. closed marks a released set: a stale read
// arriving after release must refuse, not leak a fresh pin.
type roPinSet struct {
	ts      txn.TS
	created time.Time // for the orphan sweep's age threshold

	mu     sync.Mutex
	closed bool
	pins   map[string]roPin // document -> pinned version
}

type roPin struct {
	ver   *mvcc.Version
	chain *mvcc.Chain
}

// handleSnapshotRead serves one remote snapshot read. The reader's begin
// timestamp is folded into this site's clock BEFORE pinning: every commit
// stamped here afterwards gets a timestamp strictly above it, so the version
// pinned now stays the correct one for this reader — later commits cannot
// retroactively fall under its begin timestamp.
func (s *Site) handleSnapshotRead(req transport.SnapshotReadReq) transport.SnapshotReadResp {
	s.mu.Lock()
	s.clock.Observe(req.TS)
	s.mu.Unlock()
	res := s.snapshotRead(req.Txn, req.TS, req.Doc, req.Query)
	return transport.SnapshotReadResp{
		Failed:  res.failed,
		Code:    res.code,
		Error:   res.err,
		Results: res.results,
	}
}

// snapshotRead evaluates one query of a read-only transaction against the
// version of the document pinned for it here, pinning one first if this is
// the transaction's first read of the document at this site.
func (s *Site) snapshotRead(id txn.ID, ts txn.TS, docName, query string) localResult {
	ds := s.doc(docName)
	if ds == nil {
		return localResult{failed: true, code: txn.CodeUnknownDocument,
			err: fmt.Sprintf("site %d does not hold document %q", s.id, docName)}
	}
	if stale, msg := s.replicaStale(docName, ds); stale {
		// Quorum mode: this follower knows it lags the primary beyond the
		// staleness bound; refuse so the coordinator retries at the primary.
		s.m.staleRefusals.Inc()
		return localResult{failed: true, code: txn.CodeReplicaStale, err: msg}
	}
	q, err := s.queries.Get(query)
	if err != nil {
		return localResult{failed: true, err: err.Error()}
	}

	s.roMu.Lock()
	if s.isFinished(id) {
		s.roMu.Unlock()
		return s.terminatedResult(id)
	}
	set := s.roPins[id]
	if set == nil {
		set = &roPinSet{ts: ts, created: time.Now(), pins: make(map[string]roPin)}
		s.roPins[id] = set
	}
	s.roMu.Unlock()

	set.mu.Lock()
	// Re-check under the set mutex: a release that fetched the set between
	// our registry lookup and here has closed it (and unpinned everything).
	if set.closed {
		set.mu.Unlock()
		return s.terminatedResult(id)
	}
	pin, ok := set.pins[docName]
	if !ok {
		ver := s.pinDocVersion(ds, ts)
		if ver == nil {
			set.mu.Unlock()
			return localResult{failed: true, code: txn.CodeSnapshotUnavailable,
				err: fmt.Sprintf("site %d can no longer cut %q back to ts %d", s.id, docName, ts)}
		}
		pin = roPin{ver: ver, chain: ds.versions}
		set.pins[docName] = pin
	}
	set.mu.Unlock()

	// The pinned tree is immutable: evaluate outside every mutex. An
	// indexable query is answered from the version's own snapshot index —
	// built lazily from the pinned tree, never from the live postings, so
	// the read stays consistent with its pin no matter how far writers have
	// advanced the live index.
	results, indexed := s.snapshotEval(ds, q, pin.ver)
	if indexed {
		s.m.indexedQueries.Inc()
	}
	s.m.snapshotReads.Inc()
	return localResult{executed: true, acquired: true, results: results}
}

// snapshotEval evaluates a snapshot read's query against its pinned
// version, through the version's value index when one covers the query.
func (s *Site) snapshotEval(ds *docState, q *xpath.Query, ver *mvcc.Version) ([]string, bool) {
	defer s.m.reg.Span().Done(ds.met.opEval)
	if ix := ds.guide.ValueIndex(); ix != nil {
		if plan, ok := vindex.PlanQuery(q); ok && ix.Enabled(plan.Key) {
			if nodes, ok := ver.ValueIndex(ix.Keys()).Eval(q, plan); ok {
				return xpath.RenderStrings(q, nodes), true
			}
		}
	}
	return xpath.EvalStrings(q, ver.Doc), false
}

// pinDocVersion pins the version of the document holding exactly its commits
// at or below ts: the chain's head when nothing was committed since it was
// published (no domain mutex taken), else whatever publishLocked finds or
// cuts. Returns nil when the undo log no longer reaches back to ts.
func (s *Site) pinDocVersion(ds *docState, ts txn.TS) *mvcc.Version {
	if v := ds.versions.PinHead(ts); v != nil {
		return v
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	v, _ := s.publishLocked(ds, ts)
	return v
}

// publishLocked returns, pinned, the version holding exactly the document's
// commits stamped at or below ts, and the log index that state reflects: the
// chain's copy, or else the one tree copy — made for a snapshot reader or the
// checkpointer. The state is the live tree minus the uncommitted updates and
// those committed above ts; nothing that stays depends on them (undoEntry),
// so peeling them off newest first, copying, and putting them back oldest
// first inside this one hold of ds.mu costs O(undo log) on top of the copy
// and leaves every node, the guide and the value index as they were. Nil
// when ts is below a commit already trimmed off the log. Callers hold ds.mu.
func (s *Site) publishLocked(ds *docState, ts txn.TS) (*mvcc.Version, int64) {
	if ts < ds.trimTS {
		return nil, 0
	}
	// at is the newest commit at or below ts, idx the index just below the
	// oldest record above it.
	at, idx := ds.trimTS, ds.replApplied
	for i := range ds.undoLog {
		switch p := &ds.undoLog[i]; {
		case p.cts == 0:
		case p.cts <= ts:
			at = max(at, p.cts)
		default:
			idx = min(idx, p.idx-1)
		}
	}
	if v := ds.versions.Pin(ts); v != nil {
		if v.TS >= at {
			return v, idx
		}
		ds.versions.Unpin(v)
	}
	above := func(p *undoEntry) bool { return p.cts == 0 || p.cts > ts }
	for i := len(ds.undoLog) - 1; i >= 0; i-- {
		if p := &ds.undoLog[i]; above(p) {
			if err := p.rec.Peel(ds.doc); err != nil {
				panic(fmt.Sprintf("sched: peel of %s op %d failed: %v", p.txn, p.opIdx, err))
			}
		}
	}
	committed := ds.doc.Snapshot()
	for i := range ds.undoLog {
		if p := &ds.undoLog[i]; above(p) {
			if err := p.rec.Restore(ds.doc); err != nil {
				panic(fmt.Sprintf("sched: restore of %s op %d failed: %v", p.txn, p.opIdx, err))
			}
		}
	}
	s.m.snapshotPublishes.Inc()
	return ds.versions.PublishPinned(committed, at), idx
}

// trimLocked drops the committed undo-log entries older than the last
// checkpointEvery records as commits stamp theirs, so the reader horizon, a
// reader's peel and the catch-up window do not depend on checkpoints.
// Callers hold ds.mu.
func (ds *docState) trimLocked() {
	floor := ds.replApplied - checkpointEvery
	ds.undoLog = slices.DeleteFunc(ds.undoLog, func(p undoEntry) bool {
		if p.cts == 0 || p.idx > floor {
			return false
		}
		ds.trimTS = max(ds.trimTS, p.cts)
		ds.trimIdx = max(ds.trimIdx, p.idx)
		return true
	})
}

// snapshotRelease releases every version a read-only transaction pinned at
// this site and tombstones the transaction so a stale in-flight read cannot
// re-pin after the release. Safe to call for transactions that never read
// here. The tombstone outcome is recorded as committed: a read-only
// transaction has no effects, so the distinction is unobservable, and the
// termination protocol never has to resolve it.
func (s *Site) snapshotRelease(id txn.ID) {
	s.roMu.Lock()
	s.mu.Lock()
	s.markFinishedLocked(id, true)
	s.mu.Unlock()
	set := s.roPins[id]
	delete(s.roPins, id)
	s.roMu.Unlock()
	if set == nil {
		return
	}
	set.mu.Lock()
	set.closed = true
	pins := set.pins
	set.pins = nil
	set.mu.Unlock()
	for _, p := range pins {
		p.chain.Unpin(p.ver)
	}
}

// releaseReadOnly finishes a read-only transaction: release the local pins
// and tell every remote site that served a read to release theirs. The
// remote releases are detached cleanup (they must complete even after the
// client gave up) and best-effort — a lost release is recovered by the
// orphan sweep at the pinning site.
func (s *Site) releaseReadOnly(ct *coordTxn) {
	id := ct.t.ID
	s.snapshotRelease(id)
	if remote := ct.roRemoteSites(s.id); len(remote) > 0 {
		_, _ = fanOut(remote, func(site int) bool {
			_, _ = s.send(context.Background(), site, transport.SnapshotReleaseReq{Txn: id})
			return true
		})
	}
}

// execSnapshotOp runs one query of a read-only transaction: route it to a
// site holding the document, pin-and-evaluate there, and record the result.
// Routing is sticky per document — once a site has pinned a version for
// this transaction, every later read of that document must return to it, or
// repeatable reads break. A site that dies before the first read of a
// document is routed around like any dead replica; one that dies holding
// the transaction's pin makes further reads of that document fail with
// ErrReplicaUnavailable (the snapshot died with the pin).
func (s *Site) execSnapshotOp(ctx context.Context, ct *coordTxn, opIdx int) error {
	op := ct.t.Ops[opIdx]
	id, ts := ct.t.ID, ct.t.TS
	for {
		if err := abortCause(ctx); err != nil {
			return err
		}
		route, bound := ct.roSiteFor(op.Doc)
		if !bound {
			sites, down := s.cfg.Catalog.LiveSites(op.Doc, s.liveness)
			if len(sites) == 0 && len(down) == 0 {
				return fmt.Errorf("%w: no site holds %q", txn.ErrUnknownDocument, op.Doc)
			}
			if len(sites) == 0 {
				return fmt.Errorf("%w: no live replica of %q", txn.ErrReplicaUnavailable, op.Doc)
			}
			// Prefer the local replica: no round trip, and the begin
			// timestamp came from this site's own clock. The claim is taken
			// BEFORE dispatch so concurrent batched reads of one document
			// agree on the site, and the terminal release reaches it even if
			// this read errors mid-flight.
			candidate := sites[0]
			for _, site := range sites {
				if site == s.id {
					candidate = s.id
					break
				}
			}
			if s.recentlyWritten(op.Doc) {
				// Read-your-writes: a transaction submitted through this site
				// committed an update to the document within the staleness
				// window, and only the primary is guaranteed to reflect it.
				if p := s.primaryOf(op.Doc); p >= 0 {
					for _, site := range sites {
						if site == p {
							candidate = p
							break
						}
					}
				}
			}
			route = ct.claimRoSite(op.Doc, candidate)
		}
		target := route.site

		var res localResult
		if target == s.id {
			res = s.snapshotRead(id, ts, op.Doc, op.Query)
		} else {
			s.m.remoteOpsSent.Inc()
			resp, err := s.send(ctx, target, transport.SnapshotReadReq{Txn: id, TS: ts, Doc: op.Doc, Query: op.Query})
			if err != nil {
				if s.liveness.enabled && ctx.Err() == nil && ct.rebindRoSite(op.Doc, target) {
					// The site died before any read of this document
					// succeeded there — no pin to honour; the next pass
					// routes around it.
					continue
				}
				// The snapshot died with the pinning site: rerouting would
				// serve a different version, so the read fails typed.
				return fmt.Errorf("%w: snapshot read at site %d: %v", txn.ErrReplicaUnavailable, target, err)
			}
			r, ok := resp.(transport.SnapshotReadResp)
			if !ok {
				return fmt.Errorf("%w: unexpected response %T", txn.ErrFailed, resp)
			}
			if r.Failed && r.Code == txn.CodeReplicaUnavailable && s.liveness.enabled {
				// Recovering or freshly killed under this exchange: it
				// refused rather than pinned, so rebinding is safe unless a
				// sibling pinned there first.
				s.liveness.observeClosed(target)
				if ct.rebindRoSite(op.Doc, target) {
					continue
				}
			}
			res = localResult{executed: !r.Failed, failed: r.Failed, code: r.Code, err: r.Error, results: r.Results}
		}
		if res.failed && res.code == txn.CodeReplicaStale {
			// A healthy but lagging follower refused inside the bounded-
			// staleness contract. Retry at the primary — without marking the
			// follower suspect; it answered, it is just behind.
			if p := s.primaryOf(op.Doc); p >= 0 && p != target && ct.rebindRoSite(op.Doc, target) {
				ct.claimRoSite(op.Doc, p)
				continue
			}
		}
		if res.failed {
			msg := res.err
			if msg == "" {
				msg = "snapshot read failed"
			}
			return txn.FromCode(res.code, msg)
		}
		ct.markRoPinned(op.Doc, target)
		ct.results[opIdx] = res.results
		ct.t.Ops[opIdx].Executed = true
		return nil
	}
}
