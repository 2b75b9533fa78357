package sched

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"time"

	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/txn"
	"repro/internal/xupdate"
)

// This file is the quorum-replication subsystem: the journal's redo records
// turned into a continuously shipped replication log. In ReplicationQuorum
// mode every operation of a read-write transaction runs at its document's
// primary (the lowest-numbered catalog site); at commit the primary journals
// one record per changed document — the transaction's applied updates, in
// order — inside its intent, and streams the unacked suffix to each
// follower. There is no separate shipping copy: a span is read back from the
// document's undo log, whose committed entries carry each update's operation,
// commit timestamp and record index (recordsSince), so the incremental
// window is the undo log's own: the last checkpointEvery records, trimmed at
// commit whatever the checkpoint interval (trimLocked).
// The commit acknowledges once Config.WriteQuorum replicas (primary
// included) have durably acked, so a partially-down replica set keeps
// accepting writes — the availability the eager mode's write-to-every-copy
// rule gives up.
//
// Followers apply records strictly in index order (idempotent on overlap,
// NACK-with-NeedFrom on gaps), journal them as intents of their own, advance
// their MVCC chains with the primary's commit timestamp, and serve snapshot
// reads as long as they are not knowingly behind for longer than
// maxStaleness; past the bound they refuse with CodeReplicaStale and the
// coordinator retries at the primary without marking them suspect. A
// restarted follower replays its own open intents onto its saved image and
// fetches the rest of the span from the primary's undo log; only past that
// window does it fall back to whole-document transfer.
//
// applyRecords is the one replay path: follower ship, recovery catch-up and
// load-time journal replay (both modes) all go through it.

// Replication modes for Config.Replication.
const (
	// ReplicationEager is the original write path: every write executes at
	// every replica, and a partially-down replica set refuses writes.
	ReplicationEager = "eager"
	// ReplicationQuorum is primary-routed writes with log-shipping
	// replication and quorum acknowledgement.
	ReplicationQuorum = "quorum"
)

// maxStaleness bounds how long a follower may knowingly lag its primary and
// still serve snapshot reads; past it the follower refuses with a
// retry-at-primary code instead of serving arbitrarily old data.
const maxStaleness = time.Second

// errQuorumShort reports a commit that consolidated locally — past the point
// of no return: journaled, locks released — but could not gather the write
// quorum for its replication records. The outcome is "commit uncertain", not
// a clean abort: the coordinator must fail the transaction, and convergence
// is restored by follower catch-up or recovery.
var errQuorumShort = errors.New("sched: local commit is consolidated but the write quorum was not reached")

// shipItem is one freshly appended replication record awaiting quorum.
type shipItem struct {
	ds  *docState
	rec store.ReplRecord
}

// primaryOf returns the document's primary site — the first site of its
// (sorted) catalog entry — or -1 for an unknown document.
func (s *Site) primaryOf(doc string) int {
	sites := s.cfg.Catalog.Sites(doc)
	if len(sites) == 0 {
		return -1
	}
	return sites[0]
}

// quorumFor resolves the configured write quorum against a document's
// replica count: explicit Config.WriteQuorum (capped at the replica count),
// or a majority by default.
func (s *Site) quorumFor(replicas int) int {
	q := s.cfg.WriteQuorum
	if q <= 0 {
		q = replicas/2 + 1
	}
	if q > replicas {
		q = replicas
	}
	return q
}

// noteWrites records the documents a just-committed read-write transaction
// updated through this site, so subsequent snapshot reads here prefer the
// primary within the staleness window (read-your-writes: a follower may not
// have applied the write yet without knowing it is behind).
func (s *Site) noteWrites(ct *coordTxn) {
	if !s.quorum {
		return
	}
	now := time.Now()
	s.rywMu.Lock()
	for i := range ct.t.Ops {
		if ct.t.Ops[i].Kind != txn.OpQuery {
			s.recentWrites[ct.t.Ops[i].Doc] = now
		}
	}
	s.rywMu.Unlock()
}

// recentlyWritten reports whether a read-write transaction submitted through
// this site committed an update to doc within the staleness window.
func (s *Site) recentlyWritten(doc string) bool {
	if !s.quorum {
		return false
	}
	s.rywMu.Lock()
	t, ok := s.recentWrites[doc]
	s.rywMu.Unlock()
	return ok && time.Since(t) <= maxStaleness
}

// replicaStale decides whether this replica must refuse a snapshot read of
// the document: it is a follower that KNOWS it is behind (a ship told it a
// newer head exists) and has been behind for longer than the staleness
// bound — or its primary is believed down while it still lags, so no ship
// will ever close the gap. A follower that is behind within the bound keeps
// serving (bounded staleness); the primary never refuses.
func (s *Site) replicaStale(docName string, ds *docState) (bool, string) {
	if !s.quorum {
		return false, ""
	}
	primary := s.primaryOf(docName)
	if primary < 0 || primary == s.id {
		return false, ""
	}
	ds.mu.Lock()
	behind := ds.knownHead > ds.replApplied
	since := ds.staleSince
	ds.mu.Unlock()
	if !behind {
		return false, ""
	}
	if time.Since(since) > maxStaleness || s.PeerState(primary) == PeerDown {
		return true, fmt.Sprintf("site %d lags %q beyond the staleness bound; retry at primary %d",
			s.id, docName, primary)
	}
	return false, ""
}

// shipQuorum streams freshly appended records to every follower of their
// documents and blocks until each record has the write quorum (the primary
// itself counts as one ack). Called by commitLocal AFTER the local point of
// no return — intent durable, locks released — so a shortfall cannot
// roll the commit back; it returns errQuorumShort and the coordinator fails
// the transaction honestly.
func (s *Site) shipQuorum(items []shipItem) error {
	for _, item := range items {
		doc := item.ds.doc.Name
		replicas := s.cfg.Catalog.Sites(doc)
		need := s.quorumFor(len(replicas))
		var followers []int
		for _, f := range replicas {
			if f != s.id {
				followers = append(followers, f)
			}
		}
		acked := make(chan bool, len(followers))
		for _, f := range followers {
			go func(f int) { acked <- s.shipTo(f, item.ds, item.rec.Index) }(f)
		}
		// Block only until the quorum is met: a slow follower delays no
		// commit past it — its ship completes in the background (the buffered
		// channel never blocks the goroutine) and shipTo still advances the
		// acked bookkeeping when it lands.
		acks := 1 // self: appended and journaled locally
		for responded := 0; acks < need && responded < len(followers); responded++ {
			if <-acked {
				acks++
			}
		}
		if acks < need {
			return fmt.Errorf("%w: %q acked by %d of %d replicas (quorum %d)",
				errQuorumShort, doc, acks, len(replicas), need)
		}
	}
	return nil
}

// shipTo sends one follower the unacked suffix of a document's log and
// reports whether the follower's durable position reached upTo. A gap NACK
// (the follower is further behind than our acked bookkeeping says) earns
// one in-call rewind from the index the follower names.
func (s *Site) shipTo(follower int, ds *docState, upTo int64) bool {
	sp := s.m.reg.Span()
	ds.mu.Lock()
	acked := ds.replAcked[follower]
	ds.mu.Unlock()
	ack, ok := s.shipSpan(follower, ds, acked)
	switch {
	case ok && !ack.OK && ack.NeedFrom > 0 && ack.NeedFrom <= acked:
		// Gap NACK: the follower is behind where the span started.
		ack, ok = s.shipSpan(follower, ds, ack.NeedFrom-1)
	case ok && ack.OK && ack.Applied < upTo && ack.Applied != acked:
		// OK ack from where replAcked did not say: behind it (the follower
		// restarted) or ahead (this primary restarted, and its span from 0
		// was past the undo log). Re-ship from the follower's position.
		ack, ok = s.shipSpan(follower, ds, ack.Applied)
	}
	if sp.Active() {
		s.m.replShip.With(strconv.Itoa(follower)).ObserveDuration(sp.Elapsed())
	}
	if !ok || !ack.OK {
		return false
	}
	ds.mu.Lock()
	if ds.replAcked == nil {
		ds.replAcked = make(map[int]int64)
	}
	prev := ds.replAcked[follower]
	if ack.Applied > prev {
		ds.replAcked[follower] = ack.Applied
		s.m.logShipped.Add(ack.Applied - prev)
	}
	ds.mu.Unlock()
	return ack.Applied >= upTo
}

// shipSpan sends one follower the document's records after `after`, read
// back from the undo log. When the log no longer reaches back to `after` the
// ship degrades to a head-only notification — the follower learns how far
// behind it is (and starts its staleness clock) but converges through
// restart catch-up.
func (s *Site) shipSpan(follower int, ds *docState, after int64) (transport.LogAck, bool) {
	recs, head, _ := ds.recordsSince(after)
	resp, err := s.send(context.Background(), follower, transport.LogShipReq{
		Doc: ds.name, From: s.id, Primary: s.id,
		Head: head, Records: recs,
	})
	if err != nil {
		return transport.LogAck{}, false
	}
	ack, ok := resp.(transport.LogAck)
	return ack, ok
}

// recordsSince reads the document's committed records after index `after`
// back from the undo log, in index order, together with the head index (the
// newest record applied). Entries sit in apply order and strict 2PL can
// commit them out of it, so the committed entries past `after` are grouped
// by index — each group, in apply order, is one record's operations. ok is
// false, with no records, when the log was trimmed past `after`
// (publishLocked) or the document was installed beyond it: the span must
// then come by whole-document transfer.
func (ds *docState) recordsSince(after int64) (recs []store.ReplRecord, head int64, ok bool) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if after < ds.trimIdx {
		return nil, ds.replApplied, false
	}
	var span []*undoEntry
	for i := range ds.undoLog {
		if p := &ds.undoLog[i]; p.cts != 0 && p.idx > after {
			span = append(span, p)
		}
	}
	slices.SortStableFunc(span, func(a, b *undoEntry) int { return cmp.Compare(a.idx, b.idx) })
	for _, p := range span {
		if n := len(recs); n == 0 || recs[n-1].Index != p.idx {
			recs = append(recs, store.ReplRecord{Index: p.idx, Txn: p.txn, TS: p.cts})
		}
		rec := &recs[len(recs)-1]
		rec.Ops = append(rec.Ops, p.op)
	}
	return recs, ds.replApplied, true
}

// handleLogShip is the follower half of the shipping protocol: record how
// far ahead the primary is, apply the in-order span, journal it (the
// durability the primary's quorum counts), and ack the new applied index.
// Records at or below the applied index are overlap from a resend and are
// skipped; a span starting past applied+1 is NACKed with NeedFrom so the
// primary rewinds.
func (s *Site) handleLogShip(m transport.LogShipReq) transport.LogAck {
	ack := transport.LogAck{Site: s.id}
	if !s.quorum {
		ack.Error = fmt.Sprintf("site %d is not in quorum-replication mode", s.id)
		return ack
	}
	ds := s.doc(m.Doc)
	if ds == nil {
		ack.Error = fmt.Sprintf("site %d does not hold %q", s.id, m.Doc)
		return ack
	}
	// Head bookkeeping happens BEFORE the lag hook and the apply: even if
	// the apply stalls, this replica now knows it is behind, which is what
	// the bounded-staleness refusal keys on.
	ds.mu.Lock()
	if m.Head > ds.knownHead {
		ds.knownHead = m.Head
	}
	if ds.knownHead > ds.replApplied && ds.staleSince.IsZero() {
		ds.staleSince = time.Now()
	}
	ack.Applied = ds.replApplied
	ds.mu.Unlock()
	// The follower's clock observes the shipped commit timestamps NOW, before
	// the (possibly slow) apply: a read-only transaction beginning here while
	// the apply lags must get a begin timestamp that covers the primary's
	// commit, or the staleness reroute to the primary would still pin the old
	// version.
	var shipTS txn.TS
	for _, rec := range m.Records {
		if rec.TS > shipTS {
			shipTS = rec.TS
		}
	}
	if shipTS > 0 {
		s.mu.Lock()
		s.clock.Observe(shipTS)
		s.mu.Unlock()
	}
	if !s.Ready() {
		ack.Error = fmt.Sprintf("site %d is recovering", s.id)
		return ack
	}
	if hooks := s.cfg.Hooks; hooks != nil && hooks.BeforeReplApply != nil {
		hooks.BeforeReplApply(m.Doc, m.From)
	}

	asp := s.m.reg.Span()
	n, err := s.applyRecords(ds, m.Records, false)
	ds.mu.Lock()
	ack.Applied = ds.replApplied
	if ds.replApplied >= ds.knownHead {
		ds.staleSince = time.Time{}
	}
	ds.mu.Unlock()
	if n > 0 {
		s.m.logApplied.Add(int64(n))
		asp.Done(ds.met.replApply)
	}
	switch {
	case errors.Is(err, errRecordGap):
		ack.NeedFrom = ack.Applied + 1
	case err != nil:
		ack.Error = fmt.Sprintf("site %d: %q: %v", s.id, m.Doc, err)
	default:
		ack.OK = true
	}
	return ack
}

// handleLogFetch serves a follower's catch-up request: the records after the
// index it resumes from, or PastHorizon when the undo log no longer reaches
// back that far.
func (s *Site) handleLogFetch(m transport.LogFetchReq) transport.LogFetchResp {
	ds := s.doc(m.Doc)
	if !s.quorum || !s.Ready() || ds == nil {
		return transport.LogFetchResp{}
	}
	recs, head, ok := ds.recordsSince(m.After)
	return transport.LogFetchResp{Found: true, PastHorizon: !ok, Head: head, Records: recs}
}

// errRecordGap reports a record span that does not continue the document's
// log position.
var errRecordGap = errors.New("record span starts past the applied position")

// applyRecords is the single routine that applies ReplRecords to a document:
// a follower's shipped span, a recovering replica's fetched span and the
// open intents a restart replays onto a saved image. Records at or below the
// document's position are overlap and skipped; the rest must continue it
// without a gap. Their inverses join the undo log already stamped committed,
// so snapshot readers are cut around them like around local commits. Unless
// the records come from this site's own journal (replay) they are journaled
// as intents — the durable ack a primary's quorum counts — under commitMu
// like a local commit, so the journal stays in index order. It returns how
// many records it applied, and errRecordGap or the failure that stopped it
// short.
func (s *Site) applyRecords(ds *docState, recs []store.ReplRecord, replay bool) (int, error) {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	var err error
	var fresh []store.ReplRecord
	var maxTS txn.TS
	ds.mu.Lock()
apply:
	for _, rec := range recs {
		if rec.Index <= ds.replApplied {
			continue
		}
		if rec.Index != ds.replApplied+1 {
			err = errRecordGap
			break
		}
		for _, op := range rec.Ops {
			if op.Kind != txn.OpUpdate || op.Update == nil {
				continue
			}
			var undo *xupdate.UndoRec
			if undo, _, err = xupdate.Apply(op.Update, ds.doc, ds.guide); err != nil {
				err = fmt.Errorf("apply record %d: %w", rec.Index, err)
				break apply
			}
			ds.undoLog = append(ds.undoLog, undoEntry{txn: rec.Txn, op: op, rec: undo, cts: max(rec.TS, 1), idx: rec.Index})
		}
		ds.replApplied = rec.Index
		maxTS = max(maxTS, rec.TS)
		fresh = append(fresh, rec)
	}
	ds.trimLocked()
	ds.mu.Unlock()
	if len(fresh) == 0 {
		return 0, err
	}
	s.mu.Lock()
	s.clock.Observe(maxTS)
	s.mu.Unlock()
	ds.versions.Advance(maxTS)
	var appended int64 // journal payload bytes behind the fresh records
	for _, rec := range fresh {
		if j := s.cfg.Journal; j != nil && !replay {
			sizes, jerr := j.AppendIntent(rec.Txn.String(), []string{ds.name}, rec)
			if err = cmp.Or(err, jerr); jerr == nil {
				appended += int64(sizes[0])
			}
		} else if j != nil {
			payload, _ := store.EncodeReplRecord(rec) // replayed; an error only undercounts
			appended += int64(len(payload))
		}
	}
	ds.mu.Lock()
	ds.logBytes += appended
	s.checkpointIfDueLocked(ds)
	ds.mu.Unlock()
	return len(fresh), err
}

// ReplCatchUp attempts incremental catch-up of one document on a recovering
// follower: resume from the position its saved image plus its own journal
// replay reached, fetch the missing span from the primary and apply it. It
// returns the number of records applied and whether the document is now
// current; false means the caller must fall back to whole-document transfer
// (eager mode, span past the primary's undo log, or an unreachable primary). A
// primary is current by its own replay.
func (s *Site) ReplCatchUp(ctx context.Context, doc string) (int, bool) {
	if !s.quorum || s.Ready() {
		return 0, false
	}
	ds := s.doc(doc)
	if ds == nil {
		return 0, false
	}
	ds.mu.Lock()
	after := ds.replApplied
	ds.mu.Unlock()
	primary := s.primaryOf(doc)
	if primary == s.id {
		return 0, true
	}
	resp, err := s.Call(ctx, primary, transport.LogFetchReq{Doc: doc, After: after})
	if err != nil {
		return 0, false
	}
	fr, ok := resp.(transport.LogFetchResp)
	if !ok || !fr.Found || fr.PastHorizon {
		return 0, false
	}
	n, err := s.applyRecords(ds, fr.Records, false)
	s.m.catchupRecords.Add(int64(n))
	ds.mu.Lock()
	if fr.Head > ds.knownHead {
		ds.knownHead = fr.Head
	}
	current := err == nil && ds.replApplied >= ds.knownHead
	if current {
		ds.staleSince = time.Time{}
	}
	ds.mu.Unlock()
	return n, current
}
