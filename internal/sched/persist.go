package sched

import (
	"fmt"
	"math"

	"repro/internal/xmltree"
)

// A commit is durable iff it is in the journal: it appends one intent line
// carrying its applied operations (commitLocal) and never rewrites a
// document. The Store holds checkpoints. A per-document checkpointer saves
// the document's committed image — publishLocked's cut: the live tree minus
// the uncommitted updates, so the Store cannot hold an undecided
// transaction's change, together with the log index that state reflects —
// and then seals every intent the image covers with one journal line. The
// index is part of the image (store.Store), so a crash leaves the previous
// image or the new one, each at the index it names, and a restart loads it
// and replays the open intents past that index (LoadDocument).
//
// A checkpoint runs once checkpointEvery records have accumulated on a
// document, on Sync and on Stop, whatever writers are in flight: a checkpoint
// lags by at most checkpointEvery records plus those committed while one
// image is being written (TestCheckpointProgressUnderOverlappingWriters). A
// site without a journal is memory-only between those points. At most one
// checkpointer runs per document, which keeps Store writes in commit order,
// and everything but cutting the head happens outside the domain mutex.
//
// A failed Save is latched on the document (persistErr) and counted in
// Stats.PersistErrors: later commits touching the document refuse
// consolidation, so the failure surfaces instead of being silently dropped.

// checkpointEvery is how many records may accumulate on a document before
// its image is saved again: it bounds the replay work of a restart and the
// intents the journal carries across compactions.
const checkpointEvery = 64

// Sync checkpoints every document that has records its saved image does not
// reflect and returns once the checkpointers are idle. On a quiescent site
// the Store then holds exactly the committed documents and the journal no
// open intent; a document with a transaction in flight is saved without that
// transaction's changes. Commits acknowledged while Sync is blocked may or
// may not be covered.
func (s *Site) Sync() {
	for _, ds := range s.allDocs() {
		ds.mu.Lock()
		s.scheduleCheckpointLocked(ds)
		ds.mu.Unlock()
	}
	s.Quiesce()
}

// checkpointIfDueLocked starts a checkpoint when the document has gone
// checkpointEvery records without one. Callers hold ds.mu.
func (s *Site) checkpointIfDueLocked(ds *docState) {
	if ds.replApplied-ds.savedIdx >= checkpointEvery {
		s.scheduleCheckpointLocked(ds)
	}
}

// scheduleCheckpointLocked asks for one more checkpoint of the document and
// starts its checkpointer if none is running. Callers hold ds.mu.
func (s *Site) scheduleCheckpointLocked(ds *docState) {
	if s.Killed() {
		return
	}
	ds.ckptWanted = true
	if !ds.ckptActive {
		ds.ckptActive = true
		s.persistMu.Lock()
		s.workerCount++
		s.persistMu.Unlock()
		go s.checkpointer(ds)
	}
}

// Quiesce blocks until no checkpointer is running — including, after Kill,
// one caught mid Store write. A crashed in-process site shares its Store
// with the instance that will replace it, so the replacement must not load
// while a dead incarnation's Save could still land (a real process crash
// needs nothing: the checkpointers die with the process). Do not call from
// inside a CrashHooks callback — BeforeCheckpoint runs on the goroutine
// being waited for.
func (s *Site) Quiesce() {
	s.persistMu.Lock()
	for s.workerCount > 0 {
		s.persistCond.Wait()
	}
	s.persistMu.Unlock()
}

// checkpointer saves the document's committed image for as long as
// checkpoints are asked for, and exits when none is.
func (s *Site) checkpointer(ds *docState) {
	defer func() {
		s.persistMu.Lock()
		s.workerCount--
		if s.workerCount == 0 {
			s.persistCond.Broadcast()
		}
		s.persistMu.Unlock()
	}()
	for {
		ds.mu.Lock()
		if !ds.ckptWanted || s.Killed() {
			ds.ckptActive = false
			ds.mu.Unlock()
			return
		}
		ds.ckptWanted = false
		head, idx := s.publishLocked(ds, math.MaxInt64)
		ds.versions.Unpin(head) // the chain keeps its head regardless
		covered := idx - ds.savedIdx
		ds.mu.Unlock()
		if covered <= 0 {
			continue // the saved image is current
		}

		if hooks := s.cfg.Hooks; hooks != nil && hooks.BeforeCheckpoint != nil {
			hooks.BeforeCheckpoint(ds.name)
		}
		if s.Killed() {
			continue // the loop head retires the checkpointer
		}
		sp := s.m.reg.Span()
		err := s.saveImage(head.Doc, idx)
		sp.Done(ds.met.persistSave)
		ds.met.persistBatch.Observe(float64(covered))
		ds.mu.Lock()
		switch {
		case err == nil:
			ds.savedIdx = idx
		case s.Killed():
			// The crash cut the checkpoint short (its journal is closed): not
			// a Store failure.
		case ds.persistErr == nil:
			s.m.persistErrors.Inc()
			ds.persistErr = fmt.Errorf("sched: checkpoint %s: %w", ds.name, err)
		}
		ds.mu.Unlock()
	}
}

// saveImage writes a committed image of a document that reflects its log up
// to idx, then seals the intents it covers. The order matters: an unsealed
// covered intent is skipped by replay, a sealed uncovered one would be a lost
// commit.
func (s *Site) saveImage(doc *xmltree.Document, idx int64) error {
	if err := s.cfg.Store.SaveAt(doc, idx); err != nil {
		return err
	}
	if j := s.cfg.Journal; j != nil {
		return j.LogCheckpoint(doc.Name, idx)
	}
	return nil
}
