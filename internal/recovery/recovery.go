// Package recovery makes a DTX cluster survive site crashes end to end: a
// crashed site restarts from its Store images plus journal replay, a crashed
// coordinator's dangling commit decisions are settled against the
// participants, and its documents catch up from surviving replicas before
// it rejoins — while, on the surviving sites, failure detection
// (heartbeats, internal/sched) reroutes reads around the dead replica and
// fails writes fast. The paper defers durability and atomicity to future
// work (§5); this package is that direction, built on the journal's
// intent/decision records.
//
// # What a restart has to settle
//
// A participant's intent is its redo record: it is written after the
// coordinator's decision, it carries the operations the transaction applied
// here, and Bootstrap replays every intent the saved image does not reflect
// — so an open intent is replayable, never in doubt, and a site needs no
// peer to get its own acknowledged commits back. A commit is durable iff it
// is in the journal; the Store holds checkpoints, each naming in the image
// itself the log index it reflects, so a crash on either side of a
// checkpoint's rename leaves an image the journal replays onto correctly.
//
// What a journal cannot answer locally is a dangling decision: the
// coordinator logged its commit decision but crashed before consolidating
// here, so the fate depends on which participants the fan-out reached. The
// question goes to them: if any consolidated, the commit stands (catch-up
// pulls the committed bytes); if a reachable site resolved the transaction
// aborted — the crash beat the whole fan-out and the survivors presumed
// abort — the decision is voided; otherwise it is left for the next pass.
//
// Document convergence is a separate, simpler step: replicas that
// consolidated hold the authoritative bytes, so the restarted site brings
// each of its documents up to a live replica (catch-up) before rejoining.
package recovery

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/sched"
	"repro/internal/transport"
	"repro/internal/txn"
	"repro/internal/xmltree"
)

// Options tunes a recovery run.
type Options struct {
	// CatchUp brings every locally held document up to a live replica
	// before the site rejoins (default true via DefaultOptions). Without
	// replicas the local image plus journal replay is served as-is.
	CatchUp bool
	// Timeout bounds each individual resolution / catch-up exchange.
	Timeout time.Duration
}

// DefaultOptions is what the restart paths use unless told otherwise.
var DefaultOptions = Options{CatchUp: true, Timeout: 2 * time.Second}

func (o Options) withDefaults() Options {
	if o.Timeout <= 0 {
		o.Timeout = DefaultOptions.Timeout
	}
	return o
}

// Outcome is the settled fate of a dangling decision.
type Outcome string

// Outcomes.
const (
	Committed Outcome = "committed"
	Aborted   Outcome = "aborted"
)

// Resolution records how one dangling coordinator decision was settled.
type Resolution struct {
	Txn     string
	Outcome Outcome
	// Source names the authority: "participant" or "presumed-abort".
	Source string
}

// Report summarises one recovery run.
type Report struct {
	Site int
	// Documents the site recovered from its store.
	Documents []string
	// Replayed counts the journal records replayed onto the saved images.
	Replayed int
	// Decisions settles the dangling commit decisions of a crashed
	// coordinator — decided transactions that never consolidated locally,
	// whose fate depends on which participants the fan-out reached.
	Decisions []Resolution
	// CaughtUp lists the documents refreshed from a live replica —
	// incrementally (replication-log replay) or by whole-document transfer.
	CaughtUp []string
	// ReplRecords counts the replication-log records fetched and applied by
	// incremental catch-up (quorum mode); documents it made current avoid
	// the whole-document transfer entirely.
	ReplRecords int
	// SeqFloor is the identifier fence applied to the restarted site.
	SeqFloor int64
}

// String renders the report compactly for logs and dtxctl.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "site %d: %d document(s)", r.Site, len(r.Documents))
	if r.SeqFloor > 0 {
		fmt.Fprintf(&b, ", seq fence %d", r.SeqFloor)
	}
	if r.Replayed > 0 {
		fmt.Fprintf(&b, "\n  replayed %d journal record(s)", r.Replayed)
	}
	for _, res := range r.Decisions {
		fmt.Fprintf(&b, "\n  decision %s -> %s (%s)", res.Txn, res.Outcome, res.Source)
	}
	if len(r.CaughtUp) > 0 {
		fmt.Fprintf(&b, "\n  caught up: %s", strings.Join(r.CaughtUp, ", "))
	}
	if r.ReplRecords > 0 {
		fmt.Fprintf(&b, "\n  fetched %d replication record(s)", r.ReplRecords)
	}
	return b.String()
}

// Restart rebuilds a crashed site and resolves its past: Bootstrap the
// documents from the Store and replay the journal onto them, settle the
// dangling decisions, catch the documents up from live replicas, and
// finally mark the site ready so heartbeats readmit it. The site must be
// freshly constructed with Config.Recovering and already attached to the
// transport.
func Restart(s *sched.Site, opts Options) (*Report, error) {
	opts = opts.withDefaults()
	if s.Ready() {
		return nil, fmt.Errorf("recovery: site %d is already serving", s.ID())
	}
	replayed, err := s.Bootstrap()
	if err != nil {
		return nil, fmt.Errorf("recovery: bootstrap site %d: %w", s.ID(), err)
	}
	report := &Report{Site: s.ID(), Documents: s.Documents(), Replayed: replayed}
	if j := s.Journal(); j != nil {
		// New already applied this fence; recorded here for the report.
		report.SeqFloor = j.MaxSeq(s.ID()) + sched.SeqFenceGap
	}
	if err := resolveDecisions(s, opts, report); err != nil {
		return nil, err
	}
	if opts.CatchUp {
		catchUp(s, opts, report)
	}
	s.FinishRecovery()
	return report, nil
}

// Resolve runs an online recovery pass on a live site (dtxctl -recover):
// checkpoint every document, then settle the dangling decisions the journal
// still carries. Options.CatchUp is ignored here — a serving site's
// in-memory state is already authoritative; catch-up is a restart-only step.
func Resolve(s *sched.Site, opts Options) (*Report, error) {
	opts = opts.withDefaults()
	if !s.Ready() {
		return nil, fmt.Errorf("recovery: site %d is recovering; retry once startup recovery completes", s.ID())
	}
	s.Sync()
	report := &Report{Site: s.ID(), Documents: s.Documents()}
	if err := resolveDecisions(s, opts, report); err != nil {
		return nil, err
	}
	return report, nil
}

// resolveDecisions settles the journal's dangling decisions (see the package
// comment) and seals the outcomes back into the journal. A decision whose
// local intent is still OPEN is not dangling at all: this site consolidated,
// and the checkpoint that covers the intent seals both.
func resolveDecisions(s *sched.Site, opts Options, report *Report) error {
	j := s.Journal()
	if j == nil {
		return nil
	}
	open := make(map[string]bool)
	for _, in := range j.OpenIntents() {
		open[in.Txn] = true
	}
	for _, t := range j.Decisions() {
		if open[t] {
			continue
		}
		id, err := txn.ParseID(t)
		if err != nil {
			continue
		}
		res := Resolution{Txn: t}
		ctx, cancel := context.WithTimeout(context.Background(), opts.Timeout)
		outcome := s.PollPeersOutcome(ctx, id)
		cancel()
		switch outcome {
		case transport.OutcomeCommitted:
			res.Outcome = Committed
			res.Source = "participant"
			// SealDecision re-checks for an open intent under the journal
			// lock, closing the race where one was logged since the snapshot.
			if err := j.SealDecision(t); err != nil {
				return fmt.Errorf("recovery: seal %s: %w", t, err)
			}
		case transport.OutcomeAborted:
			// Affirmative: a reachable site resolved the transaction
			// aborted, so no participant can hold a consolidation.
			res.Outcome = Aborted
			res.Source = "presumed-abort"
			if err := j.VoidDecision(t); err != nil {
				return fmt.Errorf("recovery: void %s: %w", t, err)
			}
		default:
			// Active (still consolidating somewhere) or unknown (nobody
			// reachable): zero grounds to void a durable commit decision —
			// a consolidated-but-unreachable participant may depend on it.
			// Left for the next pass.
			continue
		}
		report.Decisions = append(report.Decisions, res)
	}
	return nil
}

// catchUp converges every locally held document with the live replicas. In
// quorum-replication mode the incremental path runs first: resume from the
// position the saved image plus this site's own journal replay reached and
// fetch only the missing replication-log span from the primary. Only when
// that cannot converge the document — span past the shipping horizon,
// unreachable primary, or eager mode — does catch-up fall back to fetching
// the committed document from a live replica. A document with no path to
// convergence keeps its local image plus replay (and the report omits it).
func catchUp(s *sched.Site, opts Options, report *Report) {
	for _, name := range report.Documents {
		ctx, cancel := context.WithTimeout(context.Background(), opts.Timeout)
		n, current := s.ReplCatchUp(ctx, name)
		cancel()
		report.ReplRecords += n
		if current {
			report.CaughtUp = append(report.CaughtUp, name)
			continue
		}
		for _, site := range s.Catalog().Sites(name) {
			if site == s.ID() || s.PeerState(site) != sched.PeerUp {
				continue
			}
			ctx, cancel := context.WithTimeout(context.Background(), opts.Timeout)
			resp, err := s.Call(ctx, site, transport.FetchDocReq{Doc: name})
			cancel()
			if err != nil {
				continue
			}
			fetched, ok := resp.(transport.FetchDocResp)
			if !ok || !fetched.Found {
				continue
			}
			doc, err := xmltree.ParseString(name, fetched.XML)
			if err != nil {
				continue
			}
			if err := s.ReplaceDocument(doc, fetched.Head); err != nil {
				continue
			}
			report.CaughtUp = append(report.CaughtUp, name)
			break
		}
	}
}
