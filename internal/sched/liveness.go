package sched

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
	"repro/internal/txn"
)

// PeerState is a site's belief about one peer. The view is optimistic: every
// peer starts Up, a transport-level ErrPeerClosed (the peer crashed, closed,
// or departed) demotes it to Suspect instead of surfacing as a hard error
// on every later operation, and only repeated heartbeat misses confirm Down.
// Any successful exchange with the peer — a heartbeat or regular scheduler
// traffic — restores Up.
type PeerState int

// Peer states.
const (
	PeerUp PeerState = iota
	PeerSuspect
	PeerDown
)

func (p PeerState) String() string {
	switch p {
	case PeerUp:
		return "up"
	case PeerSuspect:
		return "suspect"
	case PeerDown:
		return "down"
	default:
		return "unknown"
	}
}

// liveness is the per-site failure detector state: the peer map fed by
// heartbeats and by outcome observation on every transport exchange.
// onDown fires once per Up/Suspect→Down transition, outside the mutex.
// With failure detection disabled (no heartbeat configured) the view is
// inert: every peer stays believed Up — a one-off ErrPeerClosed must not
// demote a peer that nothing will ever probe back to Up.
type liveness struct {
	enabled bool
	mu      sync.Mutex
	peers   map[int]*peerInfo
	onDown  func(site int)
}

type peerInfo struct {
	state  PeerState
	misses int
}

func newLiveness(enabled bool, onDown func(site int)) *liveness {
	return &liveness{enabled: enabled, peers: make(map[int]*peerInfo), onDown: onDown}
}

func (l *liveness) peer(site int) *peerInfo {
	p := l.peers[site]
	if p == nil {
		p = &peerInfo{state: PeerUp}
		l.peers[site] = p
	}
	return p
}

// Alive implements replica.Liveness: only Up peers serve operations. The
// local site is always alive to itself.
func (l *liveness) Alive(site int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	p := l.peers[site]
	return p == nil || p.state == PeerUp
}

// state returns the current belief about a peer.
func (l *liveness) state(site int) PeerState {
	l.mu.Lock()
	defer l.mu.Unlock()
	if p := l.peers[site]; p != nil {
		return p.state
	}
	return PeerUp
}

// observeUp records a successful exchange with the peer: whatever the
// suspicion was, the peer answered, so it is Up.
func (l *liveness) observeUp(site int) {
	l.mu.Lock()
	p := l.peer(site)
	p.state = PeerUp
	p.misses = 0
	l.mu.Unlock()
}

// observeClosed promotes a transport ErrPeerClosed into suspicion: the peer
// is not failed-hard, it is routed around until a heartbeat settles it.
func (l *liveness) observeClosed(site int) {
	if !l.enabled {
		return
	}
	l.mu.Lock()
	p := l.peer(site)
	if p.state == PeerUp {
		p.state = PeerSuspect
	}
	l.mu.Unlock()
}

// observeMiss records one failed (or not-ready) heartbeat and escalates
// Suspect to Down after the configured number of consecutive misses.
func (l *liveness) observeMiss(site int, maxMisses int) {
	if !l.enabled {
		return
	}
	l.mu.Lock()
	p := l.peer(site)
	p.misses++
	if p.state == PeerUp {
		p.state = PeerSuspect
	}
	transitioned := false
	if p.state == PeerSuspect && p.misses >= maxMisses {
		p.state = PeerDown
		transitioned = true
	}
	onDown := l.onDown
	l.mu.Unlock()
	if transitioned && onDown != nil {
		onDown(site)
	}
}

// snapshot renders the view for status reporting, sorted by site.
func (l *liveness) snapshot() []transport.PeerStatus {
	l.mu.Lock()
	sites := make([]int, 0, len(l.peers))
	for s := range l.peers {
		sites = append(sites, s)
	}
	states := make(map[int]PeerState, len(l.peers))
	for s, p := range l.peers {
		states[s] = p.state
	}
	l.mu.Unlock()
	sort.Ints(sites)
	out := make([]transport.PeerStatus, 0, len(sites))
	for _, s := range sites {
		out = append(out, transport.PeerStatus{Site: s, Status: states[s].String()})
	}
	return out
}

// heartbeatLoop pings every peer each interval and feeds the liveness view —
// the failure-detection half of the recovery subsystem. It is started by
// Attach when Config.HeartbeatInterval > 0. Every sweepRounds ticks it also
// runs the orphan sweep: the Down-edge trigger alone misses a coordinator
// that crashed and was replaced within the detection window (its fresh
// incarnation answers pings before the misses accumulate), which would
// strand its old transactions' locks here forever.
func (s *Site) heartbeatLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.cfg.HeartbeatInterval)
	defer ticker.Stop()
	// One sweep per ~10 heartbeat intervals, at least every second of ticks.
	sweepRounds := 10
	rounds := 0
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-ticker.C:
		}
		if rounds++; rounds >= sweepRounds {
			rounds = 0
			// Detached, one at a time: the sweep's bounded exchanges can
			// still take seconds against hung peers, and failure detection
			// must not stall behind them.
			if atomic.CompareAndSwapInt32(&s.sweeping, 0, 1) {
				s.wg.Add(1)
				go func() {
					defer s.wg.Done()
					defer atomic.StoreInt32(&s.sweeping, 0)
					s.sweepOrphans()
				}()
			}
		}
		var wg sync.WaitGroup
		for _, site := range s.cfg.Sites {
			if site == s.id {
				continue
			}
			wg.Add(1)
			go func(site int) {
				defer wg.Done()
				// Bounded at a few intervals, not one: a ping must survive a
				// round trip whose latency approaches the interval (the
				// in-process network charges the synthetic latency twice),
				// or a merely-distant peer reads as permanently down.
				ctx, cancel := context.WithTimeout(s.ctx, 3*s.cfg.HeartbeatInterval)
				resp, err := s.send(ctx, site, transport.PingReq{})
				cancel()
				ack, _ := resp.(transport.Ack)
				if err != nil || !ack.OK {
					s.liveness.observeMiss(site, s.cfg.HeartbeatMisses)
					return
				}
				// send already observed the success; nothing more to do.
			}(site)
		}
		wg.Wait()
	}
}

// abortOrphans cancels every participant-side transaction whose coordinator
// is the given (now Down) site — presumed abort for transactions whose
// coordinator can no longer decide. Before presuming, each transaction's
// outcome is checked against the other live sites: a coordinator that died
// mid commit fan-out may have consolidated the transaction at some
// participant, and that knowledge must win over the presumption, or
// replicas diverge. A participant still consolidating ("active") defers
// the presumption — the transaction is about to commit there, and aborting
// our half would diverge just the same; the retry loop re-resolves until
// the peer settles. It runs detached from the heartbeat loop (it performs
// its own transport exchanges and may wait out an active peer).
func (s *Site) abortOrphans(coordSite int) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.mu.Lock()
		var orphans []txn.ID
		for id := range s.part {
			if id.Site == coordSite {
				orphans = append(orphans, id)
			}
		}
		s.mu.Unlock()
		for _, id := range orphans {
			s.resolveOrphan(id)
		}
		// Snapshot pins whose coordinator is down are released outright: a
		// read-only transaction has no outcome to resolve — no effects, no
		// locks, nothing to diverge — and its SnapshotReleaseReq died with
		// the coordinator. Releasing frees the pinned versions for GC.
		s.roMu.Lock()
		var roOrphans []txn.ID
		for id := range s.roPins {
			if id.Site == coordSite {
				roOrphans = append(roOrphans, id)
			}
		}
		s.roMu.Unlock()
		for _, id := range roOrphans {
			s.snapshotRelease(id)
		}
	}()
}

// sweepOrphans resolves participant transactions that have lingered here
// beyond any plausible in-flight window, whatever their coordinator's
// liveness state looks like — the backstop for crashes the Down edge never
// saw. Only definitive answers act: a live coordinator reports its
// long-running transaction active and the sweep leaves it alone; a
// restarted coordinator answers presumed abort for the transactions its
// previous incarnation left behind, releasing their locks.
func (s *Site) sweepOrphans() {
	age := 10 * s.cfg.HeartbeatInterval
	if age < 500*time.Millisecond {
		age = 500 * time.Millisecond
	}
	cutoff := time.Now().Add(-age)
	s.mu.Lock()
	var stale []txn.ID
	for id, pt := range s.part {
		if pt.created.Before(cutoff) {
			stale = append(stale, id)
		}
	}
	s.mu.Unlock()
	for _, id := range stale {
		ctx, cancel := context.WithTimeout(s.ctx, 2*time.Second)
		outcome := s.resolveOutcome(ctx, id)
		cancel()
		switch outcome {
		case transport.OutcomeCommitted:
			_ = s.commitLocal(id)
		case transport.OutcomeAborted:
			s.abortLocal(id)
		}
	}

	// Aged snapshot pin sets get the same backstop: a coordinator that died
	// (or was replaced) without its release reaching this site would pin a
	// version — and block its GC — forever. A coordinator that still reports
	// the transaction active (a genuinely long reader) keeps its pins.
	s.roMu.Lock()
	var roStale []txn.ID
	for id, set := range s.roPins {
		if set.created.Before(cutoff) {
			roStale = append(roStale, id)
		}
	}
	s.roMu.Unlock()
	for _, id := range roStale {
		ctx, cancel := context.WithTimeout(s.ctx, 2*time.Second)
		outcome := s.resolveOutcome(ctx, id)
		cancel()
		if outcome != transport.OutcomeActive {
			s.snapshotRelease(id)
		}
	}
}

// resolveOrphan settles one orphaned participant transaction. "Active" — a
// site (a falsely-suspected live coordinator) still DRIVES the transaction —
// is waited out for as long as it keeps being said: presuming abort against
// a live driver is exactly the divergence the protocol exists to prevent.
// Commit and abort answers apply directly. "Unknown" (nobody reachable
// knows a verdict) presumes abort: releasing the orphan's locks is what
// keeps the surviving replicas readable while the coordinator is down, and
// any participant that consolidated would have answered committed. The
// presumption is heuristic in exactly one corner — a consolidated
// participant that is ALSO unreachable during the poll (a second,
// simultaneous failure) diverges until it restarts through recovery, which
// re-converges it against this site's abort verdict.
func (s *Site) resolveOrphan(id txn.ID) {
	for {
		// Each resolution round is bounded: a partitioned (hung but
		// connected) peer must not block lock release forever.
		ctx, cancel := context.WithTimeout(s.ctx, 2*time.Second)
		outcome := s.resolveOutcome(ctx, id)
		cancel()
		switch outcome {
		case transport.OutcomeCommitted:
			_ = s.commitLocal(id)
			return
		case transport.OutcomeActive:
			timer := time.NewTimer(25 * time.Millisecond)
			select {
			case <-timer.C:
			case <-s.ctx.Done():
				timer.Stop()
				return
			}
		default:
			s.abortLocal(id)
			return
		}
	}
}

// resolveOutcome runs the read side of the termination protocol for one
// transaction: ask the coordinator (authoritative — decision record or
// presumed abort), then fall back to polling the other live sites, where
// any "committed" wins and any "active" (a participant still
// consolidating) defers the verdict. OutcomeUnknown means no live site
// could answer.
func (s *Site) resolveOutcome(ctx context.Context, id txn.ID) string {
	if id.Site == s.id {
		resp := s.txnStatusLocal(id)
		return resp.Outcome
	}
	if resp, err := s.askStatus(ctx, id.Site, id); err == nil {
		// An authoritative verdict stands on its own. "Active" is honoured
		// too, authoritative or not: it means the coordinator is alive and
		// still DRIVING the transaction (a false suspicion), and discarding
		// it would let the peer poll presume abort under a live commit.
		if resp.Authoritative || resp.Outcome == transport.OutcomeActive {
			return resp.Outcome
		}
	}
	return s.pollPeers(ctx, id)
}

// pollPeers is the participant-poll half of the termination protocol: every
// site except this one and the transaction's coordinator is asked, and the
// answers fold with the precedence committed > active > aborted > unknown —
// a consolidated participant proves the commit decision, one still
// consolidating defers the verdict, and the rest is the survivors'
// collective presumption. Shared by survivor-side orphan resolution and
// (via PollPeersOutcome) restart-time decision reconciliation, so the two
// can never disagree on the fold.
func (s *Site) pollPeers(ctx context.Context, id txn.ID) string {
	outcome := transport.OutcomeUnknown
	for _, site := range s.cfg.Sites {
		if site == s.id || site == id.Site {
			continue
		}
		resp, err := s.askStatus(ctx, site, id)
		if err != nil {
			continue
		}
		switch resp.Outcome {
		case transport.OutcomeCommitted:
			return transport.OutcomeCommitted
		case transport.OutcomeActive:
			outcome = transport.OutcomeActive
		case transport.OutcomeAborted:
			if outcome == transport.OutcomeUnknown {
				outcome = transport.OutcomeAborted
			}
		}
	}
	return outcome
}

// PollPeersOutcome exposes the participant poll for internal/recovery.
func (s *Site) PollPeersOutcome(ctx context.Context, id txn.ID) string {
	return s.pollPeers(ctx, id)
}

// askStatus sends one TxnStatusReq.
func (s *Site) askStatus(ctx context.Context, site int, id txn.ID) (transport.TxnStatusResp, error) {
	resp, err := s.send(ctx, site, transport.TxnStatusReq{Txn: id})
	if err != nil {
		return transport.TxnStatusResp{}, err
	}
	st, ok := resp.(transport.TxnStatusResp)
	if !ok {
		return transport.TxnStatusResp{}, errors.New("sched: unexpected status response")
	}
	return st, nil
}

// txnStatusLocal answers a TxnStatusReq from this site's knowledge, in
// precedence order: committed tombstone, live transaction, live journal
// decision, aborted tombstone, then — authoritatively, for transactions
// this site coordinates — the presumed-abort rule. The live decision
// outranks an aborted tombstone deliberately: a coordinator whose commit
// fan-out partially consolidated fails the transaction locally (tombstone
// aborted) but keeps the decision record, and a recovering participant
// asking about it must hear "committed" — commit-wins is what lets it
// converge with the participant that did consolidate, instead of sealing an
// abort over persisted state.
func (s *Site) txnStatusLocal(id txn.ID) transport.TxnStatusResp {
	s.mu.Lock()
	committed, known := s.finished[id]
	_, activeCoord := s.coord[id]
	_, activePart := s.part[id]
	s.mu.Unlock()
	coordinator := id.Site == s.id
	if known && committed {
		return transport.TxnStatusResp{Outcome: transport.OutcomeCommitted, Authoritative: coordinator}
	}
	if s.cfg.Journal != nil && s.cfg.Journal.Decision(id.String()) {
		// The decision outranks "active" and an aborted tombstone alike: a
		// durable commit decision means the outcome IS commit — whether the
		// fan-out is still in flight or a partial consolidation made the
		// coordinator fail the transaction locally, an asker must hear
		// commit-wins or it diverges from the participant that persisted.
		return transport.TxnStatusResp{Outcome: transport.OutcomeCommitted, Authoritative: coordinator}
	}
	if activeCoord {
		// This site DRIVES the transaction; askers must wait it out.
		return transport.TxnStatusResp{Outcome: transport.OutcomeActive}
	}
	if known {
		return transport.TxnStatusResp{Outcome: transport.OutcomeAborted, Authoritative: coordinator}
	}
	if activePart {
		// Passive participant state: operations executed, no verdict yet.
		// Not "active" — this site is waiting for one, exactly like the
		// asker — and not an answer either.
		return transport.TxnStatusResp{Outcome: transport.OutcomeUnknown}
	}
	if coordinator && s.Ready() {
		// Presumed abort: this site coordinates the transaction, has no
		// record of it and no decision — it cannot have told any participant
		// to consolidate.
		return transport.TxnStatusResp{Outcome: transport.OutcomeAborted, Authoritative: true}
	}
	return transport.TxnStatusResp{Outcome: transport.OutcomeUnknown}
}
