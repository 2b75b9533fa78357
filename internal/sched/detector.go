package sched

import (
	"sync"
	"time"

	"repro/internal/transport"
	"repro/internal/txn"
	"repro/internal/wfg"
)

// detectorLoop runs the periodic distributed deadlock check: "DTX has a
// process in the scheduler that periodically recovers the wait-for graphs
// from all the sites and checks for deadlocks".
func (s *Site) detectorLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.cfg.DeadlockInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-ticker.C:
			s.CheckDeadlocks()
		}
	}
}

// CheckDeadlocks is Algorithm 4 (process_deadlock_detection): union the
// wait-for graphs of all sites; if the union has a circle, abort the most
// recently started transaction in it. Returns true if a deadlock was found
// and a victim signalled.
//
// The per-site WFG snapshots are pulled concurrently and bound to the
// site's lifecycle context, so one slow peer neither stretches the sweep to
// the sum of the round trips nor leaks a blocked poll past Stop. Because
// victim selection is deterministic (newest timestamp, ties broken by
// transaction ID), several sites running the check concurrently converge
// on the same victim; duplicate victim signals are idempotent.
func (s *Site) CheckDeadlocks() bool {
	sp := s.m.reg.Span()
	defer sp.Done(s.m.detectorCycle)
	union := wfg.New()
	// Collect the local graphs first (Algorithm 4 walks all sites; the site
	// running the check contributes its own lock managers' graphs without
	// messaging).
	union.Union(s.localEdges())

	remote := make([][]wfg.Edge, len(s.cfg.Sites))
	var wg sync.WaitGroup
	for i, site := range s.cfg.Sites {
		if site == s.id || !s.liveness.Alive(site) {
			// A down or suspected site contributes no edges — its lock
			// managers are gone with it; wasting a poll on it only slows
			// the sweep.
			continue
		}
		wg.Add(1)
		go func(i, site int) {
			defer wg.Done()
			resp, err := s.send(s.ctx, site, transport.WFGReq{})
			if err != nil {
				// An unreachable site contributes no edges this round; its
				// cycles will be found when it answers again.
				return
			}
			if g, ok := resp.(transport.WFGResp); ok {
				remote[i] = g.Edges
			}
		}(i, site)
	}
	wg.Wait()
	for _, edges := range remote {
		if edges == nil {
			continue
		}
		union.Union(edges)
		// Check after each union so the first circle found is handled
		// immediately (Algorithm 4 checks inside the loop).
		if s.resolveCycle(union) {
			return true
		}
	}
	return s.resolveCycle(union)
}

// resolveCycle looks for a circle in the union graph and, if found, directs
// the victim's coordinator to abort it.
func (s *Site) resolveCycle(union *wfg.Graph) bool {
	cycle := union.FindCycle()
	if cycle == nil {
		return false
	}
	s.m.distDeadlocks.Inc()
	s.signalVictim(union.NewestInCycle(cycle), "distributed deadlock victim")
	return true
}

// signalVictim routes the abort order to the victim's coordinator — the
// site embedded in the transaction ID.
func (s *Site) signalVictim(victim txn.ID, reason string) {
	if victim == txn.Zero {
		return
	}
	if victim.Site == s.id {
		s.signalAbort(victim, reason)
		return
	}
	_, _ = s.send(s.ctx, victim.Site, transport.VictimReq{Txn: victim, Reason: reason})
}
