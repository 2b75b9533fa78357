package sched

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/lock"
	"repro/internal/txn"
	"repro/internal/xupdate"
)

// policyConfig is an AdaptiveConfig with every dial explicit, for tests that
// drive adaptTick by hand (Enabled stays false so Attach starts no loop and
// the test owns the tick cadence).
func policyConfig() AdaptiveConfig {
	return AdaptiveConfig{
		Window:       50 * time.Millisecond,
		ConflictHigh: 0.20,
		ConflictLow:  0.02,
		DeadlockHigh: 0.01,
		LockWaitHigh: 25 * time.Millisecond,
		Consecutive:  2,
		Dwell:        3,
		DrainTimeout: 250 * time.Millisecond,
	}
}

// TestSwitchProtocolQuiescentPoint exercises the drain: a switch requested
// while a transaction holds locks must wait for its strict-2PL release, a
// transaction submitted mid-drain must be parked and readmitted under the
// new protocol, and afterwards the domain serves normally.
func TestSwitchProtocolQuiescentPoint(t *testing.T) {
	// Pinned to xdgl (not the DTX_PROTOCOL matrix): the test asserts the
	// specific xdgl -> doclock transition.
	sites, _ := newClusterWithProtocol(t, 1, "xdgl", func(c *Config) { c.OpDelay = 40 * time.Millisecond })
	s := sites[0]
	addDoc(t, s, "d2", productsXML)

	writerDone := make(chan *Result, 1)
	go func() {
		res, err := s.Submit([]txn.Operation{
			txn.NewUpdate("d2", &xupdate.Update{Kind: xupdate.Change, Target: "//product[id='4']/price", Value: "2.00"}),
			txn.NewQuery("d2", "//product/id"), // OpDelay keeps the X lock held
		})
		if err != nil {
			t.Error(err)
		}
		writerDone <- res
	}()
	time.Sleep(10 * time.Millisecond) // let the writer take its lock

	// A transaction arriving mid-drain: refused admission, parked in the
	// coordinator's wait mode, readmitted under the new protocol.
	midDone := make(chan *Result, 1)
	go func() {
		time.Sleep(5 * time.Millisecond)
		res, err := s.Submit([]txn.Operation{txn.NewQuery("d2", "//product/price")})
		if err != nil {
			t.Error(err)
		}
		midDone <- res
	}()

	if err := s.SwitchProtocol("d2", lock.DocLock{}); err != nil {
		t.Fatal(err)
	}
	// The writer consolidates before it releases its locks, so a drain that
	// waited them out finds its record applied. (Comparing time.Now() here
	// with a stamp the writer's goroutine takes after Submit returns races:
	// the switch may legitimately finish between the lock release and that
	// stamp.)
	ds := s.doc("d2")
	ds.mu.Lock()
	applied := ds.replApplied
	ds.mu.Unlock()
	if applied != 1 {
		t.Fatal("switch completed while the writer still held locks")
	}
	if w := <-writerDone; w.State != txn.Committed {
		t.Fatalf("writer = %v (%s)", w.State, w.Reason)
	}
	if m := <-midDone; m.State != txn.Committed {
		t.Fatalf("mid-drain transaction = %v (%s)", m.State, m.Reason)
	}
	if got := s.DocProtocol("d2"); got != "doclock" {
		t.Fatalf("DocProtocol = %q, want doclock", got)
	}
	if n := s.ProtocolSwitches(); n != 1 {
		t.Fatalf("ProtocolSwitches = %d, want 1", n)
	}

	// The domain keeps serving under the new protocol.
	res, err := s.Submit([]txn.Operation{
		txn.NewUpdate("d2", &xupdate.Update{Kind: xupdate.Change, Target: "//product[id='4']/price", Value: "3.00"}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.State != txn.Committed {
		t.Fatalf("post-switch transaction = %v (%s)", res.State, res.Reason)
	}
}

// TestSwitchProtocolDrainTimeout: a domain that cannot quiesce within
// DrainTimeout abandons the switch, keeps the old protocol and readmits the
// transactions the drain barrier had refused.
func TestSwitchProtocolDrainTimeout(t *testing.T) {
	sites, _ := newClusterWithProtocol(t, 1, "xdgl", func(c *Config) {
		c.OpDelay = 150 * time.Millisecond
		c.Adaptive.DrainTimeout = 25 * time.Millisecond
	})
	s := sites[0]
	addDoc(t, s, "d2", productsXML)

	writerDone := make(chan *Result, 1)
	go func() {
		res, _ := s.Submit([]txn.Operation{
			txn.NewUpdate("d2", &xupdate.Update{Kind: xupdate.Change, Target: "//product[id='4']/price", Value: "2.00"}),
			txn.NewQuery("d2", "//product/id"), // holds the lock far past DrainTimeout
		})
		writerDone <- res
	}()
	time.Sleep(10 * time.Millisecond)

	parkedDone := make(chan *Result, 1)
	go func() {
		time.Sleep(5 * time.Millisecond)
		res, _ := s.Submit([]txn.Operation{txn.NewQuery("d2", "//product/price")})
		parkedDone <- res
	}()

	err := s.SwitchProtocol("d2", lock.DocLock{})
	if !errors.Is(err, errSwitchAbandoned) {
		t.Fatalf("err = %v, want errSwitchAbandoned", err)
	}
	if got := s.DocProtocol("d2"); got != "xdgl" {
		t.Fatalf("protocol after abandoned switch = %q, want xdgl", got)
	}
	if n := s.ProtocolSwitches(); n != 0 {
		t.Fatalf("ProtocolSwitches = %d, want 0", n)
	}
	if w := <-writerDone; w.State != txn.Committed {
		t.Fatalf("writer = %v", w.State)
	}
	if p := <-parkedDone; p.State != txn.Committed {
		t.Fatalf("parked transaction = %v after abandoned switch", p.State)
	}
}

func TestSwitchProtocolValidation(t *testing.T) {
	sites, _ := newClusterWithProtocol(t, 1, "xdgl", nil)
	s := sites[0]
	addDoc(t, s, "d2", productsXML)
	if err := s.SwitchProtocol("ghost", lock.DocLock{}); err == nil {
		t.Error("switch on unknown document accepted")
	}
	if err := s.SwitchProtocol("d2", nil); err == nil {
		t.Error("nil protocol accepted")
	}
	// Same protocol: a no-op, not a counted switch.
	if err := s.SwitchProtocol("d2", lock.XDGL{}); err != nil {
		t.Fatal(err)
	}
	if n := s.ProtocolSwitches(); n != 0 {
		t.Fatalf("no-op switch counted: %d", n)
	}
}

// TestAdaptivePolicyLadder drives the policy engine tick by tick with
// synthetic counter traffic: sustained conflict pressure must escalate
// node2pl -> xdgl only after Consecutive hot windows AND the Dwell pin, a
// cold document must relax back down, and idle windows must decay streaks.
func TestAdaptivePolicyLadder(t *testing.T) {
	sites, _ := newCluster(t, 1, func(c *Config) {
		c.Protocol = lock.Node2PL{}
		c.Adaptive = policyConfig() // Enabled=false: the test ticks by hand
	})
	s := sites[0]
	addDoc(t, s, "d1", peopleXML)
	ds := s.doc("d1")
	state := make(map[string]*docPolicy)

	hotWindow := func() {
		ds.met.ops.Add(100)
		ds.met.conflicts.Add(50) // conflict rate 1/3, above ConflictHigh
		s.adaptTick(state)
	}
	coldWindow := func() {
		ds.met.ops.Add(100) // zero conflicts, below ConflictLow
		s.adaptTick(state)
	}

	// Hot windows 1..2 build the streak but sinceSwitch < Dwell(3) pins.
	hotWindow()
	hotWindow()
	if got := s.DocProtocol("d1"); got != "node2pl" {
		t.Fatalf("escalated during dwell: %q", got)
	}
	hotWindow() // window 3: streak >= Consecutive and dwell satisfied
	if got := s.DocProtocol("d1"); got != "xdgl" {
		t.Fatalf("protocol = %q, want xdgl after sustained pressure", got)
	}

	// Already at the top: more pressure must not step past the ladder end.
	hotWindow()
	hotWindow()
	hotWindow()
	if got := s.DocProtocol("d1"); got != "xdgl" {
		t.Fatalf("protocol = %q, want xdgl at ladder top", got)
	}

	// An idle window decays the cold streak: cold, idle, cold, cold must
	// relax only on the second consecutive cold window after the gap.
	coldWindow()       // dwell counting restarts post-switch
	s.adaptTick(state) // idle: no traffic at all
	coldWindow()       // cold streak 1
	if got := s.DocProtocol("d1"); got != "xdgl" {
		t.Fatalf("relaxed after idle-decayed streak: %q", got)
	}
	coldWindow() // cold streak 2 -> relax one rung
	if got := s.DocProtocol("d1"); got != "node2pl" {
		t.Fatalf("protocol = %q, want node2pl after cold windows", got)
	}
	if n := s.ProtocolSwitches(); n != 2 {
		t.Fatalf("ProtocolSwitches = %d, want 2", n)
	}
}

// TestAdaptiveDeadlockRetreat: deadlock pressure above the ladder bottom
// retreats coarser — and the abandoned rung is burned, so the congestion the
// coarser lock then shows cannot immediately climb back into the abort storm.
func TestAdaptiveDeadlockRetreat(t *testing.T) {
	sites, _ := newCluster(t, 1, func(c *Config) {
		c.Protocol = lock.Node2PL{}
		c.Adaptive = policyConfig()
	})
	s := sites[0]
	addDoc(t, s, "d1", peopleXML)
	ds := s.doc("d1")
	state := make(map[string]*docPolicy)

	// Deadlocky windows: conflicts high too, but the retreat must win.
	for i := 0; i < 3; i++ {
		ds.met.ops.Add(100)
		ds.met.conflicts.Add(50)
		ds.met.deadlocks.Add(10)
		s.adaptTick(state)
	}
	if got := s.DocProtocol("d1"); got != "doclock" {
		t.Fatalf("protocol = %q, want doclock after deadlock pressure", got)
	}

	// The coarse lock now serializes: congested, zero deadlocks — exactly
	// the climb signal. The burned rung must hold it down for the cooldown.
	for i := 0; i < policyConfig().Dwell+2*policyConfig().Consecutive; i++ {
		ds.met.ops.Add(100)
		ds.met.conflicts.Add(50)
		s.adaptTick(state)
	}
	if got := s.DocProtocol("d1"); got != "doclock" {
		t.Fatalf("climbed back into the burned rung during cooldown: %q", got)
	}
}

// TestAdaptiveDeadlockSignal: a deadlock burst escalates even when the
// conflict rate stays under ConflictHigh.
func TestAdaptiveDeadlockSignal(t *testing.T) {
	sites, _ := newCluster(t, 1, func(c *Config) {
		c.Protocol = lock.DocLock{}
		c.Adaptive = policyConfig()
	})
	s := sites[0]
	addDoc(t, s, "d1", peopleXML)
	ds := s.doc("d1")
	state := make(map[string]*docPolicy)

	for i := 0; i < 3; i++ {
		ds.met.ops.Add(100)
		ds.met.conflicts.Add(5) // 4.8% conflicts: inside the hysteresis band
		ds.met.deadlocks.Add(5) // 5% deadlock rate, above DeadlockHigh
		s.adaptTick(state)
	}
	if got := s.DocProtocol("d1"); got != "node2pl" {
		t.Fatalf("protocol = %q, want node2pl after deadlock bursts", got)
	}
}

// TestAdaptiveLoopEndToEnd: with the policy goroutine running, a contended
// skewed write workload on a node2pl domain escalates it without any manual
// ticking, and the domain keeps committing throughout.
func TestAdaptiveLoopEndToEnd(t *testing.T) {
	sites, _ := newCluster(t, 1, func(c *Config) {
		c.Protocol = lock.Node2PL{}
		c.Adaptive = AdaptiveConfig{
			Enabled:     true,
			Window:      10 * time.Millisecond,
			Consecutive: 1,
			Dwell:       1,
		}
		c.DeadlockInterval = 5 * time.Millisecond
	})
	s := sites[0]
	addDoc(t, s, "d2", productsXML)

	// The two goroutines acquire in opposite orders, so deadlock-victim
	// aborts are an expected outcome, not an error (resubmission policy is
	// the application's job, out of scope here); the test only requires
	// that commits keep happening and the policy loop reacts.
	var committed atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Every writer hammers the same element: near-total conflict.
		for i := 0; i < 40; i++ {
			res, err := s.Submit([]txn.Operation{
				txn.NewUpdate("d2", &xupdate.Update{Kind: xupdate.Change, Target: "//product[id='4']/price", Value: "9.99"}),
				txn.NewQuery("d2", "//product/price"),
			})
			if err != nil {
				t.Errorf("writer %d: %v", i, err)
				return
			}
			if res.State == txn.Committed {
				committed.Add(1)
			}
		}
	}()
	contender := make(chan struct{})
	go func() {
		defer close(contender)
		for i := 0; i < 40; i++ {
			res, err := s.Submit([]txn.Operation{
				txn.NewUpdate("d2", &xupdate.Update{Kind: xupdate.Change, Target: "//product[id='14']/price", Value: "1.11"}),
				txn.NewUpdate("d2", &xupdate.Update{Kind: xupdate.Change, Target: "//product[id='4']/price", Value: "8.88"}),
			})
			if err == nil && res.State == txn.Committed {
				committed.Add(1)
			}
		}
	}()
	<-done
	<-contender
	if committed.Load() == 0 {
		t.Fatal("nothing committed under the adaptive loop")
	}

	deadline := time.After(2 * time.Second)
	for s.ProtocolSwitches() == 0 {
		select {
		case <-deadline:
			t.Fatalf("adaptive loop never switched; protocol still %q", s.DocProtocol("d2"))
		case <-time.After(10 * time.Millisecond):
		}
	}
}
