package sched

import (
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/txn"
	"repro/internal/xupdate"
)

// TestHeartbeatDetectsCrash: a killed peer transitions Up -> Suspect ->
// Down in the survivor's liveness view, and comes back Up when a ready site
// rejoins under the same id.
func TestHeartbeatDetectsCrash(t *testing.T) {
	sites, net := newCluster(t, 2, func(c *Config) {
		c.HeartbeatInterval = 5 * time.Millisecond
		c.HeartbeatMisses = 2
	})
	if got := sites[0].PeerState(1); got != PeerUp {
		t.Fatalf("initial state = %v", got)
	}
	sites[1].Kill()
	deadline := time.Now().Add(5 * time.Second)
	for sites[0].PeerState(1) != PeerDown {
		if time.Now().After(deadline) {
			t.Fatalf("peer never declared down; state = %v", sites[0].PeerState(1))
		}
		time.Sleep(2 * time.Millisecond)
	}

	// A fresh ready site under the same id is readmitted by the heartbeat.
	replacement := New(Config{
		SiteID: 1, Sites: []int{0, 1}, Catalog: sites[0].Catalog(),
		HeartbeatInterval: 5 * time.Millisecond, HeartbeatMisses: 2,
	})
	if err := replacement.AttachNetwork(net); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(replacement.Stop)
	for sites[0].PeerState(1) != PeerUp {
		if time.Now().After(deadline) {
			t.Fatalf("peer never readmitted; state = %v", sites[0].PeerState(1))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestRecoveringSiteRefusesTraffic: a site in recovering state answers
// heartbeats not-ready and refuses operations with the replica code until
// FinishRecovery.
func TestRecoveringSiteRefusesTraffic(t *testing.T) {
	sites, _ := newCluster(t, 1, func(c *Config) { c.Recovering = true })
	s := sites[0]
	resp, err := s.HandleMessage(99, transport.PingReq{})
	if err != nil || resp.(transport.Ack).OK {
		t.Fatalf("recovering site answered ready: %v %v", resp, err)
	}
	op, err := s.HandleMessage(99, transport.ExecOpReq{Txn: txn.ID{Site: 9, Seq: 1}, Op: txn.NewQuery("d", "/x")})
	if err != nil {
		t.Fatal(err)
	}
	if r := op.(transport.ExecOpResp); !r.Failed || r.Code != txn.CodeReplicaUnavailable {
		t.Fatalf("recovering site served an operation: %+v", r)
	}
	s.FinishRecovery()
	resp, _ = s.HandleMessage(99, transport.PingReq{})
	if !resp.(transport.Ack).OK {
		t.Fatal("ready site answered not-ready")
	}
}

// TestCommitRefusedAfterLocalAbort: once a participant resolved a
// transaction as aborted (orphan cleanup after a suspected coordinator), a
// late consolidation request must be refused, not silently acknowledged —
// otherwise the coordinator reports commit over diverged replicas.
func TestCommitRefusedAfterLocalAbort(t *testing.T) {
	sites, _ := newCluster(t, 1, nil)
	s := sites[0]
	addDoc(t, s, "d2", productsXML)
	id := txn.ID{Site: 7, Seq: 1}
	resp, err := s.HandleMessage(7, transport.ExecOpReq{
		Txn: id, TS: 1, OpIdx: 0,
		Op: txn.NewUpdate("d2", &xupdate.Update{
			Kind: xupdate.Change, Target: "//product[id='4']/price", Value: "1.00",
		}),
	})
	if err != nil || !resp.(transport.ExecOpResp).Executed {
		t.Fatalf("remote op: %v %+v", err, resp)
	}
	s.abortLocal(id)
	ack, err := s.HandleMessage(7, transport.CommitReq{Txn: id})
	if err != nil {
		t.Fatal(err)
	}
	if ack.(transport.Ack).OK {
		t.Fatal("consolidation of a locally-aborted transaction acknowledged")
	}
	// The other direction is idempotent: committing twice stays OK.
	resp, _ = s.HandleMessage(7, transport.ExecOpReq{
		Txn: txn.ID{Site: 7, Seq: 2}, TS: 2, OpIdx: 0,
		Op: txn.NewQuery("d2", "//product"),
	})
	if !resp.(transport.ExecOpResp).Executed {
		t.Fatalf("follow-up op refused: %+v", resp)
	}
	id2 := txn.ID{Site: 7, Seq: 2}
	if ack, _ := s.HandleMessage(7, transport.CommitReq{Txn: id2}); !ack.(transport.Ack).OK {
		t.Fatal("first commit refused")
	}
	if ack, _ := s.HandleMessage(7, transport.CommitReq{Txn: id2}); !ack.(transport.Ack).OK {
		t.Fatal("repeat commit refused")
	}
}

// TestStatusMessage: the site status handler reports documents, peers and
// counters.
func TestStatusMessage(t *testing.T) {
	sites, _ := newCluster(t, 2, nil)
	addDoc(t, sites[0], "d1", peopleXML)
	if _, err := sites[0].Submit([]txn.Operation{txn.NewQuery("d1", "//person")}); err != nil {
		t.Fatal(err)
	}
	resp, err := sites[0].HandleMessage(99, transport.SiteStatusReq{})
	if err != nil {
		t.Fatal(err)
	}
	st := resp.(transport.SiteStatusResp)
	if !st.Ready || st.Site != 0 || len(st.Documents) != 1 || st.Committed != 1 {
		t.Fatalf("status = %+v", st)
	}
	if want := sites[0].Protocol().Name(); st.Protocol != want {
		t.Fatalf("status protocol = %q, want %q", st.Protocol, want)
	}
}
