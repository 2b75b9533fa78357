package transport

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/txn"
	"repro/internal/xupdate"
)

// echoHandler answers ExecOpReq with a canned response and errors on demand.
type echoHandler struct {
	site int
	fail bool
}

func (h *echoHandler) HandleMessage(from int, msg any) (any, error) {
	if h.fail {
		return nil, fmt.Errorf("site %d: induced failure", h.site)
	}
	switch m := msg.(type) {
	case ExecOpReq:
		return ExecOpResp{
			Site:           h.site,
			Executed:       true,
			AcquireLocking: true,
			Results:        []string{m.Op.Doc, m.Op.Query},
		}, nil
	case WFGReq:
		return WFGResp{}, nil
	default:
		return Ack{OK: true}, nil
	}
}

func execReq() ExecOpReq {
	return ExecOpReq{
		Txn:         txn.ID{Site: 1, Seq: 7},
		TS:          42,
		Coordinator: 1,
		OpIdx:       0,
		Op:          txn.NewQuery("d1", "//person"),
	}
}

func TestNetworkRoundTrip(t *testing.T) {
	net := NewNetwork()
	n1, err := net.Join(1, &echoHandler{site: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Join(2, &echoHandler{site: 2}); err != nil {
		t.Fatal(err)
	}
	resp, err := n1.Send(context.Background(), 2, execReq())
	if err != nil {
		t.Fatal(err)
	}
	r, ok := resp.(ExecOpResp)
	if !ok || r.Site != 2 || !r.Executed {
		t.Fatalf("resp = %#v", resp)
	}
	if n1.SiteID() != 1 {
		t.Fatal("wrong site id")
	}
}

func TestNetworkUnreachableAndDuplicate(t *testing.T) {
	net := NewNetwork()
	n1, err := net.Join(1, &echoHandler{site: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n1.Send(context.Background(), 9, Ack{}); err == nil {
		t.Fatal("expected unreachable error")
	}
	if _, err := net.Join(1, &echoHandler{site: 1}); err == nil {
		t.Fatal("expected duplicate join error")
	}
	// After Close the node is unreachable.
	n2, _ := net.Join(2, &echoHandler{site: 2})
	if err := n2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := n1.Send(context.Background(), 2, Ack{}); err == nil {
		t.Fatal("expected unreachable after close")
	}
}

func TestNetworkLatency(t *testing.T) {
	net := NewNetwork()
	n1, _ := net.Join(1, &echoHandler{site: 1})
	net.Join(2, &echoHandler{site: 2})
	net.SetLatency(5 * time.Millisecond)
	start := time.Now()
	if _, err := n1.Send(context.Background(), 2, Ack{}); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 10*time.Millisecond {
		t.Fatalf("round trip %v, want >= 10ms with 5ms one-way latency", d)
	}
}

func TestNetworkConcurrentSends(t *testing.T) {
	net := NewNetwork()
	nodes := make([]Node, 4)
	for i := range nodes {
		n, err := net.Join(i, &echoHandler{site: i})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i == j {
				continue
			}
			wg.Add(1)
			go func(i, j int) {
				defer wg.Done()
				for k := 0; k < 25; k++ {
					if _, err := nodes[i].Send(context.Background(), j, execReq()); err != nil {
						t.Errorf("send %d->%d: %v", i, j, err)
						return
					}
				}
			}(i, j)
		}
	}
	wg.Wait()
}

func TestTCPRoundTrip(t *testing.T) {
	h1 := &echoHandler{site: 1}
	h2 := &echoHandler{site: 2}
	n1, err := ListenTCP(1, "127.0.0.1:0", h1)
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()
	n2, err := ListenTCP(2, "127.0.0.1:0", h2)
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	n1.SetPeer(2, n2.Addr())
	n2.SetPeer(1, n1.Addr())

	resp, err := n1.Send(context.Background(), 2, execReq())
	if err != nil {
		t.Fatal(err)
	}
	r, ok := resp.(ExecOpResp)
	if !ok || r.Site != 2 || len(r.Results) != 2 || r.Results[1] != "//person" {
		t.Fatalf("resp = %#v", resp)
	}
	// Reverse direction over a fresh connection.
	resp, err = n2.Send(context.Background(), 1, WFGReq{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := resp.(WFGResp); !ok {
		t.Fatalf("resp = %#v", resp)
	}
}

func TestTCPGobCarriesUpdates(t *testing.T) {
	var got txn.Operation
	h := HandlerFunc(func(from int, msg any) (any, error) {
		got = msg.(ExecOpReq).Op
		return Ack{OK: true}, nil
	})
	n1, err := ListenTCP(1, "127.0.0.1:0", &echoHandler{site: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()
	n2, err := ListenTCP(2, "127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	n1.SetPeer(2, n2.Addr())

	op := txn.NewUpdate("d2", &xupdate.Update{
		Kind:   xupdate.Insert,
		Target: "/products",
		New: &xupdate.NodeSpec{Name: "product", Children: []*xupdate.NodeSpec{
			{Name: "id", Text: "13"},
			{Name: "price", Text: "10.30"},
		}},
	})
	req := execReq()
	req.Op = op
	if _, err := n1.Send(context.Background(), 2, req); err != nil {
		t.Fatal(err)
	}
	if got.Update == nil || got.Update.New == nil || len(got.Update.New.Children) != 2 {
		t.Fatalf("update lost in transit: %#v", got)
	}
	if got.Update.New.Children[1].Text != "10.30" {
		t.Fatal("nested spec corrupted")
	}
}

func TestTCPHandlerErrorPropagates(t *testing.T) {
	n1, err := ListenTCP(1, "127.0.0.1:0", &echoHandler{site: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()
	n2, err := ListenTCP(2, "127.0.0.1:0", &echoHandler{site: 2, fail: true})
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	n1.SetPeer(2, n2.Addr())
	if _, err := n1.Send(context.Background(), 2, Ack{}); err == nil {
		t.Fatal("expected propagated handler error")
	}
}

func TestTCPUnknownPeer(t *testing.T) {
	n1, err := ListenTCP(1, "127.0.0.1:0", &echoHandler{site: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()
	if _, err := n1.Send(context.Background(), 5, Ack{}); err == nil {
		t.Fatal("expected no-address error")
	}
}

func TestTCPConcurrentSends(t *testing.T) {
	n1, err := ListenTCP(1, "127.0.0.1:0", &echoHandler{site: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()
	n2, err := ListenTCP(2, "127.0.0.1:0", &echoHandler{site: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	n1.SetPeer(2, n2.Addr())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				if _, err := n1.Send(context.Background(), 2, execReq()); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestTCPSendAfterPeerCloseReconnects(t *testing.T) {
	n1, err := ListenTCP(1, "127.0.0.1:0", &echoHandler{site: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()
	n2, err := ListenTCP(2, "127.0.0.1:0", &echoHandler{site: 2})
	if err != nil {
		t.Fatal(err)
	}
	n1.SetPeer(2, n2.Addr())
	if _, err := n1.Send(context.Background(), 2, Ack{}); err != nil {
		t.Fatal(err)
	}
	addr := n2.Addr()
	n2.Close()
	// First send fails (broken pipe or refused), but must not wedge.
	if _, err := n1.Send(context.Background(), 2, Ack{}); err == nil {
		t.Log("send after close unexpectedly succeeded (race with close) — acceptable")
	}
	// Restart the peer on the same address and verify reconnect.
	n2b, err := ListenTCP(2, addr, &echoHandler{site: 2})
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer n2b.Close()
	// The cached connection was dropped on error; a new Send dials fresh.
	if _, err := n1.Send(context.Background(), 2, Ack{}); err != nil {
		t.Fatalf("reconnect failed: %v", err)
	}
}
