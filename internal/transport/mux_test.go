package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/txn"
)

// muxHandler echoes each request's query string and can stall requests
// whose document is "slow" until released.
type muxHandler struct {
	release chan struct{} // nil: never stall
}

func (h *muxHandler) HandleMessage(from int, msg any) (any, error) {
	m, ok := msg.(ExecOpReq)
	if !ok {
		return Ack{OK: true}, nil
	}
	if m.Op.Doc == "slow" && h.release != nil {
		<-h.release
	}
	return ExecOpResp{Executed: true, Results: []string{m.Op.Query}}, nil
}

func muxPair(t *testing.T, h2 Handler) (*TCPNode, *TCPNode) {
	t.Helper()
	n1, err := ListenTCP(1, "127.0.0.1:0", &muxHandler{})
	if err != nil {
		t.Fatal(err)
	}
	n2, err := ListenTCP(2, "127.0.0.1:0", h2)
	if err != nil {
		t.Fatal(err)
	}
	n1.SetPeer(2, n2.Addr())
	n2.SetPeer(1, n1.Addr())
	return n1, n2
}

// TestTCPInterleavedResponses pins the pipelining behaviour: a fast request
// issued after a stalled one completes first over the same connection, and
// each response is routed to the caller whose request ID it answers.
func TestTCPInterleavedResponses(t *testing.T) {
	release := make(chan struct{})
	n1, n2 := muxPair(t, &muxHandler{release: release})
	defer n1.Close()
	defer n2.Close()

	slowDone := make(chan error, 1)
	go func() {
		resp, err := n1.Send(context.Background(), 2, ExecOpReq{Op: txn.NewQuery("slow", "q-slow")})
		if err == nil && resp.(ExecOpResp).Results[0] != "q-slow" {
			err = fmt.Errorf("slow response routed wrong: %#v", resp)
		}
		slowDone <- err
	}()

	// The stalled request must not serialise the connection: fast requests
	// behind it complete while it is still pending.
	deadline := time.After(5 * time.Second)
	for i := 0; i < 10; i++ {
		select {
		case err := <-slowDone:
			t.Fatalf("slow request finished before release: %v", err)
		case <-deadline:
			t.Fatal("fast requests starved behind the stalled one")
		default:
		}
		q := fmt.Sprintf("q-%d", i)
		resp, err := n1.Send(context.Background(), 2, ExecOpReq{Op: txn.NewQuery("fast", q)})
		if err != nil {
			t.Fatal(err)
		}
		if got := resp.(ExecOpResp).Results[0]; got != q {
			t.Fatalf("response %q answered request %q: demux broken", got, q)
		}
	}
	close(release)
	if err := <-slowDone; err != nil {
		t.Fatal(err)
	}
}

// TestTCPPeerCrashRejectsInFlight pins the failure contract: when the peer
// goes away mid-request, every in-flight call on the shared connection
// fails with an error wrapping ErrPeerClosed, and a later Send redials.
func TestTCPPeerCrashRejectsInFlight(t *testing.T) {
	release := make(chan struct{})
	n1, n2 := muxPair(t, &muxHandler{release: release})
	defer n1.Close()

	const inflight = 8
	errs := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		go func(i int) {
			_, err := n1.Send(context.Background(), 2, ExecOpReq{Op: txn.NewQuery("slow", fmt.Sprint(i))})
			errs <- err
		}(i)
	}
	// Wait until all requests are on the wire (stalled in the handler), then
	// crash the peer under them. Close blocks on the stalled handlers, so it
	// runs detached and is released after the assertion.
	time.Sleep(50 * time.Millisecond)
	closed := make(chan struct{})
	go func() {
		n2.Close()
		close(closed)
	}()
	for i := 0; i < inflight; i++ {
		err := <-errs
		if err == nil {
			t.Fatal("in-flight call survived the peer crash")
		}
		if !errors.Is(err, ErrPeerClosed) {
			t.Fatalf("in-flight call failed with %v, want ErrPeerClosed", err)
		}
	}
	close(release)
	<-closed
}

// TestTCPCancelledCallLeavesConnectionHealthy pins the discard behaviour:
// abandoning one exchange by cancellation neither poisons the shared
// connection nor misroutes the late response to another caller.
func TestTCPCancelledCallLeavesConnectionHealthy(t *testing.T) {
	release := make(chan struct{})
	n1, n2 := muxPair(t, &muxHandler{release: release})
	defer n1.Close()
	defer n2.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	if _, err := n1.Send(ctx, 2, ExecOpReq{Op: txn.NewQuery("slow", "abandoned")}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled send returned %v", err)
	}
	close(release) // the late response arrives now and must be discarded
	for i := 0; i < 5; i++ {
		q := fmt.Sprintf("after-%d", i)
		resp, err := n1.Send(context.Background(), 2, ExecOpReq{Op: txn.NewQuery("fast", q)})
		if err != nil {
			t.Fatalf("connection poisoned by cancelled call: %v", err)
		}
		if got := resp.(ExecOpResp).Results[0]; got != q {
			t.Fatalf("late response misrouted: got %q want %q", got, q)
		}
	}
}

// TestTCPSharedPeerStress hammers one peer connection from many goroutines
// and verifies every response matches its request — the demultiplexing
// correctness the schedulers rely on, meant to run under -race.
func TestTCPSharedPeerStress(t *testing.T) {
	n1, n2 := muxPair(t, &muxHandler{})
	defer n1.Close()
	defer n2.Close()

	const goroutines = 16
	const requests = 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < requests; k++ {
				q := fmt.Sprintf("g%d-k%d", g, k)
				resp, err := n1.Send(context.Background(), 2, ExecOpReq{Op: txn.NewQuery("fast", q)})
				if err != nil {
					t.Errorf("send %s: %v", q, err)
					return
				}
				if got := resp.(ExecOpResp).Results[0]; got != q {
					t.Errorf("demux broken: got %q want %q", got, q)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
