package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/store"
	"repro/internal/txn"
	"repro/internal/wfg"
	"repro/internal/xmltree"
	"repro/internal/xupdate"
)

// fullOp is an insert with every field set, its subtree nested two deep
// with attributes.
func fullOp() txn.Operation {
	return txn.Operation{
		Kind: txn.OpUpdate, Doc: "d2", Query: "//q",
		Update: &xupdate.Update{
			Kind: xupdate.Insert, Target: "/products", Pos: xmltree.After,
			New: &xupdate.NodeSpec{Name: "product", Text: "t",
				Attrs: []xmltree.Attr{{Name: "id", Value: "13"}, {Name: "cur", Value: "€"}},
				Children: []*xupdate.NodeSpec{
					{Name: "price", Text: "10.30", Attrs: []xmltree.Attr{{Name: "tax", Value: "no"}}},
					{Name: "tags", Children: []*xupdate.NodeSpec{{Name: "tag", Text: "x"}}},
				}},
			NewName: "n", Value: "v", Attr: "a", Target2: "/t2",
		},
		Executed: true, AcquireLocking: true, Aborted: true, Deadlock: true,
	}
}

// everyMessage holds one value of every message type, every field set.
func everyMessage() []any {
	id, id2 := txn.ID{Site: 2, Seq: 1 << 40}, txn.ID{Site: 1 << 20, Seq: 3}
	rec := store.ReplRecord{Index: 9, Txn: id, TS: 12, Ops: []txn.Operation{fullOp(), txn.NewQuery("d", "/a")}}
	return []any{
		ExecOpReq{Txn: id, TS: -4, OpIdx: 3, Op: fullOp()},
		ExecOpResp{Executed: true, AcquireLocking: true, Deadlock: true, Failed: true,
			Code: txn.CodeDeadlock, Error: "e", Results: []string{"<a/>", "", "<b>ü</b>"}},
		UndoOpReq{Txn: id, OpIdx: 7},
		CommitReq{Txn: id},
		AbortReq{Txn: id},
		Ack{OK: true, Consolidated: true, Error: "e"},
		WFGReq{},
		WFGResp{Edges: []wfg.Edge{{Waiter: id, Holder: id2, WaiterTS: 5, HolderTS: 6}, {Waiter: id2, Holder: id}}},
		VictimReq{Txn: id, Reason: "cycle"},
		WakeReq{Txn: id},
		SubmitReq{Ops: []txn.Operation{fullOp(), txn.NewQuery("d1", "//x")}, ReadOnly: true},
		SubmitResp{Txn: id, State: "committed", Results: [][]string{{"a", "b"}, nil, {"c"}},
			Code: txn.CodeFailed, Error: "e"},
		PingReq{},
		TxnStatusReq{Txn: id},
		TxnStatusResp{Outcome: OutcomeCommitted, Authoritative: true},
		FetchDocReq{Doc: "d1"},
		FetchDocResp{Found: true, XML: "<r/>", Head: 44},
		SiteStatusReq{},
		SiteStatusResp{Site: 1, Ready: true, Protocol: "xdgl", Documents: []string{"d1", "d2"},
			Docs:  []DocStatus{{Name: "d1", Primary: 2, Role: "replica", Applied: 1, Checkpoint: 2, Head: 3, Behind: 4}},
			Peers: []PeerStatus{{Site: 2, Status: "up"}}, Committed: 5, Aborted: 6, Failed: 7},
		MetricsReq{},
		MetricsResp{Site: 1, Text: "dtx_x 1\n"},
		RecoverReq{},
		RecoverResp{Resolved: 2, Report: "r", Error: "e"},
		SnapshotReadReq{Txn: id, TS: 8, Doc: "d1", Query: "//a"},
		SnapshotReadResp{Failed: true, Code: "c", Error: "e", Results: []string{"x"}},
		SnapshotReleaseReq{Txn: id},
		LogShipReq{Doc: "d1", From: 1, Primary: 2, Head: 10, Records: []store.ReplRecord{rec, rec}},
		LogAck{Site: 1, Applied: 2, NeedFrom: 3, OK: true, Error: "e"},
		LogFetchReq{Doc: "d1", After: 4},
		LogFetchResp{Found: true, PastHorizon: true, Head: 10, Records: []store.ReplRecord{rec}},
	}
}

// TestTCPRoundTripsEveryMessage sends every message type over TCP to a
// handler that echoes it, so each crosses the wire as a request and as a
// reply, and must come back deep-equal: nested specs, attributes, empty
// strings and a nil inner slice included.
func TestTCPRoundTripsEveryMessage(t *testing.T) {
	arrived := make(chan any, 1)
	echo := HandlerFunc(func(_ int, msg any) (any, error) {
		arrived <- msg
		return msg, nil
	})
	n1, n2 := muxPair(t, echo)
	defer n1.Close()
	defer n2.Close()
	covered := make(map[reflect.Type]bool)
	for _, msg := range everyMessage() {
		typ := reflect.TypeOf(msg)
		covered[typ] = true
		for f := 0; f < typ.NumField(); f++ {
			if reflect.ValueOf(msg).Field(f).IsZero() {
				t.Errorf("%v.%s is zero: the table must set every field", typ, typ.Field(f).Name)
			}
		}
		back, err := n1.Send(context.Background(), 2, msg)
		if err != nil {
			t.Fatalf("%T: %v", msg, err)
		}
		if got := <-arrived; !reflect.DeepEqual(got, msg) {
			t.Errorf("%T arrived as\n%#v\nsent\n%#v", msg, got, msg)
		}
		if !reflect.DeepEqual(back, msg) {
			t.Errorf("%T came back as\n%#v\nsent\n%#v", msg, back, msg)
		}
	}
	for _, k := range kinds[1:] {
		if !covered[k.typ] {
			t.Errorf("no round-trip case for %v", k.typ)
		}
	}
}

// TestTCPUnencodableMessageFailsOneCall: a message the codec has no kind for
// fails its own call at once, and the connection keeps serving.
func TestTCPUnencodableMessageFailsOneCall(t *testing.T) {
	n1, n2 := muxPair(t, &muxHandler{})
	defer n1.Close()
	defer n2.Close()
	if _, err := n1.Send(context.Background(), 2, struct{ X int }{1}); err == nil || !strings.Contains(err.Error(), "no wire kind") {
		t.Fatalf("unencodable message: err = %v", err)
	}
	if _, err := n1.Send(context.Background(), 2, execReq()); err != nil {
		t.Fatalf("connection did not survive the refused message: %v", err)
	}
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReadFrameHostileLength: a frame that claims 4 GB and sends 100 bytes
// fails with what arrived, without allocating what it claimed.
func TestReadFrameHostileLength(t *testing.T) {
	in := append([]byte{0xff, 0xff, 0xff, 0xff}, make([]byte, 100)...)
	r := bufio.NewReader(bytes.NewReader(in))
	var err error
	if n := allocated(func() { _, _, err = readFrame(r, nil, false) }); n > 64<<10 {
		t.Fatalf("a 4 GB length allocated %d bytes before the bytes arrived", n)
	}
	if err == nil {
		t.Fatal("a truncated frame decoded")
	}
}

// FuzzWireDecode decodes arbitrary bytes as a frame's envelope, both as a
// request and as a reply. Decoding must not panic, nor allocate more than a
// small multiple of the input (a decoded struct is larger than its bytes,
// never larger than a length field claims); what decodes must survive
// encode → decode unchanged.
func FuzzWireDecode(f *testing.F) {
	for i, msg := range everyMessage() {
		env := envelope{ID: uint64(i), From: 2, Err: "e", Msg: msg}
		for _, reply := range []bool{false, true} {
			b, err := appendFrame(nil, &env, reply)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(b[frameHeader:])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, reply := range []bool{false, true} {
			var env envelope
			var err error
			frame := append(binary.BigEndian.AppendUint32(nil, uint32(len(data))), data...)
			if n := allocated(func() { env, _, err = readFrame(bufio.NewReader(bytes.NewReader(frame)), nil, reply) }); n > 32*uint64(len(data))+64<<10 {
				t.Fatalf("decoding %d bytes allocated %d", len(data), n)
			}
			if err != nil {
				continue
			}
			b, err := appendFrame(nil, &env, reply)
			if err != nil {
				t.Fatalf("decoded envelope does not encode: %v", err)
			}
			again, _, err := readFrame(bufio.NewReader(bytes.NewReader(b)), nil, reply)
			if err != nil || !reflect.DeepEqual(again, env) {
				t.Fatalf("encode → decode changed\n%#v\ninto\n%#v (err %v)", env, again, err)
			}
		}
	})
}

// TestTCPSharedMessageConcurrentSends: one message value, its update shared
// by pointer, is encoded for two peers at once — as a coordinator fans one
// operation out to every replica, each connection's writer encoding it.
// Encoding must only read it (run -race).
func TestTCPSharedMessageConcurrentSends(t *testing.T) {
	n1, n2 := muxPair(t, &muxHandler{})
	defer n1.Close()
	defer n2.Close()
	n3, err := ListenTCP(3, "127.0.0.1:0", &muxHandler{})
	if err != nil {
		t.Fatal(err)
	}
	defer n3.Close()
	n1.SetPeer(3, n3.Addr())
	req := execReq()
	req.Op = fullOp()
	var wg sync.WaitGroup
	for i := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := n1.Send(context.Background(), 2+i%2, req); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}
