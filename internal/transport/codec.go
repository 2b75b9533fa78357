package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"reflect"

	"repro/internal/store"
	"repro/internal/wfg"
	"repro/internal/wire"
)

// envelope frames one message on the wire. ID multiplexes many concurrent
// exchanges over one connection: the peer echoes it on the matching reply,
// so responses may arrive in any order. A request carries From, a reply
// carries Err.
type envelope struct {
	ID   uint64
	From int
	Err  string
	Msg  any
}

// A frame is a 4-byte big-endian length, then the envelope: the request ID,
// From (a request) or Err (a reply), the message's kind byte and its body.
const frameHeader = 4

// keepBuf is the largest frame buffer a connection keeps for reuse; a larger
// one (a fetched document) is dropped after its frame.
const keepBuf = 64 << 10

// appendFrame appends env as one frame to b. On error it returns b as given.
func appendFrame(b []byte, env *envelope, reply bool) ([]byte, error) {
	c := wire.NewEncoder(append(b, make([]byte, frameHeader)...))
	env.code(&c, reply)
	if err := c.Err(); err != nil {
		return b, fmt.Errorf("transport: encode %T: %w", env.Msg, err)
	}
	out := c.Bytes()
	n := len(out) - len(b) - frameHeader
	if n > math.MaxUint32 {
		return b, fmt.Errorf("transport: encode %T: %d-byte frame", env.Msg, n)
	}
	binary.BigEndian.PutUint32(out[len(b):], uint32(n))
	return out, nil
}

// readFrame reads one frame and decodes its envelope, reading into buf and
// returning it for reuse. The buffer grows only as the frame's bytes
// arrive, so a corrupt or hostile length costs what the peer really sends,
// not what it claims.
func readFrame(r *bufio.Reader, buf []byte, reply bool) (envelope, []byte, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return envelope{}, buf, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	buf = buf[:0]
	for len(buf) < n {
		chunk := min(n-len(buf), max(len(buf), 4096))
		buf = append(buf, make([]byte, chunk)...)
		if _, err := io.ReadFull(r, buf[len(buf)-chunk:]); err != nil {
			return envelope{}, buf, err
		}
	}
	var env envelope
	c := wire.NewDecoder(buf)
	env.code(&c, reply)
	if cap(buf) > keepBuf {
		buf = nil
	}
	if err := c.Err(); err != nil {
		return envelope{}, buf, fmt.Errorf("transport: decode frame: %w", err)
	}
	return env, buf, nil
}

func (env *envelope) code(c *wire.Coder, reply bool) {
	id := int64(env.ID)
	c.Int64(&id)
	env.ID = uint64(id)
	if reply {
		c.String(&env.Err)
	} else {
		c.Int(&env.From)
	}
	codeMsg(c, &env.Msg)
}

// kinds lists every message the TCP transport carries; a message's index is
// its kind byte, and kind 0 is a nil message. Appending keeps old kinds.
var kinds = [...]kind{
	{}, kindOf[ExecOpReq](), kindOf[ExecOpResp](), kindOf[UndoOpReq](), kindOf[CommitReq](),
	kindOf[AbortReq](), kindOf[Ack](), kindOf[WFGReq](), kindOf[WFGResp](), kindOf[VictimReq](),
	kindOf[WakeReq](), kindOf[SubmitReq](), kindOf[SubmitResp](), kindOf[PingReq](),
	kindOf[TxnStatusReq](), kindOf[TxnStatusResp](), kindOf[FetchDocReq](), kindOf[FetchDocResp](),
	kindOf[SiteStatusReq](), kindOf[SiteStatusResp](), kindOf[MetricsReq](), kindOf[MetricsResp](),
	kindOf[RecoverReq](), kindOf[RecoverResp](), kindOf[SnapshotReadReq](), kindOf[SnapshotReadResp](),
	kindOf[SnapshotReleaseReq](), kindOf[LogShipReq](), kindOf[LogAck](), kindOf[LogFetchReq](),
	kindOf[LogFetchResp](),
}

// kindByType maps a message's dynamic type to its kind byte.
var kindByType = func() map[reflect.Type]byte {
	m := make(map[reflect.Type]byte, len(kinds))
	for k, e := range kinds[1:] {
		m[e.typ] = byte(k + 1)
	}
	return m
}()

// kind codes one message type; code states its layout.
type kind struct {
	typ reflect.Type
	enc func(*wire.Coder, any)
	dec func(*wire.Coder) any
}

func kindOf[T any, P interface {
	*T
	code(*wire.Coder)
}]() kind {
	return kind{
		typ: reflect.TypeFor[T](),
		enc: func(c *wire.Coder, msg any) {
			m := msg.(T)
			P(&m).code(c)
		},
		dec: func(c *wire.Coder) any {
			var m T
			P(&m).code(c)
			return m
		},
	}
}

// codeMsg codes a message as its kind byte and body.
func codeMsg(c *wire.Coder, msg *any) {
	var k byte
	if *msg != nil {
		var ok bool
		if k, ok = kindByType[reflect.TypeOf(*msg)]; !ok {
			c.Fail(fmt.Errorf("no wire kind for %T", *msg))
			return
		}
	}
	c.Byte(&k)
	switch {
	case int(k) >= len(kinds):
		c.Fail(fmt.Errorf("wire: unknown message kind %d", k))
	case k == 0:
		*msg = nil
	case c.Decoding():
		*msg = kinds[k].dec(c)
	default:
		kinds[k].enc(c, *msg)
	}
}

func (m *ExecOpReq) code(c *wire.Coder) {
	c.ID(&m.Txn)
	c.TS(&m.TS)
	c.Int(&m.OpIdx)
	c.Op(&m.Op)
}

func (m *ExecOpResp) code(c *wire.Coder) {
	c.Bool(&m.Executed, &m.AcquireLocking, &m.Deadlock, &m.Failed)
	c.String(&m.Code, &m.Error)
	c.Strings(&m.Results)
}

func (m *UndoOpReq) code(c *wire.Coder) {
	c.ID(&m.Txn)
	c.Int(&m.OpIdx)
}

func (m *CommitReq) code(c *wire.Coder) { c.ID(&m.Txn) }

func (m *AbortReq) code(c *wire.Coder) { c.ID(&m.Txn) }

func (m *Ack) code(c *wire.Coder) {
	c.Bool(&m.OK, &m.Consolidated)
	c.String(&m.Error)
}

func (m *WFGReq) code(*wire.Coder) {}

func (m *WFGResp) code(c *wire.Coder) {
	wire.Slice(c, &m.Edges, 6, func(c *wire.Coder, e *wfg.Edge) {
		c.ID(&e.Waiter, &e.Holder)
		c.TS(&e.WaiterTS, &e.HolderTS)
	})
}

func (m *VictimReq) code(c *wire.Coder) {
	c.ID(&m.Txn)
	c.String(&m.Reason)
}

func (m *WakeReq) code(c *wire.Coder) { c.ID(&m.Txn) }

func (m *SubmitReq) code(c *wire.Coder) {
	c.Ops(&m.Ops)
	c.Bool(&m.ReadOnly)
}

func (m *SubmitResp) code(c *wire.Coder) {
	c.ID(&m.Txn)
	c.String(&m.State, &m.Code, &m.Error)
	wire.Slice(c, &m.Results, 1, (*wire.Coder).Strings)
}

func (m *PingReq) code(*wire.Coder) {}

func (m *TxnStatusReq) code(c *wire.Coder) { c.ID(&m.Txn) }

func (m *TxnStatusResp) code(c *wire.Coder) {
	c.String(&m.Outcome)
	c.Bool(&m.Authoritative)
}

func (m *FetchDocReq) code(c *wire.Coder) { c.String(&m.Doc) }

func (m *FetchDocResp) code(c *wire.Coder) {
	c.Bool(&m.Found)
	c.String(&m.XML)
	c.Int64(&m.Head)
}

func (m *SiteStatusReq) code(*wire.Coder) {}

func (m *SiteStatusResp) code(c *wire.Coder) {
	c.Int(&m.Site)
	c.Bool(&m.Ready)
	c.String(&m.Protocol)
	c.Strings(&m.Documents)
	wire.Slice(c, &m.Docs, 7, func(c *wire.Coder, d *DocStatus) {
		c.String(&d.Name, &d.Role)
		c.Int(&d.Primary)
		c.Int64(&d.Applied, &d.Checkpoint, &d.Head, &d.Behind)
	})
	wire.Slice(c, &m.Peers, 2, func(c *wire.Coder, p *PeerStatus) {
		c.Int(&p.Site)
		c.String(&p.Status)
	})
	c.Int64(&m.Committed, &m.Aborted, &m.Failed)
}

func (m *MetricsReq) code(*wire.Coder) {}

func (m *MetricsResp) code(c *wire.Coder) {
	c.Int(&m.Site)
	c.String(&m.Text)
}

func (m *RecoverReq) code(*wire.Coder) {}

func (m *RecoverResp) code(c *wire.Coder) {
	c.Int(&m.Resolved)
	c.String(&m.Report, &m.Error)
}

func (m *SnapshotReadReq) code(c *wire.Coder) {
	c.ID(&m.Txn)
	c.TS(&m.TS)
	c.String(&m.Doc, &m.Query)
}

func (m *SnapshotReadResp) code(c *wire.Coder) {
	c.Bool(&m.Failed)
	c.String(&m.Code, &m.Error)
	c.Strings(&m.Results)
}

func (m *SnapshotReleaseReq) code(c *wire.Coder) { c.ID(&m.Txn) }

func (m *LogShipReq) code(c *wire.Coder) {
	c.String(&m.Doc)
	c.Int(&m.From, &m.Primary)
	c.Int64(&m.Head)
	wire.Slice(c, &m.Records, 5, func(c *wire.Coder, r *store.ReplRecord) { r.Code(c) }) // index, ID, TS, op count
}

func (m *LogAck) code(c *wire.Coder) {
	c.Int(&m.Site)
	c.Int64(&m.Applied, &m.NeedFrom)
	c.Bool(&m.OK)
	c.String(&m.Error)
}

func (m *LogFetchReq) code(c *wire.Coder) {
	c.String(&m.Doc)
	c.Int64(&m.After)
}

func (m *LogFetchResp) code(c *wire.Coder) {
	c.Bool(&m.Found, &m.PastHorizon)
	c.Int64(&m.Head)
	wire.Slice(c, &m.Records, 5, func(c *wire.Coder, r *store.ReplRecord) { r.Code(c) }) // index, ID, TS, op count
}
