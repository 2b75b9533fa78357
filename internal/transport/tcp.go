package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
)

// ErrPeerClosed reports that the connection to a peer was torn down — the
// peer crashed, closed, or this node shut down — while a request was in
// flight. Every call waiting on that connection fails with an error wrapping
// ErrPeerClosed; the next Send to the peer dials a fresh connection.
var ErrPeerClosed = errors.New("transport: peer connection closed")

// TCPNode is a site endpoint communicating over TCP in the binary frames of
// codec.go. Each peer gets one persistent connection carrying a multiplexed
// protocol: every request is tagged with an ID, a writer goroutine pipelines
// outbound frames, and a reader goroutine dispatches responses to the
// callers waiting on their IDs — so any number of transactions share the
// connection without serialising on each other's round trips.
type TCPNode struct {
	id      int
	ln      net.Listener
	handler Handler

	mu      sync.Mutex
	peers   map[int]string // site -> address
	conns   map[int]*clientConn
	serving map[net.Conn]bool // accepted connections, force-closed on Close

	wg     sync.WaitGroup
	closed chan struct{}
}

// clientConn is the client half of one multiplexed peer connection.
type clientConn struct {
	conn   net.Conn
	sendCh chan envelope

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan envelope
	err     error // terminal cause, set once before done is closed

	done chan struct{} // closed when the connection is dead
}

// ListenTCP starts a TCP endpoint for the site on addr ("host:port", use
// ":0" for an ephemeral port) and begins serving incoming scheduler
// messages with the handler. Requests on one accepted connection are
// dispatched to the handler concurrently, so Handler implementations must
// be safe for concurrent use (see the Handler contract).
func ListenTCP(siteID int, addr string, h Handler) (*TCPNode, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	n := &TCPNode{
		id:      siteID,
		ln:      ln,
		handler: h,
		peers:   make(map[int]string),
		conns:   make(map[int]*clientConn),
		serving: make(map[net.Conn]bool),
		closed:  make(chan struct{}),
	}
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// Addr returns the listening address, useful with ":0".
func (n *TCPNode) Addr() string { return n.ln.Addr().String() }

// SetPeer registers the address of another site.
func (n *TCPNode) SetPeer(siteID int, addr string) {
	n.mu.Lock()
	n.peers[siteID] = addr
	n.mu.Unlock()
}

// SiteID implements Node.
func (n *TCPNode) SiteID() int { return n.id }

func (n *TCPNode) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			select {
			case <-n.closed:
				return
			default:
			}
			continue
		}
		n.wg.Add(1)
		go n.serveConn(conn)
	}
}

// serveConn is the server half of the multiplexed protocol: requests are
// decoded in order but handled each in its own goroutine, and responses are
// written back as they complete — out of order when a later request finishes
// first. A mutex serialises the writes, each reply encoded into one buffer
// the connection reuses.
func (n *TCPNode) serveConn(conn net.Conn) {
	defer n.wg.Done()
	defer func() {
		conn.Close()
		n.mu.Lock()
		delete(n.serving, conn)
		n.mu.Unlock()
	}()
	n.mu.Lock()
	if n.serving == nil {
		n.mu.Unlock()
		return
	}
	n.serving[conn] = true
	n.mu.Unlock()
	r := bufio.NewReader(conn)
	var in, out []byte
	var outMu sync.Mutex
	for {
		var env envelope
		var err error
		if env, in, err = readFrame(r, in, false); err != nil {
			return
		}
		n.wg.Add(1)
		go func(env envelope) {
			defer n.wg.Done()
			resp, err := n.handler.HandleMessage(env.From, env.Msg)
			rep := envelope{ID: env.ID, Msg: resp}
			if err != nil {
				rep.Err = err.Error()
			}
			outMu.Lock()
			defer outMu.Unlock()
			if out, err = appendFrame(out[:0], &rep, true); err != nil {
				rep = envelope{ID: env.ID, Err: err.Error()}
				out, _ = appendFrame(out[:0], &rep, true) // an error text always encodes
			}
			// A write failure means the connection died; the read loop is
			// failing with it, and the client side rejects its in-flight
			// calls through its own reader.
			_, _ = conn.Write(out)
			if cap(out) > keepBuf {
				out = nil
			}
		}(env)
	}
}

// client returns the live multiplexed connection to a peer, dialling a new
// one if none exists or the cached one has died. The dial honours the
// caller's context: a bounded exchange (a heartbeat ping, a recovery poll)
// must not block for the kernel's connect timeout against a blackholed
// peer.
func (n *TCPNode) client(ctx context.Context, to int) (*clientConn, error) {
	n.mu.Lock()
	if c := n.conns[to]; c != nil {
		select {
		case <-c.done:
			delete(n.conns, to) // dead; fall through to redial
		default:
			n.mu.Unlock()
			return c, nil
		}
	}
	addr, ok := n.peers[to]
	if !ok {
		n.mu.Unlock()
		return nil, fmt.Errorf("transport: no address for site %d", to)
	}
	n.mu.Unlock()

	var dialer net.Dialer
	conn, err := dialer.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial site %d: %w", to, err)
	}
	c := &clientConn{
		conn:    conn,
		sendCh:  make(chan envelope, 64),
		pending: make(map[uint64]chan envelope),
		done:    make(chan struct{}),
	}

	n.mu.Lock()
	if prev := n.conns[to]; prev != nil {
		// Another Send raced us to the dial; use the winner and retire ours.
		select {
		case <-prev.done:
			n.conns[to] = c
		default:
			n.mu.Unlock()
			conn.Close()
			return prev, nil
		}
	} else {
		n.conns[to] = c
	}
	select {
	case <-n.closed:
		// Close ran while we dialled; don't leak a connection it cannot see.
		delete(n.conns, to)
		n.mu.Unlock()
		conn.Close()
		return nil, fmt.Errorf("transport: node closed: %w", ErrPeerClosed)
	default:
	}
	// Registered under the same critical section as the closed check: Close
	// observes either the registration (and fails the connection) or a later
	// dial (which sees closed) — and the Add is ordered before Close's Wait.
	n.wg.Add(2)
	n.mu.Unlock()

	go n.writeLoop(c)
	go n.readLoop(to, c)
	return c, nil
}

// writeLoop drains the send queue onto the wire, pipelining outbound
// frames from any number of callers. Frames queue in a buffered writer that
// is flushed once the queue is empty, so a burst costs one write.
func (n *TCPNode) writeLoop(c *clientConn) {
	defer n.wg.Done()
	w := bufio.NewWriter(c.conn)
	for {
		select {
		case env := <-c.sendCh:
			b, err := appendFrame(w.AvailableBuffer(), &env, false)
			if err != nil {
				c.deliver(envelope{ID: env.ID, Err: err.Error()})
				continue
			}
			if _, err = w.Write(b); err == nil && len(c.sendCh) == 0 {
				err = w.Flush()
			}
			if err != nil {
				c.fail(fmt.Errorf("transport: write: %w (%w)", err, ErrPeerClosed))
				return
			}
		case <-c.done:
			return
		}
	}
}

// readLoop decodes responses and dispatches each to the caller waiting on
// its request ID. When the connection dies it rejects every in-flight call.
func (n *TCPNode) readLoop(to int, c *clientConn) {
	defer n.wg.Done()
	r := bufio.NewReader(c.conn)
	var in []byte
	for {
		var rep envelope
		var err error
		if rep, in, err = readFrame(r, in, true); err != nil {
			c.fail(fmt.Errorf("transport: read: %w (%w)", err, ErrPeerClosed))
			n.dropClient(to, c)
			return
		}
		c.deliver(rep)
	}
}

// deliver hands a reply to the caller waiting on its request ID. With no
// waiter (the caller gave up on a cancelled context) the reply is discarded
// — the connection stays healthy for everyone else.
func (c *clientConn) deliver(rep envelope) {
	c.mu.Lock()
	ch := c.pending[rep.ID]
	delete(c.pending, rep.ID)
	c.mu.Unlock()
	if ch != nil {
		ch <- rep // buffered; never blocks
	}
}

// fail marks the connection dead with a terminal cause. The closed done
// channel rejects every in-flight and future call on this connection.
func (c *clientConn) fail(cause error) {
	c.mu.Lock()
	select {
	case <-c.done:
		c.mu.Unlock()
		return
	default:
	}
	c.err = cause
	close(c.done)
	c.mu.Unlock()
	c.conn.Close()
}

// cause returns the terminal error of a dead connection.
func (c *clientConn) cause() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	return ErrPeerClosed
}

func (n *TCPNode) dropClient(to int, c *clientConn) {
	n.mu.Lock()
	if n.conns[to] == c {
		delete(n.conns, to)
	}
	n.mu.Unlock()
}

// Send implements Node: one request/response exchange, multiplexed with any
// number of concurrent exchanges on the shared peer connection. Cancelling
// the context abandons only this exchange — the request may still reach the
// peer, and its response is discarded on arrival; the connection itself
// stays healthy for other callers. A connection torn down mid-request (peer
// crash, Close) rejects all its in-flight calls with an error wrapping
// ErrPeerClosed.
func (n *TCPNode) Send(ctx context.Context, to int, msg any) (any, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("transport: send to site %d: %w", to, context.Cause(ctx))
	}
	c, err := n.client(ctx, to)
	if err != nil {
		return nil, err
	}

	ch := make(chan envelope, 1)
	c.mu.Lock()
	select {
	case <-c.done:
		err := c.err
		c.mu.Unlock()
		return nil, fmt.Errorf("transport: send to site %d: %w", to, err)
	default:
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = ch
	c.mu.Unlock()

	unregister := func() {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
	}

	env := envelope{ID: id, From: n.id, Msg: msg}
	select {
	case c.sendCh <- env:
	case <-c.done:
		unregister()
		return nil, fmt.Errorf("transport: send to site %d: %w", to, c.cause())
	case <-ctx.Done():
		unregister()
		return nil, fmt.Errorf("transport: send to site %d: %w", to, context.Cause(ctx))
	}

	select {
	case rep := <-ch:
		if rep.Err != "" {
			return rep.Msg, errors.New(rep.Err)
		}
		return rep.Msg, nil
	case <-c.done:
		// The reader delivers a reply before it can observe the connection
		// dying, so a response that won the race is already buffered in ch —
		// prefer it over reporting a failure for an exchange that succeeded.
		select {
		case rep := <-ch:
			if rep.Err != "" {
				return rep.Msg, errors.New(rep.Err)
			}
			return rep.Msg, nil
		default:
		}
		unregister()
		return nil, fmt.Errorf("transport: recv from site %d: %w", to, c.cause())
	case <-ctx.Done():
		unregister()
		return nil, fmt.Errorf("transport: recv from site %d: %w", to, context.Cause(ctx))
	}
}

// Close implements Node. Every in-flight outbound call fails with an error
// wrapping ErrPeerClosed; accepted connections are force-closed.
func (n *TCPNode) Close() error {
	select {
	case <-n.closed:
		return nil
	default:
		close(n.closed)
	}
	err := n.ln.Close()
	n.mu.Lock()
	conns := make([]*clientConn, 0, len(n.conns))
	for id, c := range n.conns {
		conns = append(conns, c)
		delete(n.conns, id)
	}
	for conn := range n.serving {
		conn.Close()
	}
	n.mu.Unlock()
	for _, c := range conns {
		c.fail(fmt.Errorf("transport: node closed: %w", ErrPeerClosed))
	}
	n.wg.Wait()
	return err
}
