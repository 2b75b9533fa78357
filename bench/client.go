package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
	"repro/internal/txn"
	"repro/internal/xupdate"
)

// A deadlock victim is resubmitted up to maxRetries times before the logical
// transaction counts as failed, pausing as dtx.DefaultRetryPolicy does (2 ms,
// doubling, capped at 250 ms) with a seeded jitter of ±50 %: two victims of
// one sweep that resubmit at once collide again, over and over. The pauses
// are part of the transaction's latency. 16 retries, not 8: on hot_section a
// resubmitted victim is killed again with probability ~0.4 (see hotSection),
// so 8 retries fail about one transaction in 10^5 and 16 one in 10^8.
const (
	maxRetries   = 16
	retryBackoff = 2 * time.Millisecond
	retryCap     = 250 * time.Millisecond
)

// txnRecord is the client-side outcome of one logical transaction.
type txnRecord struct {
	start, end time.Time // first send to final response
	write      bool
	attempts   int
	committed  bool
}

// span is one client-side trace interval. The spans of one logical
// transaction share Txn; an attempt's Parent is its transaction's span.
type span struct {
	ID      int64   `json:"id"`
	Parent  int64   `json:"parent,omitempty"`
	Txn     string  `json:"txn"`
	Name    string  `json:"name"` // "txn" or "attempt" (one send/receive round trip)
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
	Site    int     `json:"site"`
	Server  string  `json:"server_txn,omitempty"` // dtxd's id for the attempt
	Outcome string  `json:"outcome,omitempty"`
}

// wirePair keeps one request and its response for the wire-size metric.
type wirePair struct {
	req  transport.SubmitReq
	resp transport.SubmitResp
}

// client drives one site, closed loop: the next transaction is sent only
// after the previous one has its final answer.
type client struct {
	id      int
	site    int // the site this client submits to: id modulo the site count
	node    *transport.TCPNode
	gen     *generator
	jitter  *rand.Rand // retry pauses only; the stream's rng stays untouched
	records []txnRecord
	lastAck map[string]string // "doc target" -> last acknowledged change value
	err     error             // transport failure that ended the loop
	failed  []string          // why the first few uncommitted transactions ended

	traced bool
	epoch  time.Time
	spans  []span
	wire   []wirePair
}

// run submits transactions until stop is set. Every transaction that was
// sent is followed to its outcome, so nothing is in flight when run returns.
func (c *client) run(stop *atomic.Bool) {
	for seq := 0; !stop.Load(); seq++ {
		spec := c.gen.next()
		rec := txnRecord{start: time.Now(), write: spec.write()}
		req := transport.SubmitReq{Ops: spec.ops, ReadOnly: spec.readOnly}
		txnSpan := int64(c.id+1)<<40 | int64(seq)<<8
		name := fmt.Sprintf("c%d.%d", c.id, seq)
		backoff := retryBackoff
		var resp transport.SubmitResp
		for {
			rec.attempts++
			sent := time.Now()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			msg, err := c.node.Send(ctx, c.site, req)
			cancel()
			var ok bool
			resp, ok = msg.(transport.SubmitResp)
			if err == nil && !ok {
				err = fmt.Errorf("unexpected response %T", msg)
			}
			if err != nil {
				c.err = fmt.Errorf("client %d: submit to site %d: %w", c.id, c.site, err)
				return
			}
			if c.traced {
				c.spans = append(c.spans, span{
					ID: txnSpan + int64(rec.attempts), Parent: txnSpan, Txn: name, Name: "attempt",
					StartUs: us(sent.Sub(c.epoch)), EndUs: us(time.Since(c.epoch)),
					Site: c.site, Server: resp.Txn.String(), Outcome: resp.State,
				})
				if len(c.wire) < 256 {
					c.wire = append(c.wire, wirePair{req, resp})
				}
			}
			rec.committed = resp.State == txn.Committed.String()
			outcome := txn.FromCode(resp.Code, resp.Error)
			retryable := errors.Is(outcome, txn.ErrDeadlock) || errors.Is(outcome, txn.ErrSnapshotUnavailable)
			if rec.committed || !retryable || rec.attempts > maxRetries {
				break
			}
			time.Sleep(time.Duration(float64(backoff) * (0.5 + c.jitter.Float64())))
			backoff = min(2*backoff, retryCap)
		}
		rec.end = time.Now()
		if !rec.committed && len(c.failed) < 4 {
			c.failed = append(c.failed, fmt.Sprintf("%s (%s): %s after %d attempts: %s %s %v", name, resp.Txn, resp.State, rec.attempts, resp.Code, resp.Error, spec.ops))
		}
		if c.traced {
			c.spans = append(c.spans, span{
				ID: txnSpan, Txn: name, Name: "txn", Site: c.site,
				StartUs: us(rec.start.Sub(c.epoch)), EndUs: us(rec.end.Sub(c.epoch)),
			})
		}
		if rec.committed {
			for _, op := range spec.ops {
				if op.Kind == txn.OpUpdate && op.Update.Kind == xupdate.Change {
					c.lastAck[op.Doc+" "+op.Update.Target] = op.Update.Value
				}
			}
		}
		c.records = append(c.records, rec)
	}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// window is what one measured interval produced.
type window struct {
	seconds   float64
	lat       [2][]float64 // committed latencies in ms, ascending: [read, write]
	attempted int
	failed    int
	attempts  int // submissions, retries included
	before    procUsage
	after     procUsage
	scrape0   *scrape // traced clusters only
	scrape1   *scrape
}

func (w *window) commits() int { return len(w.lat[0]) + len(w.lat[1]) }

// drive runs the clients against the cluster: warm-up, then a measured
// window of the given length. Transactions count when they start and end
// inside the window. The clients are left stopped, with nothing in flight.
func drive(c *cluster, clients []*client, warm, measure time.Duration) (*window, error) {
	var stop atomic.Bool
	var wg sync.WaitGroup
	for _, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.run(&stop)
		}()
	}
	finish := func() error {
		stop.Store(true)
		wg.Wait()
		for _, cl := range clients {
			if cl.err != nil {
				return cl.err
			}
		}
		return c.exitedEarly()
	}
	time.Sleep(warm)
	w := &window{}
	var err error
	if c.sites[0].metricsAddr != "" {
		if w.scrape0, err = c.scrapeMetrics(); err != nil {
			return nil, errors.Join(err, finish())
		}
	}
	if w.before, err = c.procUsage(); err != nil {
		return nil, errors.Join(err, finish())
	}
	t0 := time.Now()
	time.Sleep(measure)
	t1 := time.Now()
	w.after, err = c.procUsage()
	if err == nil && w.scrape0 != nil {
		w.scrape1, err = c.scrapeMetrics()
	}
	if err = errors.Join(err, finish()); err != nil {
		return nil, err
	}
	w.seconds = t1.Sub(t0).Seconds()
	for _, cl := range clients {
		for _, r := range cl.records {
			if r.start.Before(t0) || r.end.After(t1) {
				continue
			}
			w.attempted++
			w.attempts += r.attempts
			if !r.committed {
				w.failed++
				continue
			}
			class := 0
			if r.write {
				class = 1
			}
			w.lat[class] = append(w.lat[class], ms(r.end.Sub(r.start)))
		}
	}
	for class := range w.lat {
		sort.Float64s(w.lat[class])
	}
	return w, nil
}
