package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/dataguide"
	"repro/internal/lock"
	"repro/internal/mvcc"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/txn"
	"repro/internal/xmltree"
	"repro/internal/xpath"
	"repro/internal/xupdate"
)

const (
	ladderOps      = 2000    // operations of the workload's stream the ladder replays
	ladderDocBytes = 8 << 20 // document bytes each whole-document step is repeated over, per document
	ladderDocIters = 21      // but never fewer repetitions than this
	ladderRTTs     = 300     // ping round trips per transport
	ladderAppends  = 50      // journal intent+commit pairs
)

// timings collects the durations of one ladder step.
type timings []float64

func (s *timings) time(f func()) {
	start := time.Now()
	f()
	*s = append(*s, float64(time.Since(start)))
}

// metric reports the median, converted from nanoseconds by div.
func (s timings) metric(unit string, div time.Duration) metric {
	return metric{Value: median(s) / float64(div), Unit: unit, n: len(s)}
}

// ladderDoc is the in-process copy of one document with the per-document
// structures a site keeps beside it.
type ladderDoc struct {
	doc   *xmltree.Document
	guide *dataguide.DataGuide
	table *lock.Table
	chain *mvcc.Chain
	snap  *xmltree.Document
}

// ladder times each layer alone: one goroutine replays the first ladderOps
// operations of the workload's stream against in-process copies of its
// documents, calling each layer's public functions the way a site does and
// timing every call. Whole-document steps (snapshot, serialise, parse, guide
// build, store save) and the fsynced journal are timed in their own loops.
// No dtxd is involved: the caller adds transport.tcp_rtt_us against an idle
// cluster and transport.submit_bytes from the traced half's traffic.
func ladder(b *bench) (map[string]metric, error) {
	w := b.cfg.workload
	docs := w.genDocs(b.cfg.seed)
	gens := w.generators(b.cfg.seed, docs, nClients())
	state := map[string]*ladderDoc{}
	var names []string
	for _, d := range docs {
		names = append(names, d.Name)
		g := dataguide.Build(d)
		state[d.Name] = &ladderDoc{doc: d, guide: g, table: lock.NewTable(g), chain: mvcc.NewChain(mvcc.Options{}), snap: d.Snapshot()}
	}

	var parse, eval, targets, requests, acquire, apply, undo, publish, pin timings
	var locks, ops int
	proto := lock.XDGL{}
	var failure error
	for n := 0; ops < ladderOps && failure == nil; n++ {
		for _, op := range gens[n%len(gens)].next().ops {
			ops++
			ld := state[op.Doc]
			owner := lock.Owner{Txn: txn.ID{Site: 0, Seq: int64(ops)}, TS: txn.TS(ops), Op: 0}
			raw := op.Query
			if op.Kind == txn.OpUpdate {
				raw = op.Update.Target
			}
			var q *xpath.Query
			var reqs []lock.Request
			parse.time(func() { q, failure = xpath.Parse(raw) })
			if failure != nil {
				break
			}
			targets.time(func() { ld.guide.Targets(q) })
			requests.time(func() {
				if op.Kind == txn.OpQuery {
					reqs, failure = proto.QueryRequests(ld.doc, ld.guide, q)
				} else {
					reqs, failure = proto.UpdateRequests(ld.doc, ld.guide, op.Update)
				}
			})
			if failure != nil {
				break
			}
			acquire.time(func() {
				ld.table.Acquire(owner, reqs)
				locks += ld.table.ReleaseAll(owner.Txn)
			})
			eval.time(func() { xpath.Eval(q, ld.doc) })
			if op.Kind == txn.OpQuery {
				pin.time(func() {
					if v := ld.chain.Pin(txn.TS(ops)); v != nil {
						ld.chain.Unpin(v)
					}
				})
				continue
			}
			// Apply, undo, apply again: the undo is timed and the document
			// still moves on the way the stream intends.
			var rec *xupdate.UndoRec
			apply.time(func() { rec, _, failure = xupdate.Apply(op.Update, ld.doc, ld.guide) })
			if failure == nil {
				undo.time(func() { failure = rec.Undo(ld.doc, ld.guide) })
			}
			if failure == nil {
				_, _, failure = xupdate.Apply(op.Update, ld.doc, ld.guide)
			}
			publish.time(func() { ld.chain.Publish(ld.snap, txn.TS(ops)) })
		}
	}
	if failure != nil {
		return nil, fmt.Errorf("ladder: %w", failure)
	}

	var build, snapshot, serialize, reparse, save timings
	fs, err := store.NewFileStore(filepath.Join(b.dir, "ladder"))
	if err != nil {
		return nil, err
	}
	// A step on a small document is short enough for one collection or one
	// cold cache to dominate it, so small documents get more repetitions.
	iters := max(ladderDocIters, ladderDocBytes/w.docBytes)
	for _, ld := range state {
		var buf bytes.Buffer
		if _, failure = ld.doc.WriteTo(&buf); failure != nil {
			break
		}
		text := buf.Bytes()
		// One loop per step, so that a step's garbage taxes that step only.
		for _, step := range []struct {
			into *timings
			call func()
		}{
			{&build, func() { dataguide.Build(ld.doc) }},
			{&snapshot, func() { ld.doc.Snapshot() }},
			{&serialize, func() { buf.Reset(); _, failure = ld.doc.WriteTo(&buf) }},
			{&reparse, func() { _, failure = xmltree.Parse(ld.doc.Name, bytes.NewReader(text)) }},
			{&save, func() { failure = fs.Save(ld.doc) }},
		} {
			for i := 0; i < iters && failure == nil; i++ {
				step.into.time(step.call)
			}
		}
	}
	if failure != nil {
		return nil, fmt.Errorf("ladder: %w", failure)
	}

	var appends timings
	journal, err := store.OpenJournal(filepath.Join(b.dir, "ladder", "commit.log"))
	if err != nil {
		return nil, err
	}
	for i := 0; i < ladderAppends && failure == nil; i++ {
		id := txn.ID{Site: 0, Seq: int64(i + 1)}.String()
		appends.time(func() {
			if failure = journal.LogIntent(id, names); failure == nil {
				failure = journal.LogCommit(id)
			}
		})
	}
	if err := journal.Close(); failure == nil {
		failure = err
	}
	if failure != nil {
		return nil, fmt.Errorf("ladder: %w", failure)
	}

	memRTT, err := memRTT()
	if err != nil {
		return nil, err
	}
	return map[string]metric{
		"xpath.parse_us":          parse.metric("us", time.Microsecond),
		"xpath.eval_us":           eval.metric("us", time.Microsecond),
		"dataguide.build_ms":      build.metric("ms", time.Millisecond),
		"dataguide.targets_us":    targets.metric("us", time.Microsecond),
		"lock.requests_us":        requests.metric("us", time.Microsecond),
		"lock.acquire_release_us": acquire.metric("us", time.Microsecond),
		"lock.locks_per_op":       {Value: float64(locks) / float64(ops), Unit: "count", n: ops},
		"xupdate.apply_us":        apply.metric("us", time.Microsecond),
		"xupdate.undo_us":         undo.metric("us", time.Microsecond),
		"xmltree.snapshot_ms":     snapshot.metric("ms", time.Millisecond),
		"xmltree.serialize_ms":    serialize.metric("ms", time.Millisecond),
		"xmltree.parse_ms":        reparse.metric("ms", time.Millisecond),
		"mvcc.publish_us":         publish.metric("us", time.Microsecond),
		"mvcc.pin_unpin_us":       pin.metric("us", time.Microsecond),
		"store.journal_append_us": appends.metric("us", time.Microsecond),
		"store.save_ms":           save.metric("ms", time.Millisecond),
		"transport.mem_rtt_us":    memRTT,
	}, nil
}

// pingRTT times ladderRTTs PingReq round trips from node to site 0.
func pingRTT(node transport.Node) (metric, error) {
	var rtt timings
	for i := 0; i < ladderRTTs; i++ {
		var err error
		rtt.time(func() { _, err = node.Send(context.Background(), 0, transport.PingReq{}) })
		if err != nil {
			return metric{}, fmt.Errorf("ladder: ping: %w", err)
		}
	}
	return rtt.metric("us", time.Microsecond), nil
}

// memRTT pings across the in-process transport.
func memRTT() (metric, error) {
	net := transport.NewNetwork()
	ack := transport.HandlerFunc(func(int, any) (any, error) { return transport.Ack{OK: true}, nil })
	if _, err := net.Join(0, ack); err != nil {
		return metric{}, err
	}
	node, err := net.Join(1, ack)
	if err != nil {
		return metric{}, err
	}
	return pingRTT(node)
}

// submitBytes is the mean size on the wire of one SubmitReq plus its
// SubmitResp, framed the way the TCP transport frames them. One encoder is
// reused, as on a live connection, and primed with one message of each type
// first, so gob's one-off type descriptions are not counted.
func submitBytes(pairs []wirePair) metric {
	if len(pairs) == 0 {
		return metric{Unit: "bytes"}
	}
	type envelope struct {
		ID   uint64
		From int
		Msg  any
	}
	type replyEnvelope struct {
		ID  uint64
		Msg any
		Err string
	}
	var n countWriter
	enc := gob.NewEncoder(&n)
	_ = enc.Encode(&envelope{ID: 1, From: 1 << 20, Msg: pairs[0].req})
	_ = enc.Encode(&replyEnvelope{ID: 1, Msg: pairs[0].resp})
	n = 0
	for i, p := range pairs {
		_ = enc.Encode(&envelope{ID: uint64(i + 2), From: 1 << 20, Msg: p.req})
		_ = enc.Encode(&replyEnvelope{ID: uint64(i + 2), Msg: p.resp})
	}
	return metric{Value: float64(n) / float64(len(pairs)), Unit: "bytes", n: len(pairs)}
}

type countWriter int64

func (c *countWriter) Write(p []byte) (int, error) {
	*c += countWriter(len(p))
	return len(p), nil
}
