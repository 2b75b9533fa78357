package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/transport"
	"repro/internal/txn"
	"repro/internal/xmltree"
)

// setupRounds is how many times a run sets the cluster up; setup_s is the
// median, the last set-up is the one that gets measured.
const setupRounds = 5

type config struct {
	workload *workload
	seed     int64
	seconds  float64
	trace    bool
	dtxd     string // path of the built dtxd binary
	work     string // directory the run's store directories are created under
	traceOut string // directory the client spans are written to
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int     // samples behind the value, printed beside it
}

// result is the line the driver reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// nClients is the closed-loop client count: one goroutine and one connection
// each, never more than the machine has processors.
func nClients() int { return min(runtime.NumCPU(), 4) }

// bench holds what one invocation shares across its clusters.
type bench struct {
	cfg      config
	docs     []*xmltree.Document
	docNames []string
	dir      string  // this run's directory under cfg.work
	setups   int     // store directories created so far
	initial  int64   // serialised bytes of the generated documents
	setupS   float64 // median set-up time
}

// run executes one workload, untraced (end-to-end metrics) or traced
// (per-layer metrics), including the correctness gate.
func run(cfg config) (res *result, err error) {
	b := &bench{cfg: cfg}
	if b.dir, err = os.MkdirTemp(cfg.work, "run-"); err != nil {
		return nil, err
	}
	live.Lock()
	live.runDir = b.dir
	live.Unlock()
	defer killAll() // kills whatever an error path below left running; removes b.dir

	warm := time.Duration(cfg.seconds * 0.10 * float64(time.Second))
	measure := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		c, err := b.setup(setupRounds, false)
		if err != nil {
			return nil, err
		}
		clients, w, err := b.load(c, false, warm, measure)
		if err != nil {
			return nil, err
		}
		res = &result{Attempted: w.attempted, Failed: w.failed, Metrics: endToEnd(w, b.setupS)}
		_, err = b.gate(c, clients)
		closeClients(clients)
		res.Correct = err == nil
		return res, err
	}

	// Traced invocation: the ladder, an untraced half as the reference for
	// the tracing overhead, then the traced half on a fresh cluster started
	// with -metrics-addr. Both halves replay the same streams from the same
	// documents.
	metrics, err := ladder(b)
	if err != nil {
		return nil, err
	}
	ref, err := b.setup(1, false)
	if err != nil {
		return nil, err
	}
	if metrics["transport.tcp_rtt_us"], err = pingRTT(ref.ctl); err != nil { // the dtxd are still idle
		return nil, err
	}
	refClients, untraced, err := b.load(ref, false, warm/2, measure/2)
	if err != nil {
		return nil, err
	}
	closeClients(refClients)
	if err := ref.stop(); err != nil {
		return nil, err
	}
	c, err := b.setup(1, true)
	if err != nil {
		return nil, err
	}
	clients, w, err := b.load(c, true, warm/2, measure/2)
	if err != nil {
		return nil, err
	}
	res = &result{Attempted: w.attempted, Failed: w.failed, Metrics: metrics}
	final, err := b.gate(c, clients)
	closeClients(clients)
	if err != nil {
		return res, err
	}
	res.Correct = true
	perLayer(metrics, b.cfg.workload, untraced, w, clients, float64(final)/float64(b.initial))
	return res, writeSpans(cfg, clients)
}

// setup generates the documents, writes the store directories, starts the
// three dtxd and waits until all answer ready — rounds times, keeping the
// last cluster. It records the median duration as setup_s.
func (b *bench) setup(rounds int, traced bool) (*cluster, error) {
	var times []float64
	for r := 0; ; r++ {
		start := time.Now()
		b.docs = b.cfg.workload.genDocs(b.cfg.seed)
		dir := filepath.Join(b.dir, fmt.Sprintf("stores%d", b.setups))
		b.setups++
		size, err := writeStores(dir, b.docs)
		if err != nil {
			return nil, err
		}
		b.initial = size
		b.docNames = b.docNames[:0]
		for _, d := range b.docs {
			b.docNames = append(b.docNames, d.Name)
		}
		c, err := startCluster(b.cfg.dtxd, dir, b.docNames, traced)
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(start).Seconds())
		if r == rounds-1 {
			if rounds > 1 {
				b.setupS = median(times)
			}
			return c, nil
		}
		// Killed, not drained: a dtxd this young may not have installed its
		// SIGTERM handler yet, and nothing was written that needs a flush.
		c.kill()
		os.RemoveAll(dir)
	}
}

// load connects fresh clients, each at the start of its stream, and drives
// them against the cluster for a warm-up and a measured window.
func (b *bench) load(c *cluster, traced bool, warm, measure time.Duration) ([]*client, *window, error) {
	gens := b.cfg.workload.generators(b.cfg.seed, b.docs, nClients())
	clients := make([]*client, len(gens))
	epoch := time.Now()
	for i := range clients {
		node, err := newClientNode(i, c.sites)
		if err != nil {
			closeClients(clients[:i])
			return nil, nil, err
		}
		clients[i] = &client{
			id: i, site: i % nSites, node: node, traced: traced, epoch: epoch,
			gen:     gens[i],
			jitter:  rand.New(rand.NewSource(b.cfg.seed*31 + int64(i))),
			lastAck: map[string]string{},
		}
	}
	w, err := drive(c, clients, warm, measure)
	return clients, w, err
}

// closeClients releases the clients' endpoints and reports on standard
// error why transactions, if any, ended uncommitted.
func closeClients(clients []*client) {
	for _, cl := range clients {
		cl.node.Close()
		for _, f := range cl.failed {
			fmt.Fprintln(os.Stderr, "dtxbench: not committed:", f)
		}
	}
}

// endToEnd turns a measured window into the BENCHMARK.json end_to_end set.
func endToEnd(w *window, setupS float64) map[string]metric {
	cpuMs := w.after.userMs + w.after.sysMs - w.before.userMs - w.before.sysMs
	m := map[string]metric{
		"commit_per_s":      {Value: float64(w.commits()) / w.seconds, Unit: "1/s", n: w.commits()},
		"cpu_ms_per_commit": {Value: cpuMs / float64(w.commits()), Unit: "ms", n: w.commits()},
		"rss_peak_mb":       {Value: w.after.hwmMB, Unit: "MB", n: nSites},
		"setup_s":           {Value: setupS, Unit: "s", n: setupRounds},
	}
	for class, name := range []string{"read", "write"} {
		m[name+"_lat_p50_ms"] = metric{Value: percentile(w.lat[class], 0.50), Unit: "ms", n: len(w.lat[class])}
		m[name+"_lat_p95_ms"] = metric{Value: percentile(w.lat[class], 0.95), Unit: "ms", n: len(w.lat[class])}
	}
	return m
}

// gate is the correctness check run after every workload. It requires that
// no dtxd died, that none reported a persist error, that a SIGTERM drain
// leaves byte-identical documents at the three replicas, and that — after
// restarting the sites from those stores — every change a client had
// acknowledged as its last on a path reads back (from whichever client wrote
// the path last). It returns the drained documents' total size.
func (b *bench) gate(c *cluster, clients []*client) (size int64, err error) {
	if err := c.exitedEarly(); err != nil {
		return 0, err
	}
	sc, err := c.scrapeMetrics()
	if err == nil && sc.sum["dtx_persist_errors_total"] != 0 {
		err = fmt.Errorf("gate: dtx_persist_errors_total = %v", sc.sum["dtx_persist_errors_total"])
	}
	if err != nil {
		return 0, err
	}
	if err := c.stop(); err != nil {
		return 0, fmt.Errorf("gate: drain: %w", err)
	}
	for _, d := range b.docNames {
		var first []byte
		for i, s := range c.sites {
			data, err := os.ReadFile(filepath.Join(s.dir, d+".xml"))
			if err != nil {
				return 0, fmt.Errorf("gate: %w", err)
			}
			if i == 0 {
				first = data
				size += int64(len(data))
			} else if !bytes.Equal(first, data) {
				return 0, fmt.Errorf("gate: %s.xml differs between site 0 and site %d after drain", d, s.id)
			}
		}
	}

	expect := map[string][]string{} // "doc target" -> every client's last acknowledged value
	for _, cl := range clients {
		for key, v := range cl.lastAck {
			expect[key] = append(expect[key], v)
		}
	}
	keys := sortedKeys(expect)
	rc, err := startCluster(b.cfg.dtxd, c.dir, b.docNames, false)
	if err != nil {
		return 0, fmt.Errorf("gate: restart: %w", err)
	}
	defer rc.kill()
	const batch = 32
	for lo := 0; lo < len(keys); lo += batch {
		part := keys[lo:min(lo+batch, len(keys))]
		ops := make([]txn.Operation, len(part))
		for i, key := range part {
			doc, target, _ := strings.Cut(key, " ")
			ops[i] = txn.NewQuery(doc, target)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		msg, err := rc.ctl.Send(ctx, lo/batch%nSites, transport.SubmitReq{Ops: ops})
		cancel()
		resp, ok := msg.(transport.SubmitResp)
		if err != nil || !ok || resp.State != txn.Committed.String() {
			return 0, fmt.Errorf("gate: read-back: %v %+v", err, msg)
		}
		for i, key := range part {
			got := resp.Results[i]
			found := false
			for _, want := range expect[key] {
				found = found || (len(got) == 1 && got[0] == want)
			}
			if !found {
				return 0, fmt.Errorf("gate: %s reads back %q after restart, acknowledged %q", key, got, expect[key])
			}
		}
	}
	return size, nil
}

// writeSpans dumps the traced half's client spans as one JSON document.
func writeSpans(cfg config, clients []*client) error {
	var spans []span
	for _, cl := range clients {
		spans = append(spans, cl.spans...)
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].StartUs < spans[j].StartUs })
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{cfg.workload.name, cfg.seed, spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.traceOut, 0o755); err != nil {
		return err
	}
	return errors.Join(err, os.WriteFile(filepath.Join(cfg.traceOut, cfg.workload.name+".trace.json"), data, 0o644))
}
