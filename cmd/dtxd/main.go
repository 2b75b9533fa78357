// Command dtxd runs one DTX site as a standalone daemon speaking the
// scheduler-to-scheduler protocol over TCP — the multi-machine deployment
// of Fig. 2 (one DTX instance per site, between clients and the XML store).
//
// A three-site deployment:
//
//	dtxd -site 0 -listen :7070 -peer 1=hostB:7071 -peer 2=hostC:7072 \
//	     -store ./site0 -doc d1 -place d1=0,1
//
// Documents named with -doc are loaded from the store directory at startup;
// -place entries teach the catalog where every document (local and remote)
// lives. Clients submit transactions with dtxctl.
//
// Crash recovery: dtxd logs every local commit's applied operations to
// <store>/commit.log before acknowledging it (disable with -journal=false)
// and saves documents by periodic checkpoint, so every start — with or
// without -recover — loads the saved documents and replays the commits they
// do not reflect. After a crash, restart with -recover to additionally come
// up refusing traffic, settle a crashed coordinator's dangling decisions
// against the peers, bring the documents up to the live replicas, and only
// then start serving — peers readmit the site on their next heartbeat
// (-heartbeat-ms). `dtxctl -status` and `dtxctl -recover` inspect and drive
// the same machinery on a running site.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/lock"
	"repro/internal/obs"
	"repro/internal/recovery"
	"repro/internal/replica"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/transport"
)

type stringList []string

func (s *stringList) String() string { return strings.Join(*s, ",") }
func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func main() {
	siteID := flag.Int("site", 0, "this site's identifier")
	listen := flag.String("listen", ":7070", "address to listen on")
	storeDir := flag.String("store", "./dtxdata", "document store directory")
	protocol := flag.String("protocol", "xdgl", "locking protocol: xdgl | node2pl | doclock")
	deadlockMs := flag.Int("deadlock-ms", 50, "distributed deadlock check period (ms)")
	journalOn := flag.Bool("journal", true, "log commits to <store>/commit.log and save documents by checkpoint; a restart replays the log (=false: memory-only, images written on clean shutdown)")
	recoverFlag := flag.Bool("recover", false, "start in crash-recovery mode: settle dangling coordinator decisions and catch documents up from live replicas before serving")
	heartbeatMs := flag.Int("heartbeat-ms", 500, "liveness heartbeat period (ms); 0 disables failure detection")
	metricsAddr := flag.String("metrics-addr", "", "address to serve /metrics, /healthz and /debug/pprof/ on (empty disables)")
	slowTxn := flag.Duration("slow-txn", -1, "trace transactions at or above this duration as JSON lines on stderr; 0 traces every transaction, negative disables")
	var peers, docs, places stringList
	flag.Var(&peers, "peer", "peer site as id=host:port (repeatable)")
	flag.Var(&docs, "doc", "document to load from the store at startup (repeatable)")
	flag.Var(&places, "place", "catalog entry doc=site1,site2 (repeatable)")
	flag.Parse()

	proto, err := lock.ByName(*protocol)
	if err != nil {
		fatal(err)
	}
	st, err := store.NewFileStore(*storeDir)
	if err != nil {
		fatal(err)
	}
	var journal *store.Journal
	if *journalOn {
		journal, err = store.OpenJournal(*storeDir + "/commit.log")
		if err != nil {
			fatal(err)
		}
	}
	catalog := replica.NewCatalog()
	siteIDs := map[int]bool{*siteID: true}

	peerAddrs := map[int]string{}
	for _, p := range peers {
		id, addr, err := splitPeer(p)
		if err != nil {
			fatal(err)
		}
		peerAddrs[id] = addr
		siteIDs[id] = true
	}
	for _, pl := range places {
		doc, sites, err := splitPlace(pl)
		if err != nil {
			fatal(err)
		}
		catalog.Place(doc, sites...)
		for _, s := range sites {
			siteIDs[s] = true
		}
	}
	var allSites []int
	for id := range siteIDs {
		allSites = append(allSites, id)
	}

	cfg := sched.Config{
		SiteID:            *siteID,
		Sites:             allSites,
		Protocol:          proto,
		Catalog:           catalog,
		Store:             st,
		Journal:           journal,
		DeadlockInterval:  time.Duration(*deadlockMs) * time.Millisecond,
		HeartbeatInterval: time.Duration(*heartbeatMs) * time.Millisecond,
		Recovering:        *recoverFlag,
	}
	if *slowTxn >= 0 {
		cfg.SlowTxnThreshold = *slowTxn
		cfg.TraceSink = func(line string) { fmt.Fprintln(os.Stderr, line) }
	}
	site := sched.New(cfg)
	if !*recoverFlag {
		if len(docs) == 0 {
			// No explicit -doc flags: recover everything the store holds.
			replayed, err := site.Bootstrap()
			if err != nil {
				fatal(fmt.Errorf("bootstrap: %w", err))
			}
			for _, d := range site.Documents() {
				fmt.Printf("dtxd: recovered document %s\n", d)
			}
			if replayed > 0 {
				fmt.Printf("dtxd: replayed %d journal record(s)\n", replayed)
			}
		}
		for _, d := range docs {
			replayed, err := site.LoadDocument(d)
			if err != nil {
				fatal(fmt.Errorf("load %s: %w", d, err))
			}
			fmt.Printf("dtxd: loaded document %s (%d journal record(s) replayed)\n", d, replayed)
		}
	}

	// The site's handler is wrapped to serve the operator's RecoverReq
	// (dtxctl -recover) at this level: internal/recovery orchestrates sched,
	// so the scheduler itself cannot depend on it.
	handler := func(h transport.Handler) transport.Handler {
		return transport.HandlerFunc(func(from int, msg any) (any, error) {
			if _, ok := msg.(transport.RecoverReq); ok {
				report, err := recovery.Resolve(site, recovery.Options{})
				if err != nil {
					return transport.RecoverResp{Error: err.Error()}, nil
				}
				return transport.RecoverResp{
					Resolved: len(report.Decisions),
					Report:   report.String(),
				}, nil
			}
			return h.HandleMessage(from, msg)
		})
	}

	var node *transport.TCPNode
	err = site.Attach(func(h transport.Handler) (transport.Node, error) {
		n, err := transport.ListenTCP(*siteID, *listen, handler(h))
		if err != nil {
			return nil, err
		}
		for id, addr := range peerAddrs {
			n.SetPeer(id, addr)
		}
		node = n
		return n, nil
	})
	if err != nil {
		fatal(err)
	}
	if *recoverFlag {
		// Crash-recovery startup: bootstrap + journal replay + decision
		// settlement + replica catch-up, refusing traffic until done.
		report, err := recovery.Restart(site, recovery.DefaultOptions)
		if err != nil {
			fatal(fmt.Errorf("recover: %w", err))
		}
		fmt.Printf("dtxd: recovered %s\n", report)
		// Recovery bootstraps everything the store holds; -doc flags keep
		// their contract of failing loudly when a named document is absent.
		loaded := map[string]bool{}
		for _, d := range site.Documents() {
			loaded[d] = true
		}
		for _, d := range docs {
			if !loaded[d] {
				fatal(fmt.Errorf("recover: document %s not in the store", d))
			}
		}
	}
	fmt.Printf("dtxd: site %d serving on %s (protocol %s, %d peer(s))\n",
		*siteID, node.Addr(), proto.Name(), len(peerAddrs))

	if *metricsAddr != "" {
		// Serving metrics arms the gated instrumentation up front, so the
		// first scrape already sees populated histograms.
		site.Metrics().Arm()
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fatal(fmt.Errorf("metrics listener: %w", err))
		}
		fmt.Printf("dtxd: metrics on http://%s/metrics\n", ln.Addr())
		go func() { _ = http.Serve(ln, metricsMux(site)) }()
	}

	// Stop on SIGINT/SIGTERM. Stopping the site cancels every live
	// transaction session coordinated here: waiters are unblocked and their
	// locks released before the process exits.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	<-ctx.Done()
	fmt.Println("dtxd: shutting down")
	site.Stop()
}

// metricsMux builds the observability endpoint set: Prometheus text on
// /metrics, a readiness probe on /healthz (503 while recovering or killed),
// and the runtime profiles under /debug/pprof/. Registered on a private mux
// so nothing else in the process can leak handlers onto the metrics port.
func metricsMux(site *sched.Site) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.Handler(site.Metrics()))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if site.Ready() {
			fmt.Fprintln(w, "ok")
			return
		}
		http.Error(w, "recovering", http.StatusServiceUnavailable)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func splitPeer(s string) (int, string, error) {
	eq := strings.IndexByte(s, '=')
	if eq < 0 {
		return 0, "", fmt.Errorf("dtxd: -peer %q must be id=host:port", s)
	}
	id, err := strconv.Atoi(s[:eq])
	if err != nil {
		return 0, "", fmt.Errorf("dtxd: -peer %q: bad site id", s)
	}
	return id, s[eq+1:], nil
}

func splitPlace(s string) (string, []int, error) {
	eq := strings.IndexByte(s, '=')
	if eq < 0 {
		return "", nil, fmt.Errorf("dtxd: -place %q must be doc=site1,site2", s)
	}
	doc := s[:eq]
	var sites []int
	for _, part := range strings.Split(s[eq+1:], ",") {
		id, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return "", nil, fmt.Errorf("dtxd: -place %q: bad site id %q", s, part)
		}
		sites = append(sites, id)
	}
	return doc, sites, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dtxd:", err)
	os.Exit(1)
}
