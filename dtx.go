// Package dtx is the public API of this DTX reproduction — a distributed
// concurrency-control mechanism for XML data (Moreira, Sousa, Machado;
// ICPP'09 / JCSS 2011). A Cluster runs one DTX instance ("site") per
// configured site over an in-process network; clients run transactions —
// sequences of XPath queries and update-language operations — against any
// site, which coordinates distributed execution under the configured locking
// protocol (XDGL by default) with strict 2PL, distributed commit/abort and
// periodic distributed deadlock detection.
//
// The primary surface is the interactive transaction handle: Begin opens a
// Txn whose every step executes immediately and returns its result, so a
// client can read, branch on what it read, and write — while the locks of
// every prior step are still held:
//
//	cluster, _ := dtx.New(dtx.Config{Sites: 2})
//	defer cluster.Close()
//	cluster.LoadXML("d1", "<people><person><id>4</id></person></people>")
//
//	txn, _ := cluster.Begin(ctx, 0)
//	ids, _ := txn.Query("d1", "//person/id")
//	if len(ids) < 10 { // branch on what we read, locks still held
//	    txn.Insert("d1", "/people", dtx.Into,
//	        dtx.Elem("person", "", dtx.Elem("id", "22")))
//	}
//	err := txn.Commit()
//
// Cancelling the Begin context aborts the transaction and releases its locks
// at every participant site. Failures are typed — ErrDeadlock, ErrAborted,
// ErrUnknownDocument, ErrSiteOutOfRange, ErrTxnFailed, ErrTxnDone,
// ErrReplicaUnavailable — and compose with errors.Is; see errors.go for the
// taxonomy.
//
// The cluster survives site crashes: heartbeats feed a per-site liveness
// view, reads route around dead replicas while writes touching them fail
// fast with ErrReplicaUnavailable, and a crashed site (KillSite, or a real
// fault under cmd/dtxd) restarts through internal/recovery — saved
// documents plus journal replay, settlement of a crashed coordinator's
// dangling decisions, document catch-up from live replicas (RestartSite).
//
// Submit runs a whole operation list as one transaction (a convenience
// wrapper over Begin/step/Commit), and SubmitWithRetry additionally
// resubmits deadlock victims under a bounded backoff policy.
//
// The cross-site hot path is concurrent: remote operations, the commit and
// abort phases of 2PC, and the deadlock detector's graph collection all fan
// their per-site messages out concurrently and join. Independent read-only
// steps can share that concurrency through Txn.DoBatch, and Submit batches
// consecutive reads through it automatically when no client think time is
// configured.
package dtx

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/lock"
	"repro/internal/obs"
	"repro/internal/recovery"
	"repro/internal/replica"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/txn"
	"repro/internal/xmltree"
	"repro/internal/xupdate"
)

// Protocol selects the concurrency-control protocol of a cluster.
type Protocol string

// Available protocols: XDGL is the paper's DataGuide-based multi-granularity
// protocol; Node2PL is the coarse tree-lock baseline the paper compares
// against; DocLock is the traditional whole-document lock.
const (
	XDGL    Protocol = "xdgl"
	Node2PL Protocol = "node2pl"
	DocLock Protocol = "doclock"
)

// Config configures a Cluster.
type Config struct {
	// Sites is the number of DTX instances (default 1).
	Sites int
	// Protocol selects the locking protocol of every document at every site
	// (default XDGL).
	Protocol Protocol
	// DeadlockCheckInterval is the period of the distributed deadlock
	// detector (default 10ms).
	DeadlockCheckInterval time.Duration
	// ClientThinkTime pauses between a transaction's operations.
	ClientThinkTime time.Duration
	// StoreDir, when set, makes the cluster durable: each site logs every
	// commit's applied operations to StoreDir/site<N>/commit.log before
	// acknowledging it, saves its documents under StoreDir/site<N>/ by
	// periodic checkpoint, and replays after a restart the commits its saved
	// documents do not reflect — an acknowledged commit survives the crash
	// of every replica. Empty keeps everything in memory.
	StoreDir string
	// HeartbeatInterval is the period of the per-site liveness heartbeat
	// feeding failure detection: a crashed site (KillSite, or a real fault
	// in a TCP deployment) is detected, reads route to the surviving
	// replicas of its documents and writes touching them fail fast with
	// ErrReplicaUnavailable. Zero selects the default (100ms); negative
	// disables failure detection.
	HeartbeatInterval time.Duration
	// HeartbeatMisses is the consecutive heartbeat misses before a site is
	// declared down (default 3).
	HeartbeatMisses int
	// Replication selects the write-replication mode. Empty or "eager" is
	// the original semantics: every write executes at every replica, and a
	// partially-down replica set refuses writes with ErrReplicaUnavailable.
	// "quorum" routes every write to its document's primary (the
	// lowest-numbered replica site), ships the committed effects to the
	// followers through a replication log, and acknowledges once WriteQuorum
	// replicas hold them durably — so writes keep flowing while followers
	// are down. Read-only transactions are served from followers that have
	// not known themselves behind the primary for longer than a second. A
	// lagging follower catches up incrementally from the primary's undo
	// log, which keeps the last 64 records per document whatever the
	// checkpoint interval (after a primary restart, at most the last 64 it
	// replayed); one further behind catches up by whole-document transfer.
	Replication string
	// WriteQuorum is the number of replicas (primary included) that must
	// durably hold a write before its commit acknowledges, in quorum mode.
	// Zero selects a majority of each document's replica set.
	WriteQuorum int
	// IndexedKeys names the value keys every site indexes on every document:
	// "@name" indexes the values of attribute name, a bare element name
	// indexes the text of elements with that label. Queries whose final step
	// carries an equality or ordered comparison over an indexed key are
	// answered from the index instead of scanning the matched extents.
	IndexedKeys []string
}

// Replication modes for Config.Replication.
const (
	// ReplicationEager writes to every replica synchronously (the default).
	ReplicationEager = sched.ReplicationEager
	// ReplicationQuorum ships a replication log from each document's primary
	// and acknowledges at Config.WriteQuorum durable replicas.
	ReplicationQuorum = sched.ReplicationQuorum
)

// Cluster is a running DTX deployment.
type Cluster struct {
	cfg      Config
	protocol lock.Protocol
	network  *transport.Network
	catalog  *replica.Catalog
	ids      []int

	// mu guards the per-site slots: KillSite/RestartSite swap a slot's
	// site while clients keep submitting through the others. Each site
	// owns its journal (opened in buildSite, closed by Stop/Kill). opMu
	// serialises whole lifecycle operations (RestartSite, Close) against
	// each other: two concurrent restarts of one slot would open two append
	// handles on the same journal, and a restart racing Close would install
	// a site Close never stops.
	mu     sync.RWMutex
	opMu   sync.Mutex
	closed bool
	sites  []*sched.Site
	stores []store.Store
}

// New builds and starts a cluster.
func New(cfg Config) (*Cluster, error) {
	if cfg.Sites <= 0 {
		cfg.Sites = 1
	}
	if cfg.Protocol == "" {
		cfg.Protocol = XDGL
	}
	if cfg.DeadlockCheckInterval <= 0 {
		cfg.DeadlockCheckInterval = 10 * time.Millisecond
	}
	if cfg.HeartbeatInterval == 0 {
		cfg.HeartbeatInterval = 100 * time.Millisecond
	}
	proto, err := lock.ByName(string(cfg.Protocol))
	if err != nil {
		return nil, err
	}
	net := transport.NewNetwork()
	catalog := replica.NewCatalog()
	ids := make([]int, cfg.Sites)
	for i := range ids {
		ids[i] = i
	}
	switch cfg.Replication {
	case "", ReplicationEager, ReplicationQuorum:
	default:
		return nil, fmt.Errorf("dtx: unknown replication mode %q", cfg.Replication)
	}
	c := &Cluster{
		cfg:      cfg,
		protocol: proto,
		network:  net,
		catalog:  catalog,
		ids:      ids,
		stores:   make([]store.Store, cfg.Sites),
		sites:    make([]*sched.Site, cfg.Sites),
	}
	for i := 0; i < cfg.Sites; i++ {
		if cfg.StoreDir != "" {
			fs, err := store.NewFileStore(c.siteDir(i))
			if err != nil {
				return nil, err
			}
			c.stores[i] = fs
		} else {
			c.stores[i] = store.NewMemStore()
		}
		site, err := c.buildSite(i, false)
		if err != nil {
			return nil, err
		}
		c.sites[i] = site
	}
	return c, nil
}

func (c *Cluster) siteDir(i int) string {
	return fmt.Sprintf("%s/site%d", c.cfg.StoreDir, i)
}

// buildSite constructs and attaches one site over the slot's store —
// shared by New and RestartSite (which passes recovering=true so the site
// refuses traffic until internal/recovery readmits it).
func (c *Cluster) buildSite(i int, recovering bool) (*sched.Site, error) {
	var journal *store.Journal
	if c.cfg.StoreDir != "" {
		j, err := store.OpenJournal(c.siteDir(i) + "/commit.log")
		if err != nil {
			return nil, err
		}
		journal = j
	}
	hb := c.cfg.HeartbeatInterval
	if hb < 0 {
		hb = 0
	}
	site := sched.New(sched.Config{
		SiteID:            i,
		Sites:             c.ids,
		Protocol:          c.protocol,
		Catalog:           c.catalog,
		Store:             c.stores[i],
		DeadlockInterval:  c.cfg.DeadlockCheckInterval,
		OpDelay:           c.cfg.ClientThinkTime,
		Journal:           journal,
		HeartbeatInterval: hb,
		HeartbeatMisses:   c.cfg.HeartbeatMisses,
		Replication:       c.cfg.Replication,
		WriteQuorum:       c.cfg.WriteQuorum,
		IndexedKeys:       c.cfg.IndexedKeys,
		Recovering:        recovering,
	})
	if err := site.AttachNetwork(c.network); err != nil {
		if journal != nil {
			journal.Close()
		}
		return nil, err
	}
	return site, nil
}

// site returns the current instance serving a slot.
func (c *Cluster) site(i int) *sched.Site {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.sites[i]
}

// allSites snapshots the current site instances.
func (c *Cluster) allSites() []*sched.Site {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]*sched.Site(nil), c.sites...)
}

// Sync checkpoints every site: on a quiescent cluster the stores then hold
// exactly the committed documents (and the journals no open intent). Use it
// to observe the persistent state without stopping the cluster.
func (c *Cluster) Sync() {
	for _, s := range c.allSites() {
		s.Sync()
	}
}

// Close stops every site. Each site takes a final checkpoint and closes its
// own journal only after it.
func (c *Cluster) Close() {
	c.opMu.Lock()
	defer c.opMu.Unlock()
	c.closed = true
	for _, s := range c.allSites() {
		s.Stop()
	}
}

// KillSite crashes a site abruptly, as a process or machine failure would:
// no drain, no clean journal close, transport torn down mid-conversation.
// The other sites' failure detectors notice within a few heartbeats; reads
// on the dead site's documents keep flowing from surviving replicas, writes
// touching them fail fast with ErrReplicaUnavailable, and RestartSite
// brings the site back through crash recovery.
func (c *Cluster) KillSite(site int) error {
	if site < 0 || site >= len(c.ids) {
		return fmt.Errorf("%w: site %d (cluster has %d)", ErrSiteOutOfRange, site, len(c.ids))
	}
	c.site(site).Kill()
	return nil
}

// RecoveryReport summarises a RestartSite run: the documents recovered from
// the store, how many journal records were replayed onto them, how each
// dangling coordinator decision was settled, and which documents were caught
// up from live replicas.
type RecoveryReport = recovery.Report

// RestartSite rebuilds a killed site through the crash-recovery subsystem:
// documents reload from the site's store, the journal's open intents replay
// onto them, dangling coordinator decisions are settled against the
// surviving participants, documents catch up from live replicas, and the
// site rejoins — peers readmit it on their next heartbeat.
func (c *Cluster) RestartSite(site int) (*RecoveryReport, error) {
	if site < 0 || site >= len(c.ids) {
		return nil, fmt.Errorf("%w: site %d (cluster has %d)", ErrSiteOutOfRange, site, len(c.ids))
	}
	c.opMu.Lock()
	defer c.opMu.Unlock()
	if c.closed {
		return nil, fmt.Errorf("dtx: cluster is closed")
	}
	old := c.site(site)
	if !old.Killed() {
		return nil, fmt.Errorf("dtx: site %d is not killed; stop it with KillSite first", site)
	}
	// The dead instance shares its Store with the replacement: wait out any
	// checkpointer caught mid write, or its Save could land over the
	// reloaded documents.
	old.Quiesce()
	fresh, err := c.buildSite(site, true)
	if err != nil {
		return nil, err
	}
	report, err := recovery.Restart(fresh, recovery.DefaultOptions)
	if err != nil {
		fresh.Stop()
		return nil, err
	}
	c.mu.Lock()
	c.sites[site] = fresh
	c.mu.Unlock()
	return report, nil
}

// PeerStatuses reports a site's liveness view of the other sites, keyed by
// site id with values "up", "suspect" or "down".
func (c *Cluster) PeerStatuses(site int) (map[int]string, error) {
	if site < 0 || site >= len(c.ids) {
		return nil, fmt.Errorf("%w: site %d (cluster has %d)", ErrSiteOutOfRange, site, len(c.ids))
	}
	out := make(map[int]string)
	for _, p := range c.site(site).PeerStates() {
		out[p.Site] = p.Status
	}
	return out, nil
}

// Sites returns the number of sites.
func (c *Cluster) Sites() int { return len(c.ids) }

// LoadXML parses the XML text and installs the document. With no explicit
// sites the document is totally replicated (a copy at every site);
// otherwise it is placed at exactly the given sites.
func (c *Cluster) LoadXML(name, xml string, sites ...int) error {
	if len(sites) == 0 {
		sites = make([]int, len(c.ids))
		for i := range sites {
			sites[i] = i
		}
	}
	for _, sid := range sites {
		if sid < 0 || sid >= len(c.ids) {
			return fmt.Errorf("%w: site %d (cluster has %d)", ErrSiteOutOfRange, sid, len(c.ids))
		}
	}
	// Parse once, deep-clone per replica site: re-parsing the same text at
	// every site is pure waste for large documents.
	doc, err := xmltree.ParseString(name, xml)
	if err != nil {
		return err
	}
	for i, sid := range sites {
		replicaDoc := doc
		if i < len(sites)-1 {
			replicaDoc = doc.Clone()
		}
		if err := c.site(sid).AddDocument(replicaDoc); err != nil {
			return err
		}
	}
	return nil
}

// LoadXMLPartial fragments the document into as many size-balanced pieces
// as there are sites and places fragment i at site i — the paper's partial
// replication. It returns the fragment document names ("name#0", ...).
func (c *Cluster) LoadXMLPartial(name, xml string) ([]string, error) {
	doc, err := xmltree.ParseString(name, xml)
	if err != nil {
		return nil, err
	}
	frags, err := replica.FragmentDocument(doc, len(c.ids))
	if err != nil {
		return nil, err
	}
	var names []string
	for i, f := range frags {
		if err := c.site(i).AddDocument(f.Doc); err != nil {
			return nil, err
		}
		names = append(names, f.Doc.Name)
	}
	return names, nil
}

// Documents lists the documents known to the cluster's catalog.
func (c *Cluster) Documents() []string { return c.catalog.Documents() }

// SitesOf returns which sites hold a replica of the document.
func (c *Cluster) SitesOf(doc string) []int { return c.catalog.Sites(doc) }

// DocumentXML returns the current serialized form of the document as held
// in memory at the given site.
func (c *Cluster) DocumentXML(site int, name string) (string, error) {
	if site < 0 || site >= len(c.ids) {
		return "", fmt.Errorf("%w: site %d (cluster has %d)", ErrSiteOutOfRange, site, len(c.ids))
	}
	doc, err := c.site(site).Document(name)
	if err != nil {
		return "", fmt.Errorf("%w: %q at site %d", ErrUnknownDocument, name, site)
	}
	return doc.String(), nil
}

// Metrics returns one site's observability registry (see internal/obs): its
// event counters, read by name with Count (an unknown name is an error), and
// the armed-gated latency histograms. Arm it to enable the histograms;
// render it with its Text method or obs.Handler.
func (c *Cluster) Metrics(site int) (*obs.Registry, error) {
	if site < 0 || site >= len(c.ids) {
		return nil, fmt.Errorf("%w: site %d (cluster has %d)", ErrSiteOutOfRange, site, len(c.ids))
	}
	return c.site(site).Metrics(), nil
}

// CheckDeadlocks runs one distributed deadlock-detection sweep from the
// given site (Algorithm 4) in addition to the periodic background checks.
func (c *Cluster) CheckDeadlocks(site int) (bool, error) {
	if site < 0 || site >= len(c.ids) {
		return false, fmt.Errorf("%w: site %d (cluster has %d)", ErrSiteOutOfRange, site, len(c.ids))
	}
	return c.site(site).CheckDeadlocks(), nil
}

// Position places an inserted node relative to its target.
type Position int

// Insertion positions of the update language.
const (
	Into Position = iota
	Before
	After
)

func (p Position) toTree() xmltree.Pos {
	switch p {
	case Before:
		return xmltree.Before
	case After:
		return xmltree.After
	default:
		return xmltree.Into
	}
}

// Node describes an XML subtree for Insert operations. Build with Elem and
// WithAttr.
type Node struct {
	Name     string
	Text     string
	Attrs    [][2]string
	Children []Node
}

// Elem builds a Node with optional children.
func Elem(name, text string, children ...Node) Node {
	return Node{Name: name, Text: text, Children: children}
}

// WithAttr returns a copy of the node with an attribute added.
func (n Node) WithAttr(name, value string) Node {
	n.Attrs = append(append([][2]string(nil), n.Attrs...), [2]string{name, value})
	return n
}

func (n Node) toSpec() *xupdate.NodeSpec {
	spec := &xupdate.NodeSpec{Name: n.Name, Text: n.Text}
	for _, a := range n.Attrs {
		spec.Attrs = append(spec.Attrs, xmltree.Attr{Name: a[0], Value: a[1]})
	}
	for _, c := range n.Children {
		spec.Children = append(spec.Children, c.toSpec())
	}
	return spec
}

// Op is one operation of a transaction.
type Op struct {
	inner txn.Operation
}

// Query reads the nodes selected by the XPath expression from the document.
func Query(doc, path string) Op {
	return Op{inner: txn.NewQuery(doc, path)}
}

// Insert adds a new subtree at the given position relative to the target.
func Insert(doc, target string, pos Position, node Node) Op {
	return Op{inner: txn.NewUpdate(doc, &xupdate.Update{
		Kind: xupdate.Insert, Target: target, Pos: pos.toTree(), New: node.toSpec(),
	})}
}

// Remove deletes the subtree(s) selected by the target path.
func Remove(doc, target string) Op {
	return Op{inner: txn.NewUpdate(doc, &xupdate.Update{Kind: xupdate.Remove, Target: target})}
}

// Rename changes the element name of the selected node(s).
func Rename(doc, target, newName string) Op {
	return Op{inner: txn.NewUpdate(doc, &xupdate.Update{Kind: xupdate.Rename, Target: target, NewName: newName})}
}

// Change replaces the text content of the selected node(s).
func Change(doc, target, value string) Op {
	return Op{inner: txn.NewUpdate(doc, &xupdate.Update{Kind: xupdate.Change, Target: target, Value: value})}
}

// ChangeAttr sets an attribute on the selected node(s).
func ChangeAttr(doc, target, attr, value string) Op {
	return Op{inner: txn.NewUpdate(doc, &xupdate.Update{Kind: xupdate.Change, Target: target, Attr: attr, Value: value})}
}

// Transpose swaps the positions of the two selected nodes.
func Transpose(doc, a, b string) Op {
	return Op{inner: txn.NewUpdate(doc, &xupdate.Update{Kind: xupdate.Transpose, Target: a, Target2: b})}
}

// Result is the outcome of a submitted transaction.
type Result struct {
	// ID is the transaction identifier (coordinator site + sequence).
	ID string
	// Committed is true when the transaction consolidated at every site.
	Committed bool
	// State is "committed", "aborted" or "failed".
	State string
	// Reason explains aborts and failures, mirroring the typed error.
	Reason string
	// Results holds, per operation, the string rendering of query matches
	// (attribute value for /@attr queries, text content otherwise).
	Results [][]string
}

// Submit runs the operations as one transaction with the given site as
// coordinator and blocks until it commits, aborts or fails. It is a thin
// convenience wrapper over Begin/step/Commit. On a non-committed outcome the
// Result (still non-nil, carrying the transaction ID and any query results
// gathered before the abort) is returned together with the typed terminal
// error — errors.Is(err, ErrDeadlock) identifies victims worth resubmitting,
// which SubmitWithRetry automates.
func (c *Cluster) Submit(site int, ops ...Op) (*Result, error) {
	return c.SubmitCtx(context.Background(), site, ops...)
}

// SubmitCtx is Submit bound to a context: cancellation aborts the
// transaction and releases its locks at every participant site.
func (c *Cluster) SubmitCtx(ctx context.Context, site int, ops ...Op) (*Result, error) {
	if site < 0 || site >= len(c.ids) {
		return nil, fmt.Errorf("%w: site %d (cluster has %d)", ErrSiteOutOfRange, site, len(c.ids))
	}
	inner := make([]txn.Operation, len(ops))
	for i, op := range ops {
		inner[i] = op.inner
	}
	res, err := c.site(site).SubmitCtx(ctx, inner)
	if err != nil {
		return nil, err
	}
	return result(res), res.Err
}

// SubmitReadOnly runs the operations as one read-only transaction through
// the MVCC snapshot-read path (see Cluster.BeginReadOnly): no locks, no
// wait-for edges, every query served from a committed version at or below
// the transaction's begin timestamp. Every operation must be a query —
// anything else is refused up front with ErrReadOnly, before a transaction
// exists.
func (c *Cluster) SubmitReadOnly(site int, ops ...Op) (*Result, error) {
	return c.SubmitReadOnlyCtx(context.Background(), site, ops...)
}

// SubmitReadOnlyCtx is SubmitReadOnly bound to a context.
func (c *Cluster) SubmitReadOnlyCtx(ctx context.Context, site int, ops ...Op) (*Result, error) {
	if site < 0 || site >= len(c.ids) {
		return nil, fmt.Errorf("%w: site %d (cluster has %d)", ErrSiteOutOfRange, site, len(c.ids))
	}
	inner := make([]txn.Operation, len(ops))
	for i, op := range ops {
		inner[i] = op.inner
	}
	res, err := c.site(site).SubmitReadOnlyCtx(ctx, inner)
	if err != nil {
		return nil, err
	}
	return result(res), res.Err
}
