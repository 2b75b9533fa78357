// Package dataguide implements the strong DataGuide structural summary of
// Goldman & Widom (VLDB'97) that XDGL — and therefore DTX — uses as its lock
// representation structure. Every distinct label path of the document
// appears exactly once in the DataGuide; each DataGuide node records the
// extent of document nodes reachable by its path.
//
// Locks are attached to DataGuide nodes, which is why the structure is kept
// incrementally maintained under the five update operations rather than
// being rebuilt: lock references must stay stable while transactions run.
// A DataGuide node whose extent becomes empty is kept as a tombstone so that
// in-flight lock references remain valid: label paths only ever grow.
package dataguide

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/vindex"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// NodeID identifies a DataGuide node within one DataGuide.
type NodeID int64

// Node is one entry of the structural summary: a distinct label path.
type Node struct {
	ID       NodeID
	Label    string // element name of the last path segment
	Parent   *Node
	children map[string]*Node
	order    []string // child labels in first-seen order, for determinism

	// Extent is the set of document nodes whose label path is this node's
	// path. Keys are document node IDs.
	Extent map[xmltree.NodeID]struct{}
}

// Children returns the child summary nodes in first-seen label order.
func (n *Node) Children() []*Node {
	out := make([]*Node, 0, len(n.order))
	for _, label := range n.order {
		out = append(out, n.children[label])
	}
	return out
}

// Child returns the child with the given label, or nil.
func (n *Node) Child(label string) *Node {
	return n.children[label]
}

// Path returns the label path of the node, e.g. "/site/people/person".
func (n *Node) Path() string {
	if n.Parent == nil {
		return "/" + n.Label
	}
	return n.Parent.Path() + "/" + n.Label
}

// Ancestors returns the chain from parent to root.
func (n *Node) Ancestors() []*Node {
	var out []*Node
	for cur := n.Parent; cur != nil; cur = cur.Parent {
		out = append(out, cur)
	}
	return out
}

// Descendants returns all summary nodes strictly below n, depth first.
func (n *Node) Descendants() []*Node {
	var out []*Node
	var walk func(*Node)
	walk = func(m *Node) {
		for _, label := range m.order {
			c := m.children[label]
			out = append(out, c)
			walk(c)
		}
	}
	walk(n)
	return out
}

// DataGuide is the structural summary of one document. A DataGuide is not
// safe for concurrent use; the scheduler serialises access per document.
type DataGuide struct {
	Root *Node

	nodes  map[NodeID]*Node
	byDoc  map[xmltree.NodeID]*Node // document node -> summary node
	nextID NodeID

	// version counts structural changes: summary-node creation. Extent
	// churn does not bump it — Targets and PredicateNodes read only the
	// node/label structure, so their memoized results stay valid across
	// value updates and are invalidated exactly when a new label path
	// appears.
	version uint64
	memo    map[string]*memoEntry

	// paths is the document's cell for the immutable label-path summary
	// that xpath.Eval prunes descendant steps with (Document.Paths);
	// published is the version whose summary it holds.
	paths     *atomic.Value
	published uint64

	// vidx, when attached, is the live value index maintained alongside the
	// extents: every extent add/remove and every text/attribute change
	// notifies it inside the same critical section. Nil means no indexing.
	vidx *vindex.Index
}

// memoEntry caches the structural evaluation of one query shape against one
// guide version.
type memoEntry struct {
	version uint64
	targets []*Node
	preds   []*Node
	// anchor caches TargetsPrefix for one prefix length (anchorN). One slot
	// suffices: the anchor step index is a function of the query shape, and
	// the memo is keyed by shape.
	anchor  []*Node
	anchorN int
	hasT    bool
	hasP    bool
	hasA    bool
}

// memoCap bounds the memo map; on overflow the whole map is dropped (query
// shapes are bounded by workload templates, so this is a safety valve, not
// a working-set control).
const memoCap = 1024

// Build constructs the strong DataGuide of doc.
func Build(doc *xmltree.Document) *DataGuide {
	g := &DataGuide{
		nodes:  make(map[NodeID]*Node),
		byDoc:  make(map[xmltree.NodeID]*Node),
		nextID: 1,
		paths:  new(atomic.Value),
	}
	doc.Paths = g.paths
	g.Root = g.newNode(doc.Root.Name, nil)
	g.addToExtent(g.Root, doc.Root)
	var walk func(dn *xmltree.Node, gn *Node)
	walk = func(dn *xmltree.Node, gn *Node) {
		for _, c := range dn.Children {
			cg := g.ensureChild(gn, c.Name)
			g.addToExtent(cg, c)
			walk(c, cg)
		}
	}
	walk(doc.Root, g.Root)
	g.publish()
	return g
}

// publish stores a fresh label-path summary into the document's cell when
// the structural version moved since the last one. Build and AddSubtree, the
// only ways a document node gets a path, call it last, so no copy of the tree
// holds a path its summary lacks. A path the summary knows beyond the tree's
// (EnsureChild's, a tombstone) only prunes less.
func (g *DataGuide) publish() {
	if g.published != g.version {
		g.published = g.version
		g.paths.Store(&xpath.Summary{Child: map[string]*xpath.Summary{g.Root.Label: summarize(g.Root)}})
	}
}

// summarize copies the label paths at and below n into an immutable summary.
func summarize(n *Node) *xpath.Summary {
	s := &xpath.Summary{Child: make(map[string]*xpath.Summary, len(n.order)), Below: make(map[string]bool)}
	for _, label := range n.order {
		c := summarize(n.children[label])
		s.Child[label], s.Below[label] = c, true
		for l := range c.Below {
			s.Below[l] = true
		}
	}
	return s
}

func (g *DataGuide) newNode(label string, parent *Node) *Node {
	g.version++
	n := &Node{
		ID:       g.nextID,
		Label:    label,
		Parent:   parent,
		children: make(map[string]*Node),
		Extent:   make(map[xmltree.NodeID]struct{}),
	}
	g.nextID++
	g.nodes[n.ID] = n
	return n
}

func (g *DataGuide) ensureChild(parent *Node, label string) *Node {
	if c := parent.children[label]; c != nil {
		return c
	}
	c := g.newNode(label, parent)
	parent.children[label] = c
	parent.order = append(parent.order, label)
	return c
}

func (g *DataGuide) addToExtent(gn *Node, n *xmltree.Node) {
	gn.Extent[n.ID] = struct{}{}
	g.byDoc[n.ID] = gn
	if g.vidx != nil {
		g.vidx.Add(int64(gn.ID), n)
	}
}

func (g *DataGuide) removeFromExtent(gn *Node, n *xmltree.Node) {
	delete(gn.Extent, n.ID)
	delete(g.byDoc, n.ID)
	if g.vidx != nil {
		g.vidx.Remove(int64(gn.ID), n)
	}
}

// Node returns the summary node with the given ID, or nil.
func (g *DataGuide) Node(id NodeID) *Node { return g.nodes[id] }

// Version returns the structural version: it changes exactly when the set
// of summary nodes changes (a new label path). Extent-only
// updates leave it untouched. Callers can use it to validate caches derived
// from the guide's structure — lock derivations, query target sets.
func (g *DataGuide) Version() uint64 { return g.version }

// Len returns the number of summary nodes (including tombstones).
func (g *DataGuide) Len() int { return len(g.nodes) }

// Of returns the summary node a document node belongs to, or nil if the
// document node is unknown to the guide.
func (g *DataGuide) Of(docNode xmltree.NodeID) *Node { return g.byDoc[docNode] }

// Lookup returns the summary node for an exact label path such as
// "/site/people/person", or nil.
func (g *DataGuide) Lookup(path string) *Node {
	parts := strings.Split(strings.TrimPrefix(path, "/"), "/")
	if len(parts) == 0 || parts[0] != g.Root.Label {
		return nil
	}
	cur := g.Root
	for _, p := range parts[1:] {
		cur = cur.children[p]
		if cur == nil {
			return nil
		}
	}
	return cur
}

// EnsurePath returns the summary node for the label path, creating summary
// nodes along the way. Used when an insert introduces a brand-new path.
func (g *DataGuide) EnsurePath(segments []string) (*Node, error) {
	if len(segments) == 0 || segments[0] != g.Root.Label {
		return nil, fmt.Errorf("dataguide: path %v does not start at root %q", segments, g.Root.Label)
	}
	cur := g.Root
	for _, s := range segments[1:] {
		cur = g.ensureChild(cur, s)
	}
	return cur, nil
}

// EnsureChild returns the child of parent with the given label, creating it
// (with an empty extent) if absent. The XDGL protocol uses this to obtain a
// lockable summary node for the path a pending insert will create.
func (g *DataGuide) EnsureChild(parent *Node, label string) *Node {
	return g.ensureChild(parent, label)
}

// AddSubtree registers a newly attached document subtree rooted at n.
func (g *DataGuide) AddSubtree(n *xmltree.Node) error {
	gn, err := g.EnsurePath(n.PathSegments())
	if err != nil {
		return err
	}
	g.addToExtent(gn, n)
	var walk func(dn *xmltree.Node, parent *Node)
	walk = func(dn *xmltree.Node, parent *Node) {
		for _, c := range dn.Children {
			cg := g.ensureChild(parent, c.Name)
			g.addToExtent(cg, c)
			walk(c, cg)
		}
	}
	walk(n, gn)
	g.publish()
	return nil
}

// RemoveSubtree unregisters a document subtree that is being detached. Must
// be called while the subtree is still attached (paths intact) or with the
// subtree's byDoc entries still present.
func (g *DataGuide) RemoveSubtree(n *xmltree.Node) {
	if gn := g.byDoc[n.ID]; gn != nil {
		g.removeFromExtent(gn, n)
	}
	for _, d := range n.Descendants() {
		if gn := g.byDoc[d.ID]; gn != nil {
			g.removeFromExtent(gn, d)
		}
	}
}

// Move updates the guide for a subtree that changed position (transpose):
// re-register it under its current paths.
func (g *DataGuide) Move(n *xmltree.Node) error {
	g.RemoveSubtree(n)
	return g.AddSubtree(n)
}

// lookupMemo returns the memo entry for the query shape, valid at the
// current structural version, creating it if needed.
func (g *DataGuide) lookupMemo(q *xpath.Query) *memoEntry {
	key := q.StructureKey()
	if g.memo == nil {
		g.memo = make(map[string]*memoEntry)
	}
	e := g.memo[key]
	if e == nil || e.version != g.version {
		if len(g.memo) >= memoCap {
			g.memo = make(map[string]*memoEntry)
		}
		e = &memoEntry{version: g.version}
		g.memo[key] = e
	}
	return e
}

// Targets evaluates the structural part of a query against the guide,
// returning the summary nodes the query's final step can reach. Value
// predicates cannot be decided on a summary, so they are ignored here: the
// result over-approximates the document targets, which is exactly what a
// lock cover needs.
//
// Results are memoized per query shape (StructureKey) and invalidated by
// structural version bumps, so XDGL lock derivation for a repeated query
// template is a map hit, not a tree walk. The returned slice is shared
// across calls and must not have its elements overwritten; it is clipped to
// its length (zero spare capacity), so a caller that appends to it gets a
// private reallocation instead of scribbling into the memo's backing array
// that every later call — possibly on another goroutine's transaction —
// will read.
func (g *DataGuide) Targets(q *xpath.Query) []*Node {
	e := g.lookupMemo(q)
	if e.hasT {
		return e.targets
	}
	t, _ := g.computeTargets(q.Steps)
	e.targets = t[:len(t):len(t)]
	e.hasT = true
	return e.targets
}

// TargetsPrefix returns the summary nodes reachable by the first n steps of
// q — the anchor context for index-assisted evaluation, where the predicate
// step need not be the final one. n == len(q.Steps) degenerates to Targets.
// Memoized per query shape like Targets, with the same shared-slice contract
// (clipped to zero spare capacity).
func (g *DataGuide) TargetsPrefix(q *xpath.Query, n int) []*Node {
	if n >= len(q.Steps) {
		return g.Targets(q)
	}
	e := g.lookupMemo(q)
	if e.hasA && e.anchorN == n {
		return e.anchor
	}
	t, _ := g.computeTargets(q.Steps[:n])
	e.anchor = t[:len(t):len(t)]
	e.anchorN = n
	e.hasA = true
	return e.anchor
}

// computeTargets is the one step loop over the summary behind Targets,
// TargetsPrefix and PredicateNodes: it returns the summary nodes the steps
// reach and the summary nodes of every child predicate's element under its
// step's nodes, in first-reached order.
func (g *DataGuide) computeTargets(steps []xpath.Step) (targets, preds []*Node) {
	// The first step's context is a virtual node whose only child is the root.
	ctx := []*Node{{children: map[string]*Node{g.Root.Label: g.Root}, order: []string{g.Root.Label}}}
	pseen := map[NodeID]bool{}
	for _, step := range steps {
		var next []*Node
		nseen := map[NodeID]bool{}
		add := func(n *Node) {
			if (step.Name == "*" || step.Name == n.Label) && !nseen[n.ID] {
				nseen[n.ID] = true
				next = append(next, n)
			}
		}
		for _, c := range ctx {
			if step.Axis == xpath.Child {
				for _, ch := range c.Children() {
					add(ch)
				}
			} else {
				for _, d := range c.Descendants() {
					add(d)
				}
			}
		}
		for _, p := range step.Preds {
			if p.Kind != xpath.PredChild {
				continue
			}
			for _, n := range next {
				if pc := n.Child(p.Name); pc != nil && !pseen[pc.ID] {
					pseen[pc.ID] = true
					preds = append(preds, pc)
				}
			}
		}
		if ctx = next; len(ctx) == 0 {
			return nil, preds
		}
	}
	return ctx, preds
}

// PredicateNodes returns, for each step of the query that has a child or
// attribute predicate, the summary nodes of the predicate's child element
// under that step's context. XDGL requires ST locks on these nodes.
// Memoized like Targets; the returned slice is shared and, like Targets,
// clipped to zero spare capacity so caller appends cannot alias the memo.
func (g *DataGuide) PredicateNodes(q *xpath.Query) []*Node {
	e := g.lookupMemo(q)
	if e.hasP {
		return e.preds
	}
	_, p := g.computeTargets(q.Steps)
	e.preds = p[:len(p):len(p)]
	e.hasP = true
	return e.preds
}

// Paths returns every label path present in the guide (including tombstones)
// in sorted order. Mostly for tests and debugging.
func (g *DataGuide) Paths() []string {
	var out []string
	var walk func(n *Node)
	walk = func(n *Node) {
		out = append(out, n.Path())
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(g.Root)
	sort.Strings(out)
	return out
}

// String renders the guide as an indented tree with extent sizes.
func (g *DataGuide) String() string {
	var b strings.Builder
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		fmt.Fprintf(&b, "%s%s [%d]\n", strings.Repeat("  ", depth), n.Label, len(n.Extent))
		for _, c := range n.Children() {
			walk(c, depth+1)
		}
	}
	walk(g.Root, 0)
	return b.String()
}
