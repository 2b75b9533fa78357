// Package replica implements DTX's data-distribution substrate: the catalog
// that maps each document to the sites holding a copy, total and partial
// replication, and the size-balanced fragmentation the paper adopts from
// Kurita et al. (AINA'07): "the data is fragmented considering the structure
// and size of the document, so that each generated fragment has a similar
// size. The fragmentation approach used in this work makes all sites have
// similar volumes of data."
package replica

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/xmltree"
)

// Catalog maps document names to the sites that hold a replica. The lookup
// drives Algorithm 1's routing: an operation must execute at every site that
// holds the document.
type Catalog struct {
	mu    sync.RWMutex
	sites map[string][]int
}

// NewCatalog creates an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{sites: make(map[string][]int)}
}

// Place records that a document is held by the given sites (replacing any
// previous placement), deduplicated, in the order given: the first site is
// the document's read site while it is live (and its primary in quorum
// mode).
func (c *Catalog) Place(doc string, sites ...int) {
	list := make([]int, 0, len(sites))
	for _, s := range sites {
		if !slices.Contains(list, s) {
			list = append(list, s)
		}
	}
	c.mu.Lock()
	c.sites[doc] = list
	c.mu.Unlock()
}

// Sites returns the sites holding the document in placement order (empty
// if unknown).
func (c *Catalog) Sites(doc string) []int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]int(nil), c.sites[doc]...)
}

// Documents returns all known document names, sorted.
func (c *Catalog) Documents() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.sites))
	for d := range c.sites {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// Liveness reports whether a site is currently believed alive — the view a
// failure detector maintains. The catalog itself is placement only; pairing
// it with a Liveness yields availability-aware routing.
type Liveness interface {
	Alive(site int) bool
}

// LiveSites splits the document's replica sites by the liveness view: live
// sites can serve reads now, down sites make the replica set partial (a
// write must reach every copy, so any down member fails writes fast).
func (c *Catalog) LiveSites(doc string, lv Liveness) (live, down []int) {
	for _, s := range c.Sites(doc) {
		if lv == nil || lv.Alive(s) {
			live = append(live, s)
		} else {
			down = append(down, s)
		}
	}
	return live, down
}

// Holds reports whether the site has a replica of the document.
func (c *Catalog) Holds(doc string, site int) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, s := range c.sites[doc] {
		if s == site {
			return true
		}
	}
	return false
}

// String renders the allocation like the paper's Fig. 8: one line per site
// with its document list.
func (c *Catalog) String() string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	perSite := map[int][]string{}
	for d, ss := range c.sites {
		for _, s := range ss {
			perSite[s] = append(perSite[s], d)
		}
	}
	var ids []int
	for s := range perSite {
		ids = append(ids, s)
	}
	sort.Ints(ids)
	var b strings.Builder
	for _, s := range ids {
		docs := perSite[s]
		sort.Strings(docs)
		fmt.Fprintf(&b, "site %d: %s\n", s, strings.Join(docs, ", "))
	}
	return b.String()
}

// Fragment is one piece of a fragmented document: a standalone document
// whose root preserves the original root label, holding a contiguous subset
// of the original root's child subtrees.
type Fragment struct {
	Doc  *xmltree.Document
	Size int // ByteSize of the fragment
}

// unit is one indivisible piece of a fragmentation: a subtree plus the
// chain of container elements (strictly below the root) it lives under.
type unit struct {
	chain []*xmltree.Node
	node  *xmltree.Node
	size  int
}

// FragmentDocument splits doc into n fragments of similar byte size,
// following the paper's adopted approach of fragmenting "considering the
// structure and size of the document": the splittable units start as the
// root's child subtrees, and any unit larger than the ideal per-fragment
// share is recursively replaced by its children (a dominant section like
// XMark's regions is descended into rather than shipped whole). Units are
// then partitioned contiguously in document order. Each fragment is a
// well-formed document named "<doc>#<i>" that replicates the root element
// and the container chain of every unit it holds, so every fragment's label
// paths are a subset of the original document's — the DataGuide, and
// therefore the lock structure, stays schema-compatible.
func FragmentDocument(doc *xmltree.Document, n int) ([]Fragment, error) {
	if n < 1 {
		return nil, fmt.Errorf("replica: fragment count %d < 1", n)
	}
	units := make([]unit, 0, len(doc.Root.Children))
	total := 0
	for _, k := range doc.Root.Children {
		sz := k.ByteSize()
		units = append(units, unit{node: k, size: sz})
		total += sz
	}
	share := total / n
	// Recursively split oversized units into their children, preserving
	// document order. Splitting always terminates: children are strictly
	// smaller, and leaves cannot split.
	for changed := true; changed; {
		changed = false
		next := make([]unit, 0, len(units))
		for _, u := range units {
			if u.size > share && len(u.node.Children) > 0 {
				chain := append(append([]*xmltree.Node(nil), u.chain...), u.node)
				for _, c := range u.node.Children {
					next = append(next, unit{chain: chain, node: c, size: c.ByteSize()})
				}
				changed = true
			} else {
				next = append(next, u)
			}
		}
		units = next
	}
	if n > 1 && len(units) < n {
		return nil, fmt.Errorf("replica: only %d splittable units for %d fragments", len(units), n)
	}
	// Contiguous partition: close a fragment when its running size reaches
	// the ideal share — cutting *before* the next unit when that leaves the
	// fragment closer to the share than including it would — and never
	// leave fewer units than fragments still to fill.
	bounds := make([]int, 0, n) // exclusive end index of each fragment
	running := 0
	for i := range units {
		if n-len(bounds)-1 == 0 {
			break // the last fragment takes everything left
		}
		sz := units[i].size
		if running > 0 && len(units)-i > n-len(bounds)-1 &&
			running+sz > share && (running+sz)-share > share-running {
			bounds = append(bounds, i)
			running = 0
			if n-len(bounds)-1 == 0 {
				break
			}
		}
		running += sz
		remainingUnits := len(units) - i - 1
		remainingFrags := n - len(bounds) - 1
		if remainingFrags > 0 && (remainingUnits == remainingFrags || (running >= share && remainingUnits >= remainingFrags)) {
			bounds = append(bounds, i+1)
			running = 0
		}
	}
	bounds = append(bounds, len(units))
	frags := make([]Fragment, 0, n)
	start := 0
	for _, end := range bounds {
		frags = append(frags, buildFragment(doc, len(frags), units[start:end]))
		start = end
	}
	if len(frags) != n {
		return nil, fmt.Errorf("replica: produced %d fragments, want %d", len(frags), n)
	}
	return frags, nil
}

func buildFragment(src *xmltree.Document, idx int, units []unit) Fragment {
	name := fmt.Sprintf("%s#%d", src.Name, idx)
	fd := xmltree.NewDocument(name, src.Root.Name)
	fd.Root.Attrs = append([]xmltree.Attr(nil), src.Root.Attrs...)
	var copyInto func(dst *xmltree.Node, srcNode *xmltree.Node) *xmltree.Node
	copyInto = func(dst *xmltree.Node, srcNode *xmltree.Node) *xmltree.Node {
		cp := fd.NewElement(srcNode.Name)
		cp.Text = srcNode.Text
		if len(srcNode.Attrs) > 0 {
			cp.Attrs = append([]xmltree.Attr(nil), srcNode.Attrs...)
		}
		if err := fd.AttachAt(dst, cp, xmltree.Into); err != nil {
			// Attaching a fresh element under our own root cannot fail.
			panic(err)
		}
		for _, c := range srcNode.Children {
			copyInto(cp, c)
		}
		return cp
	}
	// Container elements (chains) are shared between consecutive units that
	// live under the same original node.
	containers := map[*xmltree.Node]*xmltree.Node{} // original -> copy
	for _, u := range units {
		parent := fd.Root
		for _, link := range u.chain {
			cp := containers[link]
			if cp == nil {
				cp = fd.NewElement(link.Name)
				if len(link.Attrs) > 0 {
					cp.Attrs = append([]xmltree.Attr(nil), link.Attrs...)
				}
				cp.Text = link.Text
				if err := fd.AttachAt(parent, cp, xmltree.Into); err != nil {
					panic(err)
				}
				containers[link] = cp
			}
			parent = cp
		}
		copyInto(parent, u.node)
	}
	return Fragment{Doc: fd, Size: fd.ByteSize()}
}

// AllocatePartial fragments each document into nSites pieces and assigns
// fragment i to site i, so "all sites have similar volumes of data". It
// returns the per-site fragment documents to load into each site's store.
func AllocatePartial(c *Catalog, docs []*xmltree.Document, nSites int) (map[int][]*xmltree.Document, error) {
	out := make(map[int][]*xmltree.Document, nSites)
	for _, doc := range docs {
		frags, err := FragmentDocument(doc, nSites)
		if err != nil {
			return nil, err
		}
		for i, f := range frags {
			c.Place(f.Doc.Name, i)
			out[i] = append(out[i], f.Doc)
		}
	}
	return out, nil
}
