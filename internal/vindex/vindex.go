// Package vindex implements per-document value indexes over DataGuide
// extents: inverted maps from predicate values to the tree nodes that carry
// them, grouped per DataGuide node so that structural matching (which guide
// nodes does this query reach) and value matching (which extent members
// carry this value) compose without scanning the extent.
//
// Two kinds of key are indexable:
//
//   - "@name" — the value of attribute name on any element. Serves
//     [@name = 'v'] predicates wherever they appear.
//   - "name"  — the text content of elements labeled name. Serves both
//     [text() = 'v'] on steps named name and [name = 'v'] child predicates
//     (the postings live on the child's guide node; candidates are the
//     parents of the posting nodes).
//
// Equality predicates are a map hit; the ordered operators (<, <=, >, >=)
// binary-search a lazily maintained sorted-key slice ordered by
// xpath.CompareValues — the same total order the scan path uses, so the two
// paths always agree.
//
// # Locking
//
// An Index belongs to exactly one live document and is maintained by the
// DataGuide hooks in the same ds.mu critical section that mutates the tree:
// postings and groups are guarded by the owning scheduling domain's mutex
// and are never touched off-lock. The key set is fixed by New and never
// changes, so the lock-free MVCC snapshot-read path can check key coverage
// without the domain mutex. Snapshot readers never consult the live
// postings at all — they build a DocIndex over their pinned immutable
// version (see doc.go), so a half-applied posting is unobservable by
// construction.
package vindex

import (
	"sort"
	"strings"

	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// keySet is the parsed, immutable form of a list of index keys.
type keySet struct {
	text  map[string]bool // element labels whose text is indexed
	attrs map[string]bool // attribute names (without the '@') indexed
}

func newKeySet(keys []string) *keySet {
	ks := &keySet{text: make(map[string]bool), attrs: make(map[string]bool)}
	for _, k := range keys {
		name, isAttr := splitKey(k)
		if name == "" {
			continue
		}
		if isAttr {
			ks.attrs[name] = true
		} else {
			ks.text[name] = true
		}
	}
	return ks
}

func (ks *keySet) empty() bool { return len(ks.text) == 0 && len(ks.attrs) == 0 }

// covers reports whether key is in the set.
func (ks *keySet) covers(key string) bool {
	name, isAttr := splitKey(key)
	if isAttr {
		return ks.attrs[name]
	}
	return ks.text[name]
}

// splitKey parses an index key: "@name" selects an attribute, anything else
// an element label.
func splitKey(key string) (name string, isAttr bool) {
	if rest, ok := strings.CutPrefix(key, "@"); ok {
		return rest, true
	}
	return key, false
}

// postings maps one key's values to the nodes carrying them. The sorted
// value slice backing range lookups is rebuilt lazily: value insertions and
// removals only mark it dirty.
type postings struct {
	byVal  map[string][]*xmltree.Node
	sorted []string
	dirty  bool
}

func newPostings() *postings {
	return &postings{byVal: make(map[string][]*xmltree.Node)}
}

func (p *postings) add(val string, n *xmltree.Node) {
	lst, ok := p.byVal[val]
	if !ok {
		p.dirty = true
	}
	p.byVal[val] = append(lst, n)
}

func (p *postings) remove(val string, n *xmltree.Node) {
	lst := p.byVal[val]
	for i, m := range lst {
		if m == n {
			lst[i] = lst[len(lst)-1]
			lst = lst[:len(lst)-1]
			break
		}
	}
	if len(lst) == 0 {
		delete(p.byVal, val)
		p.dirty = true
		return
	}
	p.byVal[val] = lst
}

// lookup returns the posting lists satisfying (op, val). The returned node
// slices alias the index — callers append them into their own result set and
// must not mutate them.
func (p *postings) lookup(op xpath.CmpOp, val string) [][]*xmltree.Node {
	if op == xpath.Eq {
		if lst := p.byVal[val]; len(lst) > 0 {
			return [][]*xmltree.Node{lst}
		}
		return nil
	}
	if p.dirty {
		p.sorted = p.sorted[:0]
		for v := range p.byVal {
			p.sorted = append(p.sorted, v)
		}
		sort.Slice(p.sorted, func(i, j int) bool {
			return xpath.CompareValues(p.sorted[i], p.sorted[j]) < 0
		})
		p.dirty = false
	}
	// lb: first key >= val; ub: first key > val.
	lb := sort.Search(len(p.sorted), func(i int) bool {
		return xpath.CompareValues(p.sorted[i], val) >= 0
	})
	ub := sort.Search(len(p.sorted), func(i int) bool {
		return xpath.CompareValues(p.sorted[i], val) > 0
	})
	var lo, hi int
	switch op {
	case xpath.Lt:
		lo, hi = 0, lb
	case xpath.Le:
		lo, hi = 0, ub
	case xpath.Gt:
		lo, hi = ub, len(p.sorted)
	case xpath.Ge:
		lo, hi = lb, len(p.sorted)
	default:
		return nil
	}
	out := make([][]*xmltree.Node, 0, hi-lo)
	for _, v := range p.sorted[lo:hi] {
		if lst := p.byVal[v]; len(lst) > 0 {
			out = append(out, lst)
		}
	}
	return out
}

// group holds the postings of one DataGuide node.
type group struct {
	text  *postings            // text of extent members; nil until first posting
	attrs map[string]*postings // per indexed attribute name
}

// Index is the live value index of one document. See the package comment
// for the locking contract.
type Index struct {
	groups map[int64]*group // guide-node ID → postings; under ds.mu

	// keys and sorted are fixed by New: read off-lock by snapshot readers.
	keys   *keySet
	sorted []string
}

// New builds an empty index over the given keys; the key set never
// changes afterwards.
func New(keys []string) *Index {
	ks := newKeySet(keys)
	sorted := make([]string, 0, len(ks.text)+len(ks.attrs))
	for k := range ks.text {
		sorted = append(sorted, k)
	}
	for k := range ks.attrs {
		sorted = append(sorted, "@"+k)
	}
	sort.Strings(sorted)
	return &Index{groups: make(map[int64]*group), keys: ks, sorted: sorted}
}

// Enabled reports whether key is indexed. Safe off-lock.
func (ix *Index) Enabled(key string) bool { return ix.keys.covers(key) }

// Keys returns the keys in canonical sorted form ("@name" for attributes).
// Safe off-lock; callers must not modify the slice.
func (ix *Index) Keys() []string { return ix.sorted }

func (ix *Index) getGroup(gid int64, create bool) *group {
	g := ix.groups[gid]
	if g == nil && create {
		g = &group{}
		ix.groups[gid] = g
	}
	return g
}

// Add indexes node n, a member of guide node gid's extent, under every
// indexed key it matches. Called under ds.mu by the DataGuide extent hooks.
func (ix *Index) Add(gid int64, n *xmltree.Node) {
	ks := ix.keys
	if ks.empty() {
		return
	}
	if ks.text[n.Name] {
		ix.addTextPosting(gid, n)
	}
	if len(ks.attrs) > 0 {
		for _, a := range n.Attrs {
			if ks.attrs[a.Name] {
				ix.addAttrPosting(gid, n, a.Name, a.Value)
			}
		}
	}
}

// Remove drops every posting of n from guide node gid. Called under ds.mu.
func (ix *Index) Remove(gid int64, n *xmltree.Node) {
	ks := ix.keys
	if ks.empty() {
		return
	}
	g := ix.getGroup(gid, false)
	if g == nil {
		return
	}
	if g.text != nil && ks.text[n.Name] {
		g.text.remove(n.Text, n)
	}
	if len(g.attrs) > 0 {
		for _, a := range n.Attrs {
			if p := g.attrs[a.Name]; p != nil {
				p.remove(a.Value, n)
			}
		}
	}
}

// TextChanged re-keys n's text posting after a Change update or its undo.
// Called under ds.mu, after the mutation.
func (ix *Index) TextChanged(gid int64, n *xmltree.Node, old string) {
	if old == n.Text || !ix.keys.text[n.Name] {
		return
	}
	g := ix.getGroup(gid, true)
	if g.text == nil {
		g.text = newPostings()
	}
	g.text.remove(old, n)
	g.text.add(n.Text, n)
}

// AttrChanged re-keys n's posting for attr after a set/remove or its undo.
// old/oldExisted describe the pre-mutation state; the new state is read off
// the node. Called under ds.mu, after the mutation.
func (ix *Index) AttrChanged(gid int64, n *xmltree.Node, attr, old string, oldExisted bool) {
	if !ix.keys.attrs[attr] {
		return
	}
	cur, curExists := n.Attr(attr)
	if oldExisted == curExists && old == cur {
		return
	}
	g := ix.getGroup(gid, true)
	p := g.attrs[attr]
	if p == nil {
		if g.attrs == nil {
			g.attrs = make(map[string]*postings)
		}
		p = newPostings()
		g.attrs[attr] = p
	}
	if oldExisted {
		p.remove(old, n)
	}
	if curExists {
		p.add(cur, n)
	}
}

// addTextPosting records n's text under guide node gid. Under ds.mu.
func (ix *Index) addTextPosting(gid int64, n *xmltree.Node) {
	g := ix.getGroup(gid, true)
	if g.text == nil {
		g.text = newPostings()
	}
	g.text.add(n.Text, n)
}

// addAttrPosting records one attribute value of n under guide node gid.
// Under ds.mu.
func (ix *Index) addAttrPosting(gid int64, n *xmltree.Node, attr, val string) {
	g := ix.getGroup(gid, true)
	if g.attrs == nil {
		g.attrs = make(map[string]*postings)
	}
	p := g.attrs[attr]
	if p == nil {
		p = newPostings()
		g.attrs[attr] = p
	}
	p.add(val, n)
}

// Clear drops all postings (the key set stays). Under ds.mu; used before a
// full rebuild.
func (ix *Index) Clear() {
	ix.groups = make(map[int64]*group)
}

// Nodes returns the extent members of guide node gid whose value for the
// selector satisfies (op, val): attr == "" selects the text key, otherwise
// the named attribute. The returned slices alias index state — callers copy
// them into their own result set under the same ds.mu section. Under ds.mu.
func (ix *Index) Nodes(gid int64, attr string, op xpath.CmpOp, val string) [][]*xmltree.Node {
	g := ix.getGroup(gid, false)
	if g == nil {
		return nil
	}
	var p *postings
	if attr == "" {
		p = g.text
	} else {
		p = g.attrs[attr]
	}
	if p == nil {
		return nil
	}
	return p.lookup(op, val)
}
