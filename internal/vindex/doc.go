package vindex

import (
	"strings"

	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// DocIndex is the value index of one immutable document snapshot, keyed by
// label path instead of guide-node ID (snapshots carry no DataGuide). It is
// built once per MVCC version, on the first indexable snapshot read against
// that version, and is immutable afterwards — every reader pinned to the
// version sees postings exactly consistent with the version's tree, however
// far the live document has moved on.
type DocIndex struct {
	ks      *keySet
	entries map[string]*docEntry // label path ("/site/people/person") → postings
}

type docEntry struct {
	segs  []string // path split into element names, root first
	text  *postings
	attrs map[string]*postings
}

// BuildDocIndex walks the snapshot once and indexes every given key.
func BuildDocIndex(doc *xmltree.Document, keys []string) *DocIndex {
	ks := newKeySet(keys)
	di := &DocIndex{ks: ks, entries: make(map[string]*docEntry)}
	if ks.empty() || doc.Root == nil {
		return di
	}
	entry := func(path string) *docEntry {
		e := di.entries[path]
		if e == nil {
			e = &docEntry{segs: strings.Split(strings.TrimPrefix(path, "/"), "/")}
			di.entries[path] = e
		}
		return e
	}
	var walk func(n *xmltree.Node, parentPath string)
	walk = func(n *xmltree.Node, parentPath string) {
		path := parentPath + "/" + n.Name
		if ks.text[n.Name] {
			e := entry(path)
			if e.text == nil {
				e.text = newPostings()
			}
			e.text.add(n.Text, n)
		}
		if len(ks.attrs) > 0 {
			for _, a := range n.Attrs {
				if !ks.attrs[a.Name] {
					continue
				}
				e := entry(path)
				if e.attrs == nil {
					e.attrs = make(map[string]*postings)
				}
				p := e.attrs[a.Name]
				if p == nil {
					p = newPostings()
					e.attrs[a.Name] = p
				}
				p.add(a.Value, n)
			}
		}
		for _, c := range n.Children {
			walk(c, path)
		}
	}
	walk(doc.Root, "")
	return di
}

// Covers reports whether this DocIndex was built with the given key.
func (di *DocIndex) Covers(key string) bool { return di.ks.covers(key) }

// Eval serves q from the snapshot postings under the given plan, returning
// (nodes, true) when this index covers the plan's key and (nil, false)
// otherwise — the caller then scans the snapshot. The structural side of
// the query is resolved by matching each indexed label path against the
// step pattern: for the supported XPath subset, path-matches ⇔ the extent
// at that path is the structural match set (the same property the live
// DataGuide provides).
func (di *DocIndex) Eval(q *xpath.Query, plan Plan) ([]*xmltree.Node, bool) {
	if !di.Covers(plan.Key) {
		return nil, false
	}
	// Entries are matched against the steps up to and including the anchor
	// step; Finish evaluates any steps after it from the candidate set.
	prefix := q.Steps[:plan.AnchorStep+1]
	var candidates []*xmltree.Node
	for _, e := range di.entries {
		var p *postings
		switch {
		case plan.Child:
			// The entry holds the [child = v] children: its last segment is
			// the child label, the rest must match the anchor prefix.
			if len(e.segs) < 2 || e.segs[len(e.segs)-1] != plan.Anchor.Name {
				continue
			}
			if !matchSteps(prefix, e.segs[:len(e.segs)-1]) {
				continue
			}
			p = e.text
		case plan.Anchor.Kind == xpath.PredAttr:
			if !matchSteps(prefix, e.segs) {
				continue
			}
			if e.attrs != nil {
				p = e.attrs[plan.Anchor.Name]
			}
		default: // PredText
			if !matchSteps(prefix, e.segs) {
				continue
			}
			p = e.text
		}
		if p == nil {
			continue
		}
		for _, lst := range p.lookup(plan.Anchor.Op, plan.Anchor.Value) {
			if plan.Child {
				for _, n := range lst {
					candidates = append(candidates, n.Parent)
				}
			} else {
				candidates = append(candidates, lst...)
			}
		}
	}
	return Finish(q, plan, candidates), true
}

// matchSteps reports whether a root-rooted label path matches the step
// pattern exactly (the final step lands on the path's last segment). It
// mirrors xpath.Eval's axis semantics: step 0 with the child axis matches
// only the root, the descendant axis matches any depth.
func matchSteps(steps []xpath.Step, segs []string) bool {
	var m func(i, j int) bool
	m = func(i, j int) bool {
		if i == len(steps) {
			return j == len(segs)
		}
		st := steps[i]
		if st.Axis == xpath.Child {
			return j < len(segs) && (st.Name == "*" || st.Name == segs[j]) && m(i+1, j+1)
		}
		for k := j; k < len(segs); k++ {
			if (st.Name == "*" || st.Name == segs[k]) && m(i+1, k+1) {
				return true
			}
		}
		return false
	}
	return m(0, 0)
}
