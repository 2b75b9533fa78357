package dataguide

import (
	"repro/internal/vindex"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// This file wires the vindex value index into the guide: attachment, the
// change notifications the update language calls, bulk rebuilds, and the
// indexed evaluation path that replaces extent scans for covered
// predicates. Everything here runs under the owning scheduling domain's
// mutex, like every other guide mutation or traversal.

// AttachIndex attaches a value index to the guide. Subsequent extent
// changes and value-change notifications maintain it; call ReindexAll to
// seed postings for a document that already has content.
func (g *DataGuide) AttachIndex(ix *vindex.Index) { g.vidx = ix }

// ValueIndex returns the attached value index, or nil. The pointer is set
// once at domain construction, so reading it is safe off-lock; the index's
// own documentation says which of its methods are.
func (g *DataGuide) ValueIndex() *vindex.Index { return g.vidx }

// NoteTextChanged maintains the index across an in-place text change (the
// one tree mutation that bypasses the extent hooks). old is the
// pre-mutation text; call after mutating, in the same critical section.
func (g *DataGuide) NoteTextChanged(n *xmltree.Node, old string) {
	if g.vidx == nil {
		return
	}
	if gn := g.byDoc[n.ID]; gn != nil {
		g.vidx.TextChanged(int64(gn.ID), n, old)
	}
}

// NoteAttrChanged maintains the index across an in-place attribute set or
// removal. old/oldExisted describe the pre-mutation attribute; call after
// mutating, in the same critical section.
func (g *DataGuide) NoteAttrChanged(n *xmltree.Node, attr, old string, oldExisted bool) {
	if g.vidx == nil {
		return
	}
	if gn := g.byDoc[n.ID]; gn != nil {
		g.vidx.AttrChanged(int64(gn.ID), n, attr, old, oldExisted)
	}
}

// ReindexAll rebuilds every indexed key's postings from scratch by walking
// the document. Used when attaching an index to an already-built guide
// (document load, restart recovery).
func (g *DataGuide) ReindexAll(doc *xmltree.Document) {
	if g.vidx == nil {
		return
	}
	g.vidx.Clear()
	doc.Walk(func(n *xmltree.Node) bool {
		if gn := g.byDoc[n.ID]; gn != nil {
			g.vidx.Add(int64(gn.ID), n)
		}
		return true
	})
}

// EvalIndexed evaluates q through the value index when an index covers its
// predicate, returning (nodes, true) with exactly the node set xpath.Eval
// would produce. It returns (nil, false) when no index is attached, the
// query shape is not index-eligible, or the anchor key is not indexed — the
// caller then falls back to the scan.
func (g *DataGuide) EvalIndexed(q *xpath.Query) ([]*xmltree.Node, bool) {
	ix := g.vidx
	if ix == nil {
		return nil, false
	}
	plan, ok := vindex.PlanQuery(q)
	if !ok || !ix.Enabled(plan.Key) {
		return nil, false
	}
	var candidates []*xmltree.Node
	for _, t := range g.TargetsPrefix(q, plan.AnchorStep+1) {
		gid := int64(t.ID)
		if plan.Child {
			tc := t.Child(plan.Anchor.Name)
			if tc == nil {
				continue
			}
			for _, lst := range ix.Nodes(int64(tc.ID), "", plan.Anchor.Op, plan.Anchor.Value) {
				for _, n := range lst {
					// The posting node is the matching child; the query's
					// target is its parent — by the strong-guide property the
					// parent is necessarily in t's extent.
					candidates = append(candidates, n.Parent)
				}
			}
			continue
		}
		attr := ""
		if plan.Anchor.Kind == xpath.PredAttr {
			attr = plan.Anchor.Name
		}
		for _, lst := range ix.Nodes(gid, attr, plan.Anchor.Op, plan.Anchor.Value) {
			candidates = append(candidates, lst...)
		}
	}
	return vindex.Finish(q, plan, candidates), true
}
