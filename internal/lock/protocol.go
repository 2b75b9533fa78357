package lock

import (
	"fmt"

	"repro/internal/dataguide"
	"repro/internal/xmltree"
	"repro/internal/xpath"
	"repro/internal/xupdate"
)

// Protocol maps operations to the lock requests they require. DTX was
// "conceived in a flexible fashion, so that other concurrency control
// protocols can be employed" — the paper swaps XDGL for Node2PL by changing
// only the lock representation and the lock application/release rules, which
// is exactly this interface.
type Protocol interface {
	// Name identifies the protocol in configs and reports.
	Name() string
	// QueryRequests returns the locks needed to execute the query. XDGL
	// derives them from the DataGuide alone; the baseline tree protocols
	// evaluate the query against the document and lock document nodes.
	QueryRequests(doc *xmltree.Document, g *dataguide.DataGuide, q *xpath.Query) ([]Request, error)
	// UpdateRequests returns the locks needed to execute the update.
	UpdateRequests(doc *xmltree.Document, g *dataguide.DataGuide, u *xupdate.Update) ([]Request, error)
}

// ByName returns the protocol registered under the given name.
func ByName(name string) (Protocol, error) {
	switch name {
	case "xdgl", "":
		return XDGL{}, nil
	case "node2pl":
		return Node2PL{}, nil
	case "doclock":
		return DocLock{}, nil
	default:
		return nil, fmt.Errorf("lock: unknown protocol %q", name)
	}
}

// XDGL is the DataGuide-based multi-granularity protocol DTX adopts
// (Pleshachkov et al.), adapted per the paper: ST on query targets with IS
// on ancestors; X/IX plus SI/SA/SB for inserts; XT/IX for removals; ST on
// predicate nodes.
type XDGL struct{}

// Name implements Protocol.
func (XDGL) Name() string { return "xdgl" }

func addWithAncestors(reqs []Request, n *dataguide.Node, self, anc Mode) []Request {
	return addGuardedWithAncestors(reqs, n, self, anc, nil)
}

// addGuardedWithAncestors attaches the guard to the lock on the node itself;
// intention locks on ancestors stay unguarded (they are mutually compatible
// anyway, and an unguarded intention is a sound over-approximation).
func addGuardedWithAncestors(reqs []Request, n *dataguide.Node, self, anc Mode, guard *Guard) []Request {
	reqs = append(reqs, Request{Node: n, Mode: self, Guard: guard})
	for _, a := range n.Ancestors() {
		reqs = append(reqs, Request{Node: a, Mode: anc})
	}
	return reqs
}

func (XDGL) predicateRequests(g *dataguide.DataGuide, q *xpath.Query, reqs []Request) []Request {
	for _, pn := range g.PredicateNodes(q) {
		reqs = addWithAncestors(reqs, pn, ST, IS)
	}
	return reqs
}

// QueryRequests implements Protocol: ST on the target nodes, IS on their
// ancestors, and the same for the path-expression predicate nodes. The
// document is not consulted: XDGL locks purely on the structural summary.
func (p XDGL) QueryRequests(_ *xmltree.Document, g *dataguide.DataGuide, q *xpath.Query) ([]Request, error) {
	guard := GuardFromQuery(q)
	var reqs []Request
	for _, n := range g.Targets(q) {
		reqs = addGuardedWithAncestors(reqs, n, ST, IS, guard)
	}
	reqs = p.predicateRequests(g, q, reqs)
	return reqs, nil
}

// UpdateRequests implements Protocol, following §2 of the paper per
// operation kind.
func (p XDGL) UpdateRequests(_ *xmltree.Document, g *dataguide.DataGuide, u *xupdate.Update) ([]Request, error) {
	tq, err := u.TargetQuery()
	if err != nil {
		return nil, err
	}
	targets := g.Targets(tq)
	guard := GuardFromQuery(tq)
	var reqs []Request
	reqs = p.predicateRequests(g, tq, reqs)
	switch u.Kind {
	case xupdate.Insert:
		for _, t := range targets {
			switch u.Pos {
			case xmltree.Into:
				// SI on the node the new child connects to, IS on its
				// ancestors; X on the (possibly new) path of the inserted
				// node, IX on its ancestors — which include the target.
				reqs = addWithAncestors(reqs, t, SI, IS)
				newNode := g.EnsureChild(t, u.New.Name)
				reqs = addWithAncestors(reqs, newNode, X, IX)
			case xmltree.Before, xmltree.After:
				mode := SB
				if u.Pos == xmltree.After {
					mode = SA
				}
				if t.Parent == nil {
					return nil, fmt.Errorf("lock: cannot insert %s the root", u.Pos)
				}
				reqs = addWithAncestors(reqs, t, mode, IS)
				newNode := g.EnsureChild(t.Parent, u.New.Name)
				reqs = addWithAncestors(reqs, newNode, X, IX)
			default:
				return nil, fmt.Errorf("lock: unknown insert position %v", u.Pos)
			}
		}
	case xupdate.Remove:
		for _, t := range targets {
			reqs = addGuardedWithAncestors(reqs, t, XT, IX, guard)
		}
	case xupdate.Rename:
		for _, t := range targets {
			if t.Parent == nil {
				return nil, fmt.Errorf("lock: cannot rename the root element")
			}
			// The subtree's paths all change: exclusive tree on the old
			// path, exclusive on the new path.
			reqs = addWithAncestors(reqs, t, XT, IX)
			newNode := g.EnsureChild(t.Parent, u.NewName)
			reqs = addWithAncestors(reqs, newNode, X, IX)
		}
	case xupdate.Change:
		for _, t := range targets {
			reqs = addGuardedWithAncestors(reqs, t, X, IX, guard)
		}
	case xupdate.Transpose:
		q2, err := u.Target2Query()
		if err != nil {
			return nil, err
		}
		for _, t := range targets {
			reqs = addWithAncestors(reqs, t, XT, IX)
		}
		for _, t := range g.Targets(q2) {
			reqs = addWithAncestors(reqs, t, XT, IX)
		}
		reqs = p.predicateRequests(g, q2, reqs)
	default:
		return nil, fmt.Errorf("lock: unknown update kind %v", u.Kind)
	}
	return reqs, nil
}

// Node2PL is the tree-lock protocol standing in for the related work ("the
// majority of related works uses protocols with this characteristic"),
// after Haustein et al.'s contest of XML lock protocols: plain read/write
// locks on *document* nodes, acquired along the whole path from the root to
// every accessed node ("the nodes are locked from the query starting point
// all the way down"). Readers R-lock each result node and all of its
// ancestors; writers W-lock the node enclosing the structural change (the
// target's parent for structural operations, the target itself for in-place
// changes and insert-into) and R-lock its ancestors. A writer therefore
// excludes every reader of the enclosing subtree — the low concurrency the
// paper attributes to the related work — and the lock count grows with the
// document and the result size ("if the document grows, the number of locks
// also increases"), unlike XDGL's summary-bounded lock sets.
type Node2PL struct{}

// Name implements Protocol.
func (Node2PL) Name() string { return "node2pl" }

func pathLocks(reqs []Request, n *xmltree.Node, self Mode) []Request {
	reqs = append(reqs, Request{DocNode: n, Mode: self})
	for _, a := range n.Ancestors() {
		reqs = append(reqs, Request{DocNode: a, Mode: R})
	}
	return reqs
}

// QueryRequests implements Protocol: R on every document node the query
// selects and on every ancestor up to the root.
func (Node2PL) QueryRequests(doc *xmltree.Document, _ *dataguide.DataGuide, q *xpath.Query) ([]Request, error) {
	var reqs []Request
	for _, n := range xpath.Eval(q, doc) {
		reqs = pathLocks(reqs, n, R)
	}
	return reqs, nil
}

// UpdateRequests implements Protocol: W on the document node enclosing each
// change, R on its ancestors.
func (Node2PL) UpdateRequests(doc *xmltree.Document, _ *dataguide.DataGuide, u *xupdate.Update) ([]Request, error) {
	tq, err := u.TargetQuery()
	if err != nil {
		return nil, err
	}
	targets := xpath.Eval(tq, doc)
	var reqs []Request
	lockParent := func(t *xmltree.Node) {
		if t.Parent != nil {
			reqs = pathLocks(reqs, t.Parent, W)
		} else {
			reqs = pathLocks(reqs, t, W)
		}
	}
	switch u.Kind {
	case xupdate.Insert:
		for _, t := range targets {
			if u.Pos == xmltree.Into {
				// The target's child list changes.
				reqs = pathLocks(reqs, t, W)
			} else {
				lockParent(t)
			}
		}
	case xupdate.Remove, xupdate.Rename:
		for _, t := range targets {
			lockParent(t)
		}
	case xupdate.Change:
		for _, t := range targets {
			reqs = pathLocks(reqs, t, W)
		}
	case xupdate.Transpose:
		q2, err := u.Target2Query()
		if err != nil {
			return nil, err
		}
		for _, t := range targets {
			lockParent(t)
		}
		for _, t := range xpath.Eval(q2, doc) {
			lockParent(t)
		}
	default:
		return nil, fmt.Errorf("lock: unknown update kind %v", u.Kind)
	}
	return reqs, nil
}

// DocLock is the traditional technique the paper mentions as the trivial
// comparison point: a single read/write lock on the whole document.
type DocLock struct{}

// Name implements Protocol.
func (DocLock) Name() string { return "doclock" }

// QueryRequests implements Protocol: R on the document root.
func (DocLock) QueryRequests(doc *xmltree.Document, _ *dataguide.DataGuide, q *xpath.Query) ([]Request, error) {
	return []Request{{DocNode: doc.Root, Mode: R}}, nil
}

// UpdateRequests implements Protocol: W on the document root.
func (DocLock) UpdateRequests(doc *xmltree.Document, _ *dataguide.DataGuide, u *xupdate.Update) ([]Request, error) {
	if _, err := u.TargetQuery(); err != nil {
		return nil, err
	}
	return []Request{{DocNode: doc.Root, Mode: W}}, nil
}
