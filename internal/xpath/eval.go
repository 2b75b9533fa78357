package xpath

import (
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/xmltree"
)

// Eval evaluates q against doc and returns the matching element nodes in
// document order without duplicates. When the query selects an attribute
// (trailing /@name), the returned nodes are the elements that carry the
// attribute; use Node.Attr to extract values.
//
// Each step expands its context set one context at a time, in the set's
// order, and keeps the first occurrence of a node reached twice; positional
// predicates count over that context-major sequence, before any sort. Eval
// tracks whether the set is in document order and whether any of its nodes
// lies inside another's subtree: a child step over an ordered set of
// disjoint subtrees stays ordered and disjoint, a descendant step over an
// ordered set is ordered (a context inside the previous context's subtree
// adds nothing and is skipped) and nests only where the walk meets a match
// below a match, and predicates and the attribute filter keep both. So a
// query pays for its result, not for the document: only a child step over
// nested contexts (and every step after it) needs the per-step dedupe and
// the final SortDocOrder. That holds for a positional predicate only when it
// comes first in its step: a leading [k] ends a child step, or a descendant
// step over an ordered set, at its k-th match, while a later one filters the
// step's whole sequence. When the document's DataGuide publishes a label-path
// summary (Document.Paths), a descendant step also skips every subtree whose
// path holds no element of the step's name: the same walk, in the same
// order, minus subtrees that provably hold no match.
func Eval(q *Query, doc *xmltree.Document) []*xmltree.Node {
	// The context of the first step is a virtual document node whose only
	// child is the root element.
	top := &xmltree.Node{Children: []*xmltree.Node{doc.Root}}
	var sum *Summary
	if doc.Paths != nil {
		sum, _ = doc.Paths.Load().(*Summary)
	}
	out, ordered := evalSteps(q.Steps, []*xmltree.Node{top}, true, sum)
	if q.Attr != "" {
		kept := out[:0]
		for _, n := range out {
			if _, ok := n.Attr(q.Attr); ok {
				kept = append(kept, n)
			}
		}
		if out = kept; len(out) == 0 {
			return nil
		}
	}
	if !ordered {
		return SortDocOrder(out)
	}
	return out
}

// EvalSteps expands a duplicate-free context node set through the given
// steps with Eval's step semantics — axis expansion, per-step dedupe and
// predicate filtering — and no document-order sort of the result.
// Index-assisted evaluation uses it to resolve the steps that follow an
// indexed predicate step.
func EvalSteps(steps []Step, ctx []*xmltree.Node) []*xmltree.Node {
	out, _ := evalSteps(steps, ctx, false, nil)
	return out
}

// evalSteps is the one step loop behind Eval and EvalSteps. ordered says ctx
// is in document order with no node inside another's subtree; the second
// result says whether the returned set is in document order. sum, the
// document's label-path summary when non-nil, prunes the descendant walks.
func evalSteps(steps []Step, ctx []*xmltree.Node, ordered bool, sum *Summary) ([]*xmltree.Node, bool) {
	flat := ordered // no node of ctx is an ancestor of another
	for _, step := range steps {
		// A leading [k] counts over the whole step's sequence, so the step
		// can end at its k-th match and keep that node alone.
		preds, k := step.Preds, 0
		if len(preds) > 0 && preds[0].Kind == PredPosition {
			preds, k = preds[1:], preds[0].Position
		}
		var next []*xmltree.Node
		switch {
		case step.Axis == Child:
			// Every node has one parent, so children of distinct contexts
			// are distinct; they stay in order only if the contexts'
			// subtrees are disjoint.
			n := 0
		scan:
			for _, c := range ctx {
				for _, child := range c.Children {
					if !nameMatches(step.Name, child.Name) {
						continue
					}
					if n++; k == 0 {
						next = append(next, child)
					} else if n == k {
						next = []*xmltree.Node{child}
						break scan
					}
				}
			}
			ordered = ordered && flat
		case ordered:
			// '//name' from context c is exactly the descendants of c with a
			// matching name. A context inside the last expanded one would
			// only repeat nodes already emitted, in the same order, so the
			// expanded subtrees are disjoint and the result nests only where
			// the walk finds a match below a match.
			d := descent{name: step.Name, limit: k}
			var last *xmltree.Node
			for _, c := range ctx {
				if !flat && last != nil && isAncestor(last, c) {
					continue
				}
				last = c
				if d.walk(c, sum.at(c), false) {
					break
				}
			}
			next, flat = d.out, !d.nested
			if k > 0 {
				next, flat = next[min(k-1, len(next)):], true
			}
		default:
			// This walk does not stop early; every predicate filters it.
			d := descent{name: step.Name, seen: make(map[*xmltree.Node]bool)}
			for _, c := range ctx {
				d.walk(c, sum.at(c), false)
			}
			next, preds = d.out, step.Preds
		}
		ctx = applyPreds(preds, next)
		if len(ctx) == 0 {
			return nil, true
		}
	}
	return ctx, ordered
}

// descent collects, in document order, the descendants of the nodes it
// walks whose name matches name.
type descent struct {
	name   string
	out    []*xmltree.Node
	seen   map[*xmltree.Node]bool // drops nodes reached before; nil when walks cannot overlap
	nested bool                   // some collected node lies below another
	limit  int                    // stop once this many are collected; 0 for no limit
}

// walk visits the nodes strictly below n, whose summary path is at (nil
// when unknown), except below a child whose path has no element named name
// below it; under says n is itself collected or lies below a collected node.
// It reports whether the limit was reached, at which point it stops.
func (d *descent) walk(n *xmltree.Node, at *Summary, under bool) bool {
	for _, c := range n.Children {
		match := nameMatches(d.name, c.Name) && !d.seen[c]
		if match {
			if d.seen != nil {
				d.seen[c] = true
			}
			d.out = append(d.out, c)
			d.nested = d.nested || under
			if len(d.out) == d.limit {
				return true
			}
		}
		if cs := at.child(c.Name); cs == nil || cs.Below[d.name] || d.name == "*" {
			if d.walk(c, cs, under || match) {
				return true
			}
		}
	}
	return false
}

// isAncestor reports whether a is a proper ancestor of n.
func isAncestor(a, n *xmltree.Node) bool {
	for p := n.Parent; p != nil; p = p.Parent {
		if p == a {
			return true
		}
	}
	return false
}

// EvalStrings evaluates q and renders each match as a string: the attribute
// value for attribute queries, otherwise the node's text content.
func EvalStrings(q *Query, doc *xmltree.Document) []string {
	return RenderStrings(q, Eval(q, doc))
}

// RenderStrings renders nodes already selected for q the way EvalStrings
// would: the attribute value for attribute queries, otherwise node text.
// Index-assisted evaluation paths use it to produce scan-identical output.
func RenderStrings(q *Query, nodes []*xmltree.Node) []string {
	out := make([]string, 0, len(nodes))
	for _, n := range nodes {
		if q.Attr != "" {
			v, _ := n.Attr(q.Attr)
			out = append(out, v)
		} else {
			out = append(out, n.Text)
		}
	}
	return out
}

func nameMatches(test, name string) bool {
	return test == "*" || test == name
}

func applyPreds(preds []Pred, nodes []*xmltree.Node) []*xmltree.Node {
	for _, p := range preds {
		// Filter in place: the write index never passes the read index, and
		// a positional predicate counts over the unfiltered sequence.
		kept := nodes[:0]
		for i, n := range nodes {
			if p.Match(n, i) {
				kept = append(kept, n)
			}
		}
		nodes = kept
		if len(nodes) == 0 {
			return nil
		}
	}
	return nodes
}

// Match reports whether n at 1-based position idx+1 within its filtered
// context satisfies the predicate. Position predicates depend on idx; the
// value predicates ignore it, which lets index-assisted evaluation apply
// them as residual filters over candidate sets in any order.
func (p Pred) Match(n *xmltree.Node, idx int) bool {
	switch p.Kind {
	case PredPosition:
		return idx+1 == p.Position
	case PredAttr:
		v, ok := n.Attr(p.Name)
		if !ok {
			return false
		}
		return Compare(p.Op, v, p.Value)
	case PredText:
		return Compare(p.Op, n.Text, p.Value)
	case PredChild:
		for _, c := range n.Children {
			if c.Name == p.Name && Compare(p.Op, c.Text, p.Value) {
				return true
			}
		}
		// For !=, XPath existential semantics: true if some child named Name
		// has a different value. The loop above already implements that.
		return false
	default:
		return false
	}
}

// Compare applies a predicate comparison operator. Equality is exact string
// comparison; the ordered operators go through the CompareValues total order
// so scans and index range lookups agree on every input.
func Compare(op CmpOp, a, b string) bool {
	switch op {
	case Eq:
		return a == b
	case Neq:
		return a != b
	case Lt:
		return CompareValues(a, b) < 0
	case Le:
		return CompareValues(a, b) <= 0
	case Gt:
		return CompareValues(a, b) > 0
	case Ge:
		return CompareValues(a, b) >= 0
	}
	return false
}

// CompareValues is the total order behind the ordered predicate operators
// and the vindex sorted-key slices: values that parse as (finite) numbers
// compare numerically and sort before non-numeric values; numeric ties and
// non-numeric values fall back to byte-wise comparison so distinct strings
// never compare equal.
func CompareValues(a, b string) int {
	fa, ea := strconv.ParseFloat(a, 64)
	fb, eb := strconv.ParseFloat(b, 64)
	aNum := ea == nil && !math.IsNaN(fa)
	bNum := eb == nil && !math.IsNaN(fb)
	switch {
	case aNum && bNum:
		if fa < fb {
			return -1
		}
		if fa > fb {
			return 1
		}
	case aNum:
		return -1
	case bNum:
		return 1
	}
	return strings.Compare(a, b)
}

// SortDocOrder returns nodes of one document in document order (ancestors
// before descendants, siblings by position). Eval needs it only when a step
// ran over nested contexts; index-assisted evaluation needs it for posting
// candidates. Each node's key is its path of child positions from the root,
// computed once: the cost is O(k·depth) plus one scan of the children of
// every distinct ancestor of the nodes — no document walk.
func SortDocOrder(nodes []*xmltree.Node) []*xmltree.Node {
	if len(nodes) <= 1 {
		return nodes
	}
	pos := make(map[*xmltree.Node]int32) // child position, filled a parent at a time
	type keyed struct {
		n   *xmltree.Node
		key []int32
	}
	ks := make([]keyed, len(nodes))
	for i, n := range nodes {
		var key []int32
		for c := n; c.Parent != nil; c = c.Parent {
			p, ok := pos[c]
			if !ok {
				for j, s := range c.Parent.Children {
					pos[s] = int32(j)
				}
				p = pos[c]
			}
			key = append(key, p)
		}
		slices.Reverse(key)
		ks[i] = keyed{n, key}
	}
	slices.SortFunc(ks, func(a, b keyed) int { return slices.Compare(a.key, b.key) })
	out := make([]*xmltree.Node, len(ks))
	for i, k := range ks {
		out[i] = k.n
	}
	return out
}
