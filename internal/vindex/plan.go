package vindex

import (
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Plan describes how a query's predicate evaluation can be served from a
// value index: one anchor predicate resolved by posting lookup, the rest of
// the anchor step's predicates applied as residual filters, and any steps
// after the anchor step evaluated from the (small) candidate set.
type Plan struct {
	Anchor     xpath.Pred   // the indexed predicate
	Key        string       // "@name" for PredAttr, element label otherwise
	Child      bool         // anchor is a [child = v] predicate: candidates are parents of the posting nodes
	AnchorStep int          // index of the step carrying the predicates
	Residual   []xpath.Pred // remaining anchor-step predicates, applied per candidate
	Suffix     []xpath.Step // predicate-free steps after the anchor step
}

// PlanQuery decides whether q has an index-eligible shape and picks the
// anchor predicate. Eligible queries carry predicates on exactly one step —
// none positional (candidate sets lose the sibling ordering position
// predicates count over) — with at least one equality/ordered comparison
// over an attribute, the step's own text, or a child element. Steps after
// the predicate step are evaluated from the candidate set, so a trailing
// selection like //person[id='7']/emailaddress stays indexable. Whether the
// chosen key is actually indexed is the caller's check.
func PlanQuery(q *xpath.Query) (Plan, bool) {
	predStep := -1
	for i, st := range q.Steps {
		if len(st.Preds) == 0 {
			continue
		}
		if predStep >= 0 {
			return Plan{}, false // predicates on two steps: no single anchor
		}
		predStep = i
	}
	if predStep < 0 {
		return Plan{}, false
	}
	anchor := q.Steps[predStep]
	for _, p := range anchor.Preds {
		if p.Kind == xpath.PredPosition {
			return Plan{}, false
		}
	}
	anchorIdx := -1
	var plan Plan
	for i, p := range anchor.Preds {
		if p.Op != xpath.Eq && !p.Op.Ordered() {
			continue // != enumerates almost everything; never an anchor
		}
		switch p.Kind {
		case xpath.PredAttr:
			plan = Plan{Anchor: p, Key: "@" + p.Name}
		case xpath.PredText:
			if anchor.Name == "*" {
				continue // text keys are per element label
			}
			plan = Plan{Anchor: p, Key: anchor.Name}
		case xpath.PredChild:
			plan = Plan{Anchor: p, Key: p.Name, Child: true}
		default:
			continue
		}
		anchorIdx = i
		break
	}
	if anchorIdx < 0 {
		return Plan{}, false
	}
	plan.AnchorStep = predStep
	plan.Suffix = q.Steps[predStep+1:]
	for i, p := range anchor.Preds {
		if i != anchorIdx {
			plan.Residual = append(plan.Residual, p)
		}
	}
	return plan, true
}

// Finish turns raw posting candidates into the exact node set xpath.Eval
// would return for q: dedupe, residual predicate filters, evaluation of the
// steps after the anchor step, the trailing attribute selection, and a
// document-order sort.
func Finish(q *xpath.Query, plan Plan, candidates []*xmltree.Node) []*xmltree.Node {
	var anchored []*xmltree.Node
	seen := make(map[xmltree.NodeID]bool, len(candidates))
	for _, n := range candidates {
		if n == nil || seen[n.ID] {
			continue
		}
		seen[n.ID] = true
		keep := true
		for _, p := range plan.Residual {
			// Residual predicates are never positional, so idx is unused.
			if !p.Match(n, 0) {
				keep = false
				break
			}
		}
		if keep {
			anchored = append(anchored, n)
		}
	}
	out := anchored
	if len(plan.Suffix) > 0 {
		out = xpath.EvalSteps(plan.Suffix, out)
	}
	if q.Attr != "" {
		kept := make([]*xmltree.Node, 0, len(out))
		for _, n := range out {
			if _, ok := n.Attr(q.Attr); ok {
				kept = append(kept, n)
			}
		}
		out = kept
	}
	return xpath.SortDocOrder(out)
}
