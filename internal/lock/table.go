package lock

import (
	"fmt"
	"sort"

	"repro/internal/dataguide"
	"repro/internal/txn"
	"repro/internal/xmltree"
)

// Request asks for one mode on one node. XDGL's hierarchical modes lock
// DataGuide nodes (Node); the baseline tree protocols lock document nodes
// directly (DocNode) — that distinction is the paper's central overhead
// argument: DataGuide lock counts are bounded by the structural summary,
// document-node lock counts grow with the document.
type Request struct {
	Node    *dataguide.Node
	DocNode *xmltree.Node
	Mode    Mode
	// Guard optionally restricts the lock to a predicate-selected instance
	// subset of the class; locks with provably disjoint guards coexist.
	Guard *Guard
}

// Key identifies the lock target of a request. Exactly one of the node
// fields is set.
func (r Request) key() grantKey {
	if r.DocNode != nil {
		return grantKey{doc: r.DocNode.ID}
	}
	return grantKey{dg: r.Node.ID}
}

// Path renders the lock target for diagnostics and history recording.
// Document-node targets are disambiguated by node ID: two document nodes
// can share a label path without sharing a lock.
func (r Request) Path() string {
	if r.DocNode != nil {
		return fmt.Sprintf("%s@%d", r.DocNode.LabelPath(), r.DocNode.ID)
	}
	return r.Node.Path()
}

// grantKey is the composite lock-target key.
type grantKey struct {
	dg  dataguide.NodeID
	doc xmltree.NodeID
}

// Owner identifies who is acquiring locks: the transaction, its logical
// start timestamp (carried so conflicting sites can build wait-for edges
// with victim-selection information), and the index of the operation within
// the transaction. Operation tagging makes it possible to release only the
// locks of an operation that was undone because it could not execute at
// every participant site (Algorithm 1, l. 16).
type Owner struct {
	Txn txn.ID
	TS  txn.TS
	Op  int
}

// Conflict reports a transaction that holds an incompatible lock.
type Conflict struct {
	Txn txn.ID
	TS  txn.TS
}

type grant struct {
	txn   txn.ID
	ts    txn.TS
	op    int
	mode  Mode
	guard *Guard
}

// Table is the lock table of one document at one site. Grants attach to
// DataGuide nodes. Not safe for concurrent use; the scheduler serialises
// access under its site mutex, which matches the paper's design where the
// lock manager is a passive component driven by the scheduler.
type Table struct {
	grants map[grantKey][]grant
	// held tracks, per transaction, the set of (node, mode) pairs already
	// granted so duplicate requests are absorbed quickly.
	held map[txn.ID]map[grantKey]uint16
}

// NewTable creates an empty lock table over the document's DataGuide; its
// grants key on the guide's nodes, so the table keeps no reference to it.
func NewTable(_ *dataguide.DataGuide) *Table {
	return &Table{
		grants: make(map[grantKey][]grant),
		held:   make(map[txn.ID]map[grantKey]uint16),
	}
}

func modeBit(m Mode) uint16 { return 1 << uint(m) }

func (t *Table) holds(id txn.ID, key grantKey, m Mode) bool {
	return t.held[id][key]&modeBit(m) != 0
}

// conflictsAt collects holders on one lock target that are incompatible
// with a request for mode m under guard g by requester. Incompatible modes
// still coexist when both sides carry provably disjoint predicate guards —
// the DGLOCK/XDGL refinement.
func (t *Table) conflictsAt(key grantKey, requester txn.ID, m Mode, g *Guard, out map[txn.ID]txn.TS) {
	for _, gr := range t.grants[key] {
		if gr.txn == requester {
			continue
		}
		if !Compatible(gr.mode, m) && !gr.guard.Disjoint(g) {
			out[gr.txn] = gr.ts
		}
	}
}

// conflictsFor computes the conflict set for a single request. All checks
// are local to the lock target: XDGL's intention locks make cross-level
// conflicts surface at the node itself, and the baseline tree protocols
// lock full root-to-node paths, so overlapping accesses always share a
// node. The cost asymmetry between the protocols is in the *number* of
// requests, not the per-request check.
func (t *Table) conflictsFor(requester txn.ID, req Request, out map[txn.ID]txn.TS) {
	t.conflictsAt(req.key(), requester, req.Mode, req.Guard, out)
}

// Acquire attempts to grant every request to the owner atomically. If any
// request conflicts, nothing is granted and the full set of conflicting
// transactions is returned, so the scheduler can add wait-for edges for all
// of them at once. Duplicate requests and requests already held by the
// owner are absorbed.
func (t *Table) Acquire(owner Owner, reqs []Request) []Conflict {
	conflicts := make(map[txn.ID]txn.TS)
	// First pass: conflict check only.
	seen := make(map[grantKey]uint16, len(reqs))
	var todo []Request
	for _, req := range reqs {
		if req.Node == nil && req.DocNode == nil {
			continue
		}
		key := req.key()
		// Absorption: an unguarded held lock of the same mode covers any
		// re-request; guarded grants are conservatively re-acquired (the
		// bitmask only records unguarded holds).
		if req.Guard == nil && t.holds(owner.Txn, key, req.Mode) {
			continue
		}
		if req.Guard == nil {
			if seen[key]&modeBit(req.Mode) != 0 {
				continue
			}
			seen[key] |= modeBit(req.Mode)
		}
		todo = append(todo, req)
		t.conflictsFor(owner.Txn, req, conflicts)
	}
	if len(conflicts) > 0 {
		out := make([]Conflict, 0, len(conflicts))
		for id, ts := range conflicts {
			out = append(out, Conflict{Txn: id, TS: ts})
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Txn.Less(out[j].Txn) })
		return out
	}
	// Second pass: grant.
	for _, req := range todo {
		key := req.key()
		t.grants[key] = append(t.grants[key], grant{
			txn: owner.Txn, ts: owner.TS, op: owner.Op, mode: req.Mode, guard: req.Guard,
		})
		hm := t.held[owner.Txn]
		if hm == nil {
			hm = make(map[grantKey]uint16)
			t.held[owner.Txn] = hm
		}
		if req.Guard == nil {
			hm[key] |= modeBit(req.Mode)
		} else if _, ok := hm[key]; !ok {
			hm[key] = 0 // track the key for release bookkeeping
		}
	}
	return nil
}

// ReleaseOp releases the locks the transaction acquired for one operation.
// Locks the same transaction acquired for earlier operations stay, honouring
// strict 2PL for everything that logically executed.
func (t *Table) ReleaseOp(id txn.ID, op int) int {
	released := 0
	hm := t.held[id]
	for node := range hm {
		gs := t.grants[node]
		kept := gs[:0]
		var remaining uint16
		for _, gr := range gs {
			if gr.txn == id && gr.op == op {
				released++
				continue
			}
			kept = append(kept, gr)
			if gr.txn == id {
				remaining |= modeBit(gr.mode)
			}
		}
		if len(kept) == 0 {
			delete(t.grants, node)
		} else {
			t.grants[node] = kept
		}
		if remaining == 0 {
			delete(hm, node)
		} else {
			hm[node] = remaining
		}
	}
	if len(hm) == 0 {
		delete(t.held, id)
	}
	return released
}

// ReleaseAll releases every lock of the transaction — the strict-2PL release
// at commit or abort. Returns the number of grants released.
func (t *Table) ReleaseAll(id txn.ID) int {
	released := 0
	for node := range t.held[id] {
		gs := t.grants[node]
		kept := gs[:0]
		for _, gr := range gs {
			if gr.txn == id {
				released++
				continue
			}
			kept = append(kept, gr)
		}
		if len(kept) == 0 {
			delete(t.grants, node)
		} else {
			t.grants[node] = kept
		}
	}
	delete(t.held, id)
	return released
}

// HeldBy returns the number of grants currently held by the transaction.
func (t *Table) HeldBy(id txn.ID) int {
	n := 0
	for node := range t.held[id] {
		for _, gr := range t.grants[node] {
			if gr.txn == id {
				n++
			}
		}
	}
	return n
}

// Holders returns the distinct transactions holding any lock on the node.
func (t *Table) Holders(node *dataguide.Node) []txn.ID {
	set := map[txn.ID]bool{}
	for _, gr := range t.grants[grantKey{dg: node.ID}] {
		set[gr.txn] = true
	}
	out := make([]txn.ID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Modes returns the modes the transaction holds on the node.
func (t *Table) Modes(id txn.ID, node *dataguide.Node) []Mode {
	var out []Mode
	bits := t.held[id][grantKey{dg: node.ID}]
	for m := Mode(0); int(m) < numModes; m++ {
		if bits&modeBit(m) != 0 {
			out = append(out, m)
		}
	}
	return out
}

// GrantCount returns the total number of grants in the table.
func (t *Table) GrantCount() int {
	n := 0
	for _, gs := range t.grants {
		n += len(gs)
	}
	return n
}

// ActiveTxns returns the transactions holding at least one lock.
func (t *Table) ActiveTxns() []txn.ID {
	out := make([]txn.ID, 0, len(t.held))
	for id := range t.held {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}
