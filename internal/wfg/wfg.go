// Package wfg implements the wait-for graph used by DTX for deadlock
// handling. Each site maintains a local graph (edges added by the lock
// manager when an operation blocks, Algorithm 3); a periodic process unions
// the graphs of all sites and checks the union for a circle (Algorithm 4).
// If a circle is found, the most recently started transaction in it is the
// victim.
package wfg

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/txn"
)

// Edge is one wait-for relation: Waiter waits for a lock held by Holder.
// Timestamps ride along so a union of snapshots can pick the newest victim
// without a separate directory of transactions.
type Edge struct {
	Waiter   txn.ID
	Holder   txn.ID
	WaiterTS txn.TS
	HolderTS txn.TS
}

// Graph is a mutable wait-for graph. Not safe for concurrent use; callers
// synchronise (the scheduler holds its site mutex).
type Graph struct {
	out map[txn.ID]map[txn.ID]bool
	in  map[txn.ID]map[txn.ID]bool
	ts  map[txn.ID]txn.TS
}

// New creates an empty graph.
func New() *Graph {
	return &Graph{
		out: make(map[txn.ID]map[txn.ID]bool),
		in:  make(map[txn.ID]map[txn.ID]bool),
		ts:  make(map[txn.ID]txn.TS),
	}
}

// AddEdge records that waiter waits for holder. Self-edges are ignored.
func (g *Graph) AddEdge(waiter txn.ID, waiterTS txn.TS, holder txn.ID, holderTS txn.TS) {
	if waiter == holder {
		return
	}
	if g.out[waiter] == nil {
		g.out[waiter] = make(map[txn.ID]bool)
	}
	g.out[waiter][holder] = true
	if g.in[holder] == nil {
		g.in[holder] = make(map[txn.ID]bool)
	}
	g.in[holder][waiter] = true
	g.ts[waiter] = waiterTS
	g.ts[holder] = holderTS
}

// RemoveEdge deletes one wait-for relation if present.
func (g *Graph) RemoveEdge(waiter, holder txn.ID) {
	delete(g.out[waiter], holder)
	if len(g.out[waiter]) == 0 {
		delete(g.out, waiter)
	}
	delete(g.in[holder], waiter)
	if len(g.in[holder]) == 0 {
		delete(g.in, holder)
	}
}

// ClearWaiter removes every outgoing edge of the waiter; called before a
// blocked operation retries so stale conflicts do not linger.
func (g *Graph) ClearWaiter(waiter txn.ID) {
	for holder := range g.out[waiter] {
		delete(g.in[holder], waiter)
		if len(g.in[holder]) == 0 {
			delete(g.in, holder)
		}
	}
	delete(g.out, waiter)
}

// RemoveTxn removes every edge incident to the transaction (it committed,
// aborted or failed).
func (g *Graph) RemoveTxn(id txn.ID) {
	g.ClearWaiter(id)
	for waiter := range g.in[id] {
		delete(g.out[waiter], id)
		if len(g.out[waiter]) == 0 {
			delete(g.out, waiter)
		}
	}
	delete(g.in, id)
	delete(g.ts, id)
}

// Waiters returns the transactions currently waiting on holder, in
// deterministic order.
func (g *Graph) Waiters(holder txn.ID) []txn.ID {
	var out []txn.ID
	for w := range g.in[holder] {
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Edges returns a snapshot of all edges, suitable for shipping to the site
// running distributed detection.
func (g *Graph) Edges() []Edge {
	var out []Edge
	for w, hs := range g.out {
		for h := range hs {
			out = append(out, Edge{Waiter: w, Holder: h, WaiterTS: g.ts[w], HolderTS: g.ts[h]})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Waiter != out[j].Waiter {
			return out[i].Waiter.Less(out[j].Waiter)
		}
		return out[i].Holder.Less(out[j].Holder)
	})
	return out
}

// Len returns the number of edges.
func (g *Graph) Len() int {
	n := 0
	for _, hs := range g.out {
		n += len(hs)
	}
	return n
}

// Union folds a snapshot of edges into the graph. Used by the distributed
// detector to merge the wait-for graphs of all sites (Algorithm 4, l. 5).
func (g *Graph) Union(edges []Edge) {
	for _, e := range edges {
		g.AddEdge(e.Waiter, e.WaiterTS, e.Holder, e.HolderTS)
	}
}

// FindCycle returns the transactions of one cycle in the graph, or nil if
// the graph is acyclic. The cycle is reported in edge order.
func (g *Graph) FindCycle() []txn.ID {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[txn.ID]int, len(g.out))
	parent := make(map[txn.ID]txn.ID)

	// Deterministic iteration: sort the start nodes.
	starts := make([]txn.ID, 0, len(g.out))
	for id := range g.out {
		starts = append(starts, id)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i].Less(starts[j]) })

	var cycle []txn.ID
	var dfs func(u txn.ID) bool
	dfs = func(u txn.ID) bool {
		color[u] = grey
		// Sort successors for determinism.
		succ := make([]txn.ID, 0, len(g.out[u]))
		for v := range g.out[u] {
			succ = append(succ, v)
		}
		sort.Slice(succ, func(i, j int) bool { return succ[i].Less(succ[j]) })
		for _, v := range succ {
			switch color[v] {
			case white:
				parent[v] = u
				if dfs(v) {
					return true
				}
			case grey:
				// Found a back edge u -> v: reconstruct the cycle v .. u.
				cycle = []txn.ID{v}
				for cur := u; cur != v; cur = parent[cur] {
					cycle = append(cycle, cur)
				}
				// Reverse so the cycle reads in edge order from v.
				for i, j := 1, len(cycle)-1; i < j; i, j = i+1, j-1 {
					cycle[i], cycle[j] = cycle[j], cycle[i]
				}
				return true
			}
		}
		color[u] = black
		return false
	}
	for _, s := range starts {
		if color[s] == white {
			if dfs(s) {
				return cycle
			}
		}
	}
	return nil
}

// HasCycle reports whether the graph contains any cycle.
func (g *Graph) HasCycle() bool { return g.FindCycle() != nil }

// CycleThrough returns a cycle that passes through start, or nil if none
// exists. Algorithm 3 needs this precision: adding a wait edge tags the
// *requesting* operation with a deadlock only if the new edge closes a
// circle through the requester — an unrelated pre-existing cycle belongs to
// the transaction that created it.
func (g *Graph) CycleThrough(start txn.ID) []txn.ID {
	// DFS from start; if start is reachable from one of its successors,
	// the path back is a cycle through start.
	parent := make(map[txn.ID]txn.ID)
	visited := map[txn.ID]bool{start: true}
	stack := []txn.ID{start}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		succ := make([]txn.ID, 0, len(g.out[u]))
		for v := range g.out[u] {
			succ = append(succ, v)
		}
		sort.Slice(succ, func(i, j int) bool { return succ[i].Less(succ[j]) })
		for _, v := range succ {
			if v == start {
				// Reconstruct start -> ... -> u -> start.
				var cycle []txn.ID
				for cur := u; cur != start; cur = parent[cur] {
					cycle = append(cycle, cur)
				}
				cycle = append(cycle, start)
				for i, j := 0, len(cycle)-1; i < j; i, j = i+1, j-1 {
					cycle[i], cycle[j] = cycle[j], cycle[i]
				}
				return cycle
			}
			if !visited[v] {
				visited[v] = true
				parent[v] = u
				stack = append(stack, v)
			}
		}
	}
	return nil
}

// NewestInCycle returns the most recently started transaction among the
// given cycle members — the deadlock victim per the XDGL rule. Timestamps
// come from the edges folded into the graph; ties break by ID so every site
// agrees.
func (g *Graph) NewestInCycle(cycle []txn.ID) txn.ID {
	if len(cycle) == 0 {
		return txn.Zero
	}
	victim := cycle[0]
	for _, id := range cycle[1:] {
		if txn.Newer(g.ts[id], id, g.ts[victim], victim) {
			victim = id
		}
	}
	return victim
}

// TS returns the timestamp recorded for a transaction (zero if unknown).
func (g *Graph) TS(id txn.ID) txn.TS { return g.ts[id] }

// String renders the edges, one per line.
func (g *Graph) String() string {
	var b strings.Builder
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, "%s -> %s\n", e.Waiter, e.Holder)
	}
	return b.String()
}
