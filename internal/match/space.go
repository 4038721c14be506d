package match

import (
	"fmt"
	"slices"

	"boundedg/internal/graph"
	"boundedg/internal/pattern"
)

// Space is a candidate space over a fetched subgraph's nodes 0..N-1, the
// structure DAF (Han et al., SIGMOD 2019) and CECI (Bhattarai et al.,
// SIGMOD 2019) match on: the candidates of every pattern node, and for
// every pattern edge and every candidate of one endpoint, the run of the
// other endpoint's candidates joined to it by a data edge in the edge's
// direction. The matchers read a pool of candidates as one run and test an
// edge as membership in one, so no subgraph needs to be materialized.
//
// Slot e holds the runs of pattern edge Edges[e] = (from, to) as two CSRs
// of N+1 offsets into Adj: Off[2e(N+1):] maps a candidate of from to its
// out-neighbours among to's candidates, Off[(2e+1)(N+1):] a candidate of
// to to its in-neighbours among from's candidates. Every pattern edge has
// exactly one slot. A run holds no duplicates and lists its nodes in the
// order of the candidates of the pattern node they are candidates of.
type Space struct {
	// N is the number of nodes.
	N int
	// Cands[u] lists the candidates of pattern node u. Every candidate
	// already carries u's label and satisfies u's predicate.
	Cands [][]graph.NodeID
	// Edges[e] is the pattern edge whose runs slot e holds.
	Edges [][2]pattern.Node
	// Off and Adj are the runs; see the type's comment.
	Off []int32
	Adj []graph.NodeID
}

// Run returns the run of slot e at node v: its out-neighbours through
// Edges[e] when d is 0, its in-neighbours when d is 1.
func (s *Space) Run(e, d int, v graph.NodeID) []graph.NodeID {
	i := (2*e+d)*(s.N+1) + int(v)
	return s.Adj[s.Off[i]:s.Off[i+1]]
}

// slot returns the slot of pattern edge (from, to).
func (s *Space) slot(from, to pattern.Node) int {
	for e, pe := range s.Edges {
		if pe == [2]pattern.Node{from, to} {
			return e
		}
	}
	panic(fmt.Sprintf("match: candidate space has no slot for pattern edge (%d, %d)", from, to))
}

// adjacency routes the matchers' edge reads to a live Graph, to a frozen
// CSR snapshot of it (sorted adjacency, binary-search HasEdge), or to a
// candidate space. Over a graph the rows of a node do not depend on the
// pattern edge being matched; over a space they do, so every read names
// the edge's slot (see slots). The representation changes neighbor
// iteration order — and therefore match enumeration order — but never
// the result set.
type adjacency struct {
	g  *graph.Graph
	fz *graph.Frozen
	sp *Space
}

// out returns the out-neighbours of v that may match the head of the
// pattern edge in slot e.
func (a adjacency) out(e int, v graph.NodeID) []graph.NodeID {
	switch {
	case a.sp != nil:
		return a.sp.Run(e, 0, v)
	case a.fz != nil:
		return a.fz.Out(v)
	}
	return a.g.Out(v)
}

// in returns the in-neighbours of v that may match the tail of the
// pattern edge in slot e.
func (a adjacency) in(e int, v graph.NodeID) []graph.NodeID {
	switch {
	case a.sp != nil:
		return a.sp.Run(e, 1, v)
	case a.fz != nil:
		return a.fz.In(v)
	}
	return a.g.In(v)
}

// hasEdge reports whether from and to are joined through the pattern edge
// in slot e. In a space it scans the shorter of from's out-run and to's
// in-run: a run from the fixed endpoint of the edge's check is a subset
// of one index entry, so it is no longer than the constraint's bound.
func (a adjacency) hasEdge(e int, from, to graph.NodeID) bool {
	switch {
	case a.sp != nil:
		out, in := a.sp.Run(e, 0, from), a.sp.Run(e, 1, to)
		if len(in) < len(out) {
			return slices.Contains(in, from)
		}
		return slices.Contains(out, to)
	case a.fz != nil:
		return a.fz.HasEdge(from, to)
	}
	return a.g.HasEdge(from, to)
}

// node reports whether v passes u's label and predicate test. A space's
// candidates have passed it already.
func (a adjacency) node(q *pattern.Pattern, u pattern.Node, v graph.NodeID) bool {
	return a.sp != nil || q.MatchesNode(u, a.g, v)
}

// cap returns the size of the node ID space.
func (a adjacency) cap() int {
	if a.sp != nil {
		return a.sp.N
	}
	return a.g.Cap()
}

// sources returns u's initial candidates: cands[u] when given, else the
// space's candidates, else every node with u's label.
func (a adjacency) sources(q *pattern.Pattern, u pattern.Node, cands [][]graph.NodeID) []graph.NodeID {
	switch {
	case cands != nil && cands[u] != nil:
		return cands[u]
	case a.sp != nil:
		return a.sp.Cands[u]
	}
	return a.g.NodesByLabel(q.LabelOf(u))
}

// slot returns the slot of pattern edge (from, to); over a graph every
// edge reads the same rows, so it is 0.
func (a adjacency) slot(from, to pattern.Node) int {
	if a.sp == nil {
		return 0
	}
	return a.sp.slot(from, to)
}

// slots returns, per pattern node u, the slots of its edges to children
// (aligned with q.Out(u)) and from parents (aligned with q.In(u)).
func (a adjacency) slots(q *pattern.Pattern) (out, in [][]int) {
	n := q.NumNodes()
	out, in = make([][]int, n), make([][]int, n)
	flat := make([]int, 2*q.NumEdges())
	for ui := range n {
		u := pattern.Node(ui)
		out[ui], flat = flat[:len(q.Out(u)):len(q.Out(u))], flat[len(q.Out(u)):]
		in[ui], flat = flat[:len(q.In(u)):len(q.In(u))], flat[len(q.In(u)):]
		for i, uc := range q.Out(u) {
			out[ui][i] = a.slot(u, uc)
		}
		for i, up := range q.In(u) {
			in[ui][i] = a.slot(up, u)
		}
	}
	return out, in
}

// admits reports whether v may match u before any neighbour of u is
// mapped. On a graph v must pass u's node test and have at least u's out-
// and in-degree; in a space v must have a non-empty run across every edge
// of u.
func (a adjacency) admits(q *pattern.Pattern, u pattern.Node, v graph.NodeID, outSlots, inSlots []int) bool {
	if a.sp == nil {
		return q.MatchesNode(u, a.g, v) && len(a.out(0, v)) >= len(outSlots) && len(a.in(0, v)) >= len(inSlots)
	}
	for _, e := range outSlots {
		if len(a.sp.Run(e, 0, v)) == 0 {
			return false
		}
	}
	for _, e := range inSlots {
		if len(a.sp.Run(e, 1, v)) == 0 {
			return false
		}
	}
	return true
}
