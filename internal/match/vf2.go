package match

import (
	"sort"

	"boundedg/internal/graph"
	"boundedg/internal/pattern"
)

// SubgraphOptions bounds a subgraph-isomorphism run. The zero value means
// "enumerate everything with no budget" — fine for bounded subgraphs GQ,
// dangerous on big graphs (which is the paper's point).
type SubgraphOptions struct {
	// MaxMatches stops the search after this many matches (0 = unlimited).
	MaxMatches int
	// MaxSteps aborts the search after this many search-tree node visits
	// (0 = unlimited). An aborted run has Completed == false, mirroring
	// the paper's "could not run to completion within 40000s".
	MaxSteps int
	// StoreMatches keeps the actual mappings (up to MaxMatches); when
	// false only Count is maintained.
	StoreMatches bool
}

// SubgraphResult is the outcome of a subgraph-isomorphism run.
type SubgraphResult struct {
	// Matches holds mappings indexed by pattern node: Matches[k][u] is the
	// data node matched to pattern node u in the k-th match. Populated
	// only when SubgraphOptions.StoreMatches is set.
	Matches [][]graph.NodeID
	// Count is the number of matches found (all of Q(G) if Completed).
	Count int
	// Completed reports whether the search exhausted the space.
	Completed bool
	// Steps counts search-tree node visits.
	Steps int
}

// VF2 enumerates Q(G) under subgraph isomorphism: injective mappings h
// from pattern nodes to data nodes such that every pattern edge (u, u')
// maps to a data edge (h(u), h(u')), with label and predicate checks. It
// is the conventional baseline of the paper (their prototype used Boost's
// VF2); this is a from-scratch implementation with the usual pruning:
// connectivity-driven search order, adjacency-restricted candidates, and
// degree filters.
func VF2(q *pattern.Pattern, g *graph.Graph, opt SubgraphOptions) *SubgraphResult {
	return vf2(q, g, nil, opt)
}

// vf2 runs the backtracking search with optional pre-restricted candidate
// sets (cands[u] == nil means unrestricted; used by OptVF2 and bounded
// evaluation).
func vf2(q *pattern.Pattern, g *graph.Graph, cands [][]graph.NodeID, opt SubgraphOptions) *SubgraphResult {
	return vf2On(q, adjacency{g: g}, cands, opt)
}

func vf2On(q *pattern.Pattern, a adjacency, cands [][]graph.NodeID, opt SubgraphOptions) *SubgraphResult {
	n := q.NumNodes()
	res := &SubgraphResult{Completed: true}
	if n == 0 {
		return res
	}
	outSlots, inSlots := a.slots(q)

	// Candidate universe per pattern node (label + predicate filtered).
	universe := make([][]graph.NodeID, n)
	for ui := 0; ui < n; ui++ {
		u := pattern.Node(ui)
		for _, v := range a.sources(q, u, cands) {
			if a.admits(q, u, v, outSlots[ui], inSlots[ui]) {
				universe[ui] = append(universe[ui], v)
			}
		}
		if len(universe[ui]) == 0 {
			return res // some pattern node cannot match at all
		}
	}

	order := searchOrder(q, universe)

	mapped := make([]graph.NodeID, n) // pattern node -> data node
	for i := range mapped {
		mapped[i] = graph.InvalidNode
	}
	used := graph.NewDenseSet(a.cap())

	// feasible checks edge consistency of v (candidate for u) against all
	// already-mapped neighbors of u.
	feasible := func(u pattern.Node, v graph.NodeID) bool {
		for i, uc := range q.Out(u) {
			if w := mapped[uc]; w != graph.InvalidNode && !a.hasEdge(outSlots[u][i], v, w) {
				return false
			}
		}
		for i, up := range q.In(u) {
			if w := mapped[up]; w != graph.InvalidNode && !a.hasEdge(inSlots[u][i], w, v) {
				return false
			}
		}
		return true
	}

	var rec func(depth int) bool // returns false to abort the whole search
	rec = func(depth int) bool {
		res.Steps++
		if opt.MaxSteps > 0 && res.Steps > opt.MaxSteps {
			res.Completed = false
			return false
		}
		if depth == n {
			res.Count++
			if opt.StoreMatches && (opt.MaxMatches == 0 || len(res.Matches) < opt.MaxMatches) {
				res.Matches = append(res.Matches, append([]graph.NodeID(nil), mapped...))
			}
			if opt.MaxMatches > 0 && res.Count >= opt.MaxMatches {
				res.Completed = false
				return false
			}
			return true
		}
		u := order[depth]

		// Restrict candidates via an already-mapped neighbor when one
		// exists: candidates must be adjacent (right direction) to its
		// image, typically a much smaller set than the universe.
		if i, parent := mappedNeighbor(q, mapped, u); i >= 0 {
			var pool []graph.NodeID
			if parent {
				pool = a.out(inSlots[u][i], mapped[q.In(u)[i]]) // edge (up, u)
			} else {
				pool = a.in(outSlots[u][i], mapped[q.Out(u)[i]]) // edge (u, uc)
			}
			for _, v := range pool {
				if !a.node(q, u, v) {
					continue
				}
				if used.Has(v) {
					continue
				}
				if !feasible(u, v) {
					continue
				}
				mapped[u] = v
				used.Add(v)
				ok := rec(depth + 1)
				used.Remove(v)
				mapped[u] = graph.InvalidNode
				if !ok {
					return false
				}
			}
			return true
		}
		for _, v := range universe[u] {
			if used.Has(v) {
				continue
			}
			if !feasible(u, v) {
				continue
			}
			mapped[u] = v
			used.Add(v)
			ok := rec(depth + 1)
			used.Remove(v)
			mapped[u] = graph.InvalidNode
			if !ok {
				return false
			}
		}
		return true
	}
	rec(0)
	return res
}

// mappedNeighbor finds a neighbor of u already mapped, preferring parents
// (edge into u, so candidates come from the image's out-run). It returns
// the neighbor's position in q.In(u) when parent is true, in q.Out(u)
// otherwise, and -1 when no neighbor is mapped.
func mappedNeighbor(q *pattern.Pattern, mapped []graph.NodeID, u pattern.Node) (i int, parent bool) {
	for i, up := range q.In(u) {
		if mapped[up] != graph.InvalidNode {
			return i, true
		}
	}
	for i, uc := range q.Out(u) {
		if mapped[uc] != graph.InvalidNode {
			return i, false
		}
	}
	return -1, false
}

// searchOrder picks a connectivity-first order: start from the node with
// the smallest candidate universe, then repeatedly take the unvisited node
// adjacent to the chosen prefix with the smallest universe; disconnected
// components are started the same way.
func searchOrder(q *pattern.Pattern, universe [][]graph.NodeID) []pattern.Node {
	n := q.NumNodes()
	order := make([]pattern.Node, 0, n)
	visited := make([]bool, n)
	frontier := make(map[pattern.Node]struct{})

	pickMin := func(from map[pattern.Node]struct{}) pattern.Node {
		best := pattern.Node(-1)
		for u := range from {
			if best == -1 || len(universe[u]) < len(universe[best]) ||
				(len(universe[u]) == len(universe[best]) && u < best) {
				best = u
			}
		}
		return best
	}

	for len(order) < n {
		var u pattern.Node
		if len(frontier) == 0 {
			// New component: cheapest unvisited node overall.
			all := make(map[pattern.Node]struct{})
			for i := 0; i < n; i++ {
				if !visited[i] {
					all[pattern.Node(i)] = struct{}{}
				}
			}
			u = pickMin(all)
		} else {
			u = pickMin(frontier)
			delete(frontier, u)
		}
		visited[u] = true
		order = append(order, u)
		for _, w := range q.Neighbors(u) {
			if !visited[w] {
				frontier[w] = struct{}{}
			}
		}
	}
	return order
}

// SortMatches orders stored matches lexicographically, for deterministic
// comparison in tests.
func SortMatches(ms [][]graph.NodeID) {
	sort.Slice(ms, func(i, j int) bool {
		a, b := ms[i], ms[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}
