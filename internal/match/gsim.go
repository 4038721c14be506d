// Package match implements the graph-pattern matching substrates of the
// reproduction: VF2-style subgraph isomorphism and graph simulation (the
// two semantics of §II of the paper), their index-optimized variants
// (optVF2, optgsim), and brute-force references used by property tests.
package match

import (
	"sort"

	"boundedg/internal/graph"
	"boundedg/internal/pattern"
)

// SimResult is the outcome of evaluating a simulation query: the unique
// maximum match relation R ⊆ VQ × V. If any pattern node has no match,
// the relation is empty (Matched is false and Sim holds empty sets).
type SimResult struct {
	// Sim[u] lists the data nodes v with (u, v) ∈ R, indexed by pattern
	// node.
	Sim [][]graph.NodeID
	// Matched reports whether every pattern node has at least one match.
	Matched bool
	// Steps counts candidate-set element removals plus initial inserts —
	// a machine-independent work measure.
	Steps int
}

// Pairs returns |R|, the total number of matched pairs.
func (r *SimResult) Pairs() int {
	if !r.Matched {
		return 0
	}
	t := 0
	for _, s := range r.Sim {
		t += len(s)
	}
	return t
}

// Has reports whether (u, v) is in the relation.
func (r *SimResult) Has(u pattern.Node, v graph.NodeID) bool {
	if !r.Matched || int(u) >= len(r.Sim) {
		return false
	}
	for _, w := range r.Sim[u] {
		if w == v {
			return true
		}
	}
	return false
}

// GSim computes the maximum graph simulation of q in g under the paper's
// semantics: (u, v) ∈ R requires label and predicate compatibility, and
// for every pattern edge (u, u') some data edge (v, v') with (u', v') ∈ R.
// The worklist refinement is the counter-based O(|EQ|·|E|) scheme in the
// style of Henzinger, Henzinger & Kopke (FOCS 1995), the algorithm the
// paper's gsim baseline uses. Like that baseline, and like the bounded
// evaluation it is compared against, it runs serially.
func GSim(q *pattern.Pattern, g *graph.Graph) *SimResult {
	return gsim(q, adjacency{g: g}, nil)
}

// gsim runs simulation over a with optional initial candidate sets (used
// by OptGSim and by bounded evaluation on GQ); initCands[u] == nil means
// the space's candidates of u, or all label-compatible nodes of a graph.
func gsim(q *pattern.Pattern, a adjacency, initCands [][]graph.NodeID) *SimResult {
	n := q.NumNodes()
	res := &SimResult{Sim: make([][]graph.NodeID, n)}
	idCap := a.cap()

	// Phase 1: filter sources by node compatibility. sim[u] as dense set
	// for O(1) membership; simList[u] keeps the (deduplicated) source
	// order for counter construction.
	sim := make([]*graph.DenseSet, n)
	simList := make([][]graph.NodeID, n)
	for ui := 0; ui < n; ui++ {
		set := graph.NewDenseSet(idCap)
		var list []graph.NodeID
		for _, v := range a.sources(q, pattern.Node(ui), initCands) {
			if a.node(q, pattern.Node(ui), v) && set.Add(v) {
				list = append(list, v)
				res.Steps++
			}
		}
		sim[ui] = set
		simList[ui] = list
	}

	type edgeT struct{ u, uc, slot int } // pattern edge (u, uc)
	var edges []edgeT
	q.Edges(func(from, to pattern.Node) bool {
		edges = append(edges, edgeT{int(from), int(to), a.slot(from, to)})
		return true
	})

	// For each pattern node u', the pattern edges (u, u') entering it.
	inEdges := make([][]int, n)
	for ei, e := range edges {
		inEdges[e.uc] = append(inEdges[e.uc], ei)
	}

	// cnt[ei] tracks |out(v) ∩ sim(edges[ei].uc)| for v in
	// sim(edges[ei].u) — dense when the candidates are a fair share of
	// the ID space (full-graph GSim, bounded evaluation), sparse when a
	// few candidates sit in a huge graph (OptGSim), where an O(|V|) row
	// per pattern edge would dwarf the actual work.
	cnt := make([]cntRow, len(edges))
	for ei, e := range edges {
		cnt[ei] = newCntRow(idCap, len(simList[e.u]))
	}

	// Phase 2: build ALL counters against the initial candidate sets
	// before enforcing anything: interleaving initialization with removals
	// would double-subtract (a removal already excluded from a
	// later-initialized counter would be decremented again during
	// propagation). A space's run holds only candidates of uc, all still
	// in sim(uc) here, so its length is the count.
	for ei, e := range edges {
		row, ucSet := &cnt[ei], sim[e.uc]
		for _, v := range simList[e.u] {
			out := a.out(e.slot, v)
			c := int32(len(out))
			if a.sp == nil {
				c = 0
				for _, w := range out {
					if ucSet.Has(w) {
						c++
					}
				}
			}
			row.set(v, c)
		}
	}

	// removeQueue holds (u, v) pairs removed from sim(u) whose effect has
	// not been propagated yet.
	type rem struct {
		u int
		v graph.NodeID
	}
	var queue []rem

	remove := func(u int, v graph.NodeID) {
		if !sim[u].Remove(v) {
			return
		}
		res.Steps++
		queue = append(queue, rem{u, v})
	}

	for ei, e := range edges {
		for _, v := range simList[e.u] {
			if cnt[ei].isZero(v) {
				remove(e.u, v)
			}
		}
	}

	// Propagate removals to fixpoint.
	for len(queue) > 0 {
		r := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		// r.v left sim(r.u): every in-neighbor v of r.v loses a witness
		// for each pattern edge (u, r.u).
		for _, ei := range inEdges[r.u] {
			e := edges[ei]
			row := &cnt[ei]
			for _, v := range a.in(e.slot, r.v) {
				if !sim[e.u].Has(v) {
					continue
				}
				c, wasCand := row.dec(v)
				if !wasCand {
					continue // v was never a candidate for e.u
				}
				if c <= 0 {
					remove(e.u, v)
				}
			}
		}
	}

	res.Matched = true
	for ui := 0; ui < n; ui++ {
		if sim[ui].Len() == 0 {
			res.Matched = false
			break
		}
	}
	if !res.Matched {
		return res
	}
	for ui := 0; ui < n; ui++ {
		res.Sim[ui] = sim[ui].AppendTo(make([]graph.NodeID, 0, sim[ui].Len()))
	}
	return res
}

// cntRow is the per-pattern-edge counter store of gsim: cnt(v) =
// |out(v) ∩ sim(uc)|. Dense rows are []int32 with a +1 bias (0 = "never
// a candidate") so the zero-filled slice needs no O(|V|) fill; sparse
// rows use a map sized to the candidate list.
type cntRow struct {
	dense  []int32
	sparse map[graph.NodeID]int32
}

// newCntRow picks the representation: dense when the candidates are at
// least 1/8 of the ID space (or the space is small), sparse otherwise.
func newCntRow(idCap, candidates int) cntRow {
	if idCap <= 1<<16 || candidates*8 >= idCap {
		return cntRow{dense: make([]int32, idCap)}
	}
	return cntRow{sparse: make(map[graph.NodeID]int32, candidates)}
}

func (r *cntRow) set(v graph.NodeID, c int32) {
	if r.dense != nil {
		r.dense[v] = c + 1
	} else {
		r.sparse[v] = c
	}
}

// isZero reports whether candidate v's counter is zero.
func (r *cntRow) isZero(v graph.NodeID) bool {
	if r.dense != nil {
		return r.dense[v] == 1
	}
	return r.sparse[v] == 0
}

// dec decrements v's counter, returning the new count and whether v was
// ever a candidate of this row.
func (r *cntRow) dec(v graph.NodeID) (int32, bool) {
	if r.dense != nil {
		s := r.dense[v]
		if s == 0 {
			return 0, false
		}
		s--
		r.dense[v] = s
		return s - 1, true
	}
	c, ok := r.sparse[v]
	if !ok {
		return 0, false
	}
	c--
	r.sparse[v] = c
	return c, true
}

func sortIDs(s []graph.NodeID) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}
