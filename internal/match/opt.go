package match

import (
	"boundedg/internal/access"
	"boundedg/internal/graph"
	"boundedg/internal/pattern"
)

// OptVF2 is the paper's optVF2 baseline: plain VF2 accelerated with the
// access-constraint indices, but *without* a bounded query plan. Type-1
// constraints pre-restrict the candidate universes of the pattern nodes
// they cover; everything else still scans G-sized candidate lists, so the
// cost remains dependent on |G| — which is exactly the gap the paper
// measures against bVF2.
func OptVF2(q *pattern.Pattern, g *graph.Graph, idx *access.IndexSet, opt SubgraphOptions) *SubgraphResult {
	return vf2(q, g, type1Candidates(q, idx), opt)
}

// OptGSim is the paper's optgsim baseline: graph simulation with type-1
// index-restricted initial candidate sets; the fixpoint still refines over
// G-sized sets for uncovered nodes.
func OptGSim(q *pattern.Pattern, g *graph.Graph, idx *access.IndexSet) *SimResult {
	return gsim(q, adjacency{g: g}, type1Candidates(q, idx))
}

// type1Candidates returns initial candidate sets drawn from type-1
// constraint indices: cands[u] is the index's l-labeled node list when a
// type-1 constraint covers fQ(u), nil (unrestricted) otherwise.
func type1Candidates(q *pattern.Pattern, idx *access.IndexSet) [][]graph.NodeID {
	if idx == nil {
		return nil
	}
	schema := idx.Schema()
	cands := make([][]graph.NodeID, q.NumNodes())
	for ui := 0; ui < q.NumNodes(); ui++ {
		l := q.LabelOf(pattern.Node(ui))
		for _, ci := range schema.ByTarget(l) {
			if schema.At(ci).Type1() {
				cands[ui] = idx.Index(ci).Lookup(nil)
				break
			}
		}
	}
	return cands
}
