package match

import (
	"boundedg/internal/graph"
	"boundedg/internal/pattern"
)

// GSimWithCandidates runs graph simulation with externally supplied
// initial candidate sets over g.
func GSimWithCandidates(q *pattern.Pattern, g *graph.Graph, cands [][]graph.NodeID) *SimResult {
	return gsim(q, adjacency{g: g}, cands)
}

// VF2WithCandidatesFrozen runs the VF2 search with externally supplied
// candidate sets (cands[u] restricts pattern node u; nil entries mean
// unrestricted), with edge reads served by a frozen CSR snapshot of g (see
// graph.Freeze). It matches inside a materialized GQ with the plan's
// maximally reduced cmat sets. The snapshot's sorted adjacency changes
// enumeration order against VF2 on g — same match set, possibly different
// Matches order — while making the feasibility checks binary searches
// instead of edge-map probes.
func VF2WithCandidatesFrozen(q *pattern.Pattern, g *graph.Graph, fz *graph.Frozen, cands [][]graph.NodeID, opt SubgraphOptions) *SubgraphResult {
	return vf2On(q, adjacency{g: g, fz: fz}, cands, opt)
}

// VF2InSpace runs the VF2 search on a candidate space: the universe of u
// is sp.Cands[u], a pool is one run and an edge test a search in one. It
// is bounded evaluation's matcher (bVF2) on the serving path. It finds
// the same match set as VF2WithCandidatesFrozen on the GQ the space was
// built with; the enumeration order may differ.
func VF2InSpace(q *pattern.Pattern, sp *Space, opt SubgraphOptions) *SubgraphResult {
	return vf2On(q, adjacency{sp: sp}, nil, opt)
}

// GSimInSpace computes the maximum simulation of q on a candidate space
// (bSim on the serving path): the initial relation is sp.Cands, the
// initial counters are run lengths, and a removal walks the in-runs.
func GSimInSpace(q *pattern.Pattern, sp *Space) *SimResult {
	return gsim(q, adjacency{sp: sp}, nil)
}
