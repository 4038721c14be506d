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

// VF2WithCandidatesFrozen runs the VF2 search on g with externally
// supplied candidate sets (cands[u] restricts pattern node u; nil entries
// mean unrestricted): bVF2 inside a materialized GQ with the plan's
// maximally reduced cmat sets. The snapshot fz is not read, and may be
// nil: a GQ's rows are already sorted and its HasEdge binary-searches
// them, so the enumeration order and the matches are those the snapshot
// would give.
func VF2WithCandidatesFrozen(q *pattern.Pattern, g *graph.Graph, fz *graph.Frozen, cands [][]graph.NodeID, opt SubgraphOptions) *SubgraphResult {
	return vf2(q, g, cands, opt)
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
