package match

import (
	"boundedg/internal/graph"
	"boundedg/internal/pattern"
)

// GSimWithCandidates runs graph simulation with externally supplied
// initial candidate sets; bounded evaluation (bSim) uses it on GQ.
func GSimWithCandidates(q *pattern.Pattern, g *graph.Graph, cands [][]graph.NodeID) *SimResult {
	return gsim(q, g, cands)
}

// VF2WithCandidatesFrozen runs the VF2 search with externally supplied
// candidate sets (cands[u] restricts pattern node u; nil entries mean
// unrestricted), with edge reads served by a frozen CSR snapshot of g (see
// graph.Freeze). Bounded evaluation (bVF2) uses it to match inside the
// fetched subgraph GQ with the plan's maximally reduced cmat sets. The
// snapshot's sorted adjacency changes enumeration order against VF2 on g —
// same match set, possibly different Matches order — while making the
// feasibility checks binary searches instead of edge-map probes. The
// engine's hot path.
func VF2WithCandidatesFrozen(q *pattern.Pattern, g *graph.Graph, fz *graph.Frozen, cands [][]graph.NodeID, opt SubgraphOptions) *SubgraphResult {
	return vf2On(q, adjacency{g: g, fz: fz}, cands, opt)
}
