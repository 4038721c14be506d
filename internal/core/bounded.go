package core

import (
	"slices"

	"boundedg/internal/access"
	"boundedg/internal/graph"
	"boundedg/internal/match"
	"boundedg/internal/pattern"
)

// EvalSubgraph answers an effectively bounded subgraph query on g by
// executing the plan (fetching GQ through the indices only) and running
// VF2 inside GQ — the paper's bVF2. Matches are reported in g's node IDs.
func (p *Plan) EvalSubgraph(g *graph.Graph, idx *access.IndexSet, opt match.SubgraphOptions) (*match.SubgraphResult, *ExecStats, error) {
	return p.EvalSubgraphWith(g, idx, opt, nil)
}

// EvalSubgraphWith is EvalSubgraph with an execution configuration; see
// ExecConfig.
func (p *Plan) EvalSubgraphWith(g *graph.Graph, idx *access.IndexSet, opt match.SubgraphOptions, cfg *ExecConfig) (*match.SubgraphResult, *ExecStats, error) {
	bg, stats, err := p.ExecWith(g, idx, cfg)
	if err != nil {
		return nil, nil, err
	}
	res := match.VF2WithCandidatesFrozen(p.Q, bg.G, bg.Fz, bg.Cands, opt)
	bg.MapSubgraphResult(res)
	return res, stats, nil
}

// MapSubgraphResult rewrites res's matches in place from GQ node IDs to
// the source graph's IDs.
func (bg *BoundedGraph) MapSubgraphResult(res *match.SubgraphResult) {
	for _, m := range res.Matches {
		for i, v := range m {
			m[i] = bg.ToOrig[v]
		}
	}
}

// MapSimResult rewrites res's relation in place from GQ node IDs to the
// source graph's IDs, keeping each list sorted.
func (bg *BoundedGraph) MapSimResult(res *match.SimResult) {
	if !res.Matched {
		return
	}
	for ui := range res.Sim {
		mapped := make([]graph.NodeID, len(res.Sim[ui]))
		for i, v := range res.Sim[ui] {
			mapped[i] = bg.ToOrig[v]
		}
		slices.Sort(mapped)
		res.Sim[ui] = mapped
	}
}

// EvalSim answers an effectively bounded simulation query on g by
// executing the plan and computing the maximum simulation inside GQ — the
// paper's bSim. The relation is reported in g's node IDs.
func (p *Plan) EvalSim(g *graph.Graph, idx *access.IndexSet) (*match.SimResult, *ExecStats, error) {
	return p.EvalSimWith(g, idx, nil)
}

// EvalSimWith is EvalSim with an execution configuration; see ExecConfig.
func (p *Plan) EvalSimWith(g *graph.Graph, idx *access.IndexSet, cfg *ExecConfig) (*match.SimResult, *ExecStats, error) {
	bg, stats, err := p.ExecWith(g, idx, cfg)
	if err != nil {
		return nil, nil, err
	}
	res := match.GSimWithCandidates(p.Q, bg.G, bg.Cands)
	bg.MapSimResult(res)
	return res, stats, nil
}

// BVF2 checks boundedness, plans, and evaluates a subgraph query in one
// call. It returns ErrNotBounded when no effectively bounded plan exists.
func BVF2(q *pattern.Pattern, g *graph.Graph, idx *access.IndexSet, opt match.SubgraphOptions) (*match.SubgraphResult, *ExecStats, error) {
	p, err := NewPlan(q, idx.Schema(), Subgraph)
	if err != nil {
		return nil, nil, err
	}
	return p.EvalSubgraph(g, idx, opt)
}

// BSim checks boundedness, plans, and evaluates a simulation query in one
// call. It returns ErrNotBounded when no effectively bounded plan exists.
func BSim(q *pattern.Pattern, g *graph.Graph, idx *access.IndexSet) (*match.SimResult, *ExecStats, error) {
	p, err := NewPlan(q, idx.Schema(), Simulation)
	if err != nil {
		return nil, nil, err
	}
	return p.EvalSim(g, idx)
}
