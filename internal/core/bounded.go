package core

import (
	"slices"

	"boundedg/internal/access"
	"boundedg/internal/graph"
	"boundedg/internal/match"
	"boundedg/internal/pattern"
)

// EvalSubgraph answers an effectively bounded subgraph query on g by
// executing the plan (fetching GQ's candidate space through the indices
// only) and running VF2 inside it — the paper's bVF2. Matches are
// reported in g's node IDs.
func (p *Plan) EvalSubgraph(g *graph.Graph, idx *access.IndexSet, opt match.SubgraphOptions) (*match.SubgraphResult, *ExecStats, error) {
	return p.EvalSubgraphWith(g, idx, opt, nil)
}

// EvalSubgraphWith is EvalSubgraph with an execution configuration; see
// ExecConfig.
func (p *Plan) EvalSubgraphWith(g *graph.Graph, idx *access.IndexSet, opt match.SubgraphOptions, cfg *ExecConfig) (*match.SubgraphResult, *ExecStats, error) {
	bg, stats, err := p.Fetch(g, idx, cfg)
	if err != nil {
		return nil, nil, err
	}
	res := match.VF2InSpace(p.Q, bg.Space, opt)
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
	var tmp []graph.NodeID
	for ui := range res.Sim {
		mapped := make([]graph.NodeID, len(res.Sim[ui]))
		top := graph.NodeID(0)
		for i, v := range res.Sim[ui] {
			mapped[i] = bg.ToOrig[v]
			top = max(top, mapped[i])
		}
		if len(mapped) < 256 {
			slices.Sort(mapped)
		} else {
			tmp = radixSort(mapped, tmp, top)
		}
		res.Sim[ui] = mapped
	}
}

// radixSort sorts ids, all in [0, top], ascending: a least-significant-
// digit radix sort over the bytes top uses, staged through tmp, which is
// grown as needed and returned for reuse. A relation maps thousands of
// candidates at a time, where it beats a comparison sort severalfold.
func radixSort(ids, tmp []graph.NodeID, top graph.NodeID) []graph.NodeID {
	if cap(tmp) < len(ids) {
		tmp = make([]graph.NodeID, len(ids))
	}
	src, dst := ids, tmp[:len(ids)]
	for shift := 0; top>>shift > 0; shift += 8 {
		var start [257]int
		for _, v := range src {
			start[(v>>shift)&0xff+1]++
		}
		for b := 1; b < len(start); b++ {
			start[b] += start[b-1]
		}
		for _, v := range src {
			b := (v >> shift) & 0xff
			dst[start[b]] = v
			start[b]++
		}
		src, dst = dst, src
	}
	copy(ids, src) // src is ids itself after an even number of passes
	return tmp
}

// EvalSim answers an effectively bounded simulation query on g by
// executing the plan and computing the maximum simulation on GQ's
// candidate space — the paper's bSim. The relation is reported in g's
// node IDs.
func (p *Plan) EvalSim(g *graph.Graph, idx *access.IndexSet) (*match.SimResult, *ExecStats, error) {
	return p.EvalSimWith(g, idx, nil)
}

// EvalSimWith is EvalSim with an execution configuration; see ExecConfig.
func (p *Plan) EvalSimWith(g *graph.Graph, idx *access.IndexSet, cfg *ExecConfig) (*match.SimResult, *ExecStats, error) {
	bg, stats, err := p.Fetch(g, idx, cfg)
	if err != nil {
		return nil, nil, err
	}
	res := match.GSimInSpace(p.Q, bg.Space)
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
