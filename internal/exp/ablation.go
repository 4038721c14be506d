package exp

import (
	"fmt"

	"boundedg/internal/access"
	"boundedg/internal/core"
	"boundedg/internal/match"
	"boundedg/internal/workload"
)

// Ablation quantifies the value of QPlan's worst-case-optimal plan search
// (Theorem 4) against the naive baseline (first applicable constraint, no
// reductions — core.NewNaivePlan): worst-case GQ estimates, actual data
// accessed, and wall-clock per query. The paper itself only proves
// optimality, so there is no published row to match — the table documents
// the measured gap on our workloads.
func Ablation(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	t := &Table{
		Title: "Ablation: QPlan (worst-case optimal) vs naive planning (avg per bounded query)",
		Header: []string{"dataset", "#Q",
			"est GQ opt", "est GQ naive",
			"accessed opt", "accessed naive",
			"time opt", "time naive"},
	}
	for _, name := range DatasetNames() {
		d, err := Gen(name, 0.5, opt.Seed)
		if err != nil {
			return nil, err
		}
		idx, viols := access.Build(d.G, d.Schema)
		if viols != nil {
			return nil, fmt.Errorf("exp: %v", viols[0])
		}
		cfg := &core.ExecConfig{Frozen: d.G.Freeze()}
		qs := workload.DefaultQueryGen.Generate(d, opt.NumQueries, opt.Seed+7)
		var nQ int
		var estOpt, estNaive, accOpt, accNaive, timeOpt, timeNaive float64
		mopt := match.SubgraphOptions{MaxMatches: opt.MatchLimit}
		for _, q := range qs {
			po, err1 := core.NewPlan(q, d.Schema, core.Subgraph)
			if err1 != nil {
				continue
			}
			pn, err2 := core.NewNaivePlan(q, d.Schema, core.Subgraph)
			if err2 != nil {
				return nil, err2
			}
			nQ++
			estOpt += po.EstGQNodes()
			estNaive += pn.EstGQNodes()
			var so, sn *core.ExecStats
			var errO, errN error
			timeOpt += timed(func() { _, so, errO = po.EvalSubgraphWith(d.G, idx, mopt, cfg) })
			timeNaive += timed(func() { _, sn, errN = pn.EvalSubgraphWith(d.G, idx, mopt, cfg) })
			if errO != nil || errN != nil {
				return nil, fmt.Errorf("exp: ablation eval: %v / %v", errO, errN)
			}
			accOpt += float64(so.Accessed())
			accNaive += float64(sn.Accessed())
		}
		if nQ == 0 {
			t.AddRow(d.Name, "0", "n/a", "n/a", "n/a", "n/a", "n/a", "n/a")
			continue
		}
		f := float64(nQ)
		t.AddRow(d.Name, fmt.Sprint(nQ),
			fmt.Sprintf("%.0f", estOpt/f), fmt.Sprintf("%.0f", estNaive/f),
			fmt.Sprintf("%.0f", accOpt/f), fmt.Sprintf("%.0f", accNaive/f),
			fmtSecs(timeOpt/f), fmtSecs(timeNaive/f))
	}
	return t, nil
}
