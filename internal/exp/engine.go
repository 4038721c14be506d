package exp

import (
	"fmt"

	"boundedg/internal/access"
	"boundedg/internal/core"
	"boundedg/internal/match"
	"boundedg/internal/runtime"
)

// EngineThroughput measures batch throughput of the parallel runtime: the
// full bounded query load of a dataset (both semantics) evaluated by a
// serial loop versus runtime.Engine at increasing concurrency limits.
// maxWorkers comes from Options.Workers (default 4). The paper makes per-query cost
// independent of |G|; this table shows the remaining lever — queries per
// second under concurrent load.
func EngineThroughput(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	maxWorkers := opt.Workers
	if maxWorkers < 2 {
		maxWorkers = 4
	}
	d, _, _, subPlans, simPlans, err := prepare(opt)
	if err != nil {
		return nil, err
	}
	idx, viols := access.Build(d.G, d.Schema)
	if viols != nil {
		return nil, fmt.Errorf("exp: %v", viols[0])
	}
	mopt := match.SubgraphOptions{MaxMatches: opt.MatchLimit}

	queries := make([]runtime.Query, 0, len(subPlans)+len(simPlans))
	for _, p := range subPlans {
		queries = append(queries, runtime.Query{Pattern: p.Q, Sem: core.Subgraph, Sub: mopt, Plan: p})
	}
	for _, p := range simPlans {
		queries = append(queries, runtime.Query{Pattern: p.Q, Sem: core.Simulation, Plan: p})
	}
	if len(queries) == 0 {
		return nil, fmt.Errorf("exp: no bounded queries in the %s load", d.Name)
	}

	t := &Table{
		Title:  fmt.Sprintf("Engine throughput — %s (%d bounded queries per batch)", d.Name, len(queries)),
		Header: []string{"mode", "batch time", "queries/s", "speedup"},
	}
	var serialSecs float64
	serialSecs = timed(func() {
		for _, q := range queries {
			var err2 error
			if q.Sem == core.Subgraph {
				_, _, err2 = q.Plan.EvalSubgraph(d.G, idx, mopt)
			} else {
				_, _, err2 = q.Plan.EvalSim(d.G, idx)
			}
			if err2 != nil {
				err = err2
			}
		}
	})
	if err != nil {
		return nil, err
	}
	t.AddRow("serial loop", fmtSecs(serialSecs),
		fmt.Sprintf("%.0f", float64(len(queries))/serialSecs), "1.00x")

	var sweep []int
	for w := 1; w < maxWorkers; w *= 2 {
		sweep = append(sweep, w)
	}
	sweep = append(sweep, maxWorkers)
	for _, workers := range sweep {
		e, err := runtime.New(d.G, idx, runtime.Config{Workers: workers})
		if err != nil {
			return nil, err
		}
		secs := timed(func() {
			for _, r := range e.EvalBatch(nil, queries) {
				if r.Err != nil {
					err = r.Err
				}
			}
		})
		e.Close()
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("engine workers=%d", workers), fmtSecs(secs),
			fmt.Sprintf("%.0f", float64(len(queries))/secs),
			fmt.Sprintf("%.2fx", serialSecs/secs))
	}
	return t, nil
}
