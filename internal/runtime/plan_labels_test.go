package runtime_test

import (
	"testing"

	"boundedg/internal/access"
	"boundedg/internal/core"
	"boundedg/internal/exp"
	"boundedg/internal/pattern"
	"boundedg/internal/workload"
)

// TestPlanConstraintsFixTheirNodesLabel: every FetchOp's constraint has
// the label of the node it fetches, and every EdgeCheck's constraint the
// label of its target. The fetch filter relies on it: it tests candidates
// against the predicate alone, and the candidate space's GQ edge count
// relies on every candidate carrying its pattern node's label. It holds
// for QPlan and the naive planner, for plans rebound to new predicates,
// and for plans under a greedy M-bounded extension, over the experiment
// datasets and the read-path benchmark pool.
func TestPlanConstraintsFixTheirNodesLabel(t *testing.T) {
	checked, rebound, extended := 0, 0, 0
	check := func(name string, p *core.Plan) {
		t.Helper()
		for i, op := range p.Ops {
			if l := p.A.At(op.CIdx).L; l != p.Q.LabelOf(op.U) {
				t.Fatalf("%s: fetch op %d for %s reads constraint %d of label %d, the node has %d", name, i, p.Q.Name(op.U), op.CIdx, l, p.Q.LabelOf(op.U))
			}
		}
		for i, ec := range p.EdgeChecks {
			if l := p.A.At(ec.CIdx).L; l != p.Q.LabelOf(ec.Target) {
				t.Fatalf("%s: edge check %d targets %s through constraint %d of label %d, the node has %d", name, i, p.Q.Name(ec.Target), ec.CIdx, l, p.Q.LabelOf(ec.Target))
			}
		}
		checked++
	}
	planners := []struct {
		name string
		plan func(*pattern.Pattern, *access.Schema, core.Semantics) (*core.Plan, error)
	}{{"qplan", core.NewPlan}, {"naive", core.NewNaivePlan}}

	for _, name := range exp.DatasetNames() {
		ds, err := exp.Gen(name, 0.05, 1)
		if err != nil {
			t.Fatal(err)
		}
		qs := workload.DefaultQueryGen.Generate(ds, 60, 2)
		for _, sem := range []core.Semantics{core.Subgraph, core.Simulation} {
			var unbounded []*pattern.Pattern
			for _, q := range qs {
				for _, pl := range planners {
					p, err := pl.plan(q, ds.Schema, sem)
					if err != nil {
						if pl.name == "qplan" && len(unbounded) < 4 {
							unbounded = append(unbounded, q)
						}
						continue
					}
					check(name+"/"+pl.name, p)
					rp, err := p.Rebind(core.WithPredicates(q, nil))
					if err != nil {
						t.Fatalf("%s: Rebind: %v", name, err)
					}
					check(name+"/"+pl.name+"/rebound", rp)
					rebound++
				}
			}
			ext, ok := core.GreedyExtension(unbounded, ds.Schema, 1000, ds.G, sem)
			if !ok {
				continue
			}
			for _, q := range unbounded {
				for _, pl := range planners {
					if p, err := pl.plan(q, ext, sem); err == nil {
						check(name+"/"+pl.name+"/extended", p)
						extended++
					}
				}
			}
		}
	}
	if !testing.Short() {
		_, idx, pool := readPathPool(t)
		for _, q := range pool {
			for _, pl := range planners {
				p, err := pl.plan(q.Pattern, idx.Schema(), q.Sem)
				if err != nil {
					t.Fatalf("pool pattern does not plan: %v", err)
				}
				check("pool/"+pl.name, p)
			}
		}
	}
	if rebound == 0 || extended == 0 {
		t.Fatalf("%d plans checked, %d rebound, %d under an extension", checked, rebound, extended)
	}
}
