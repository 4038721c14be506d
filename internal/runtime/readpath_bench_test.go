package runtime_test

import (
	"context"
	"testing"

	"boundedg/internal/access"
	"boundedg/internal/core"
	"boundedg/internal/graph"
	"boundedg/internal/match"
	"boundedg/internal/pattern"
	"boundedg/internal/runtime"
	"boundedg/internal/store"
	"boundedg/internal/workload"
)

// readPathPool is the repo benchmark's query pool recipe (bench/pool.go):
// the first 32 candidates from DefaultQueryGen (seed 2) over scale-1 imdb
// (seed 1) that plan as bounded, alternating subgraph and simulation,
// whose answers are complete within the server's match limit. It returns
// the graph and index set the pool runs against.
func readPathPool(tb testing.TB) (*graph.Graph, *access.IndexSet, []runtime.Query) {
	tb.Helper()
	const (
		poolSize       = 32
		poolCandidates = 1200
	)
	sub := match.SubgraphOptions{StoreMatches: true, MaxMatches: 10000, MaxSteps: 5_000_000}
	ds := workload.IMDb(1, 1)
	idx, viols := access.Build(ds.G, ds.Schema)
	if viols != nil {
		tb.Fatalf("generated graph violates its schema: %v", viols[0])
	}
	var pool []runtime.Query
	for _, q := range workload.DefaultQueryGen.Generate(ds, poolCandidates, 2) {
		if len(pool) == poolSize {
			break
		}
		sem := core.Subgraph
		if len(pool)%2 == 1 {
			sem = core.Simulation
		}
		if !completeBounded(q, sem, ds.G, idx, sub) {
			continue
		}
		pool = append(pool, runtime.Query{Pattern: q, Sem: sem, Sub: sub})
	}
	if len(pool) < poolSize {
		tb.Fatalf("only %d bounded candidates with complete answers", len(pool))
	}
	return ds.G, idx, pool
}

func completeBounded(q *pattern.Pattern, sem core.Semantics, g *graph.Graph, idx *access.IndexSet, sub match.SubgraphOptions) bool {
	p, err := core.NewPlan(q, idx.Schema(), sem)
	if err != nil {
		return false
	}
	if sem == core.Simulation {
		_, _, err = p.EvalSim(g, idx)
		return err == nil
	}
	res, _, err := p.EvalSubgraph(g, idx, sub)
	return err == nil && res.Completed
}

// BenchmarkReadPath is one read.cold query through Engine.Eval: plan
// (cached), fetch GQ through the indexes, match inside GQ. One op is one
// query, cycling through the pool; run with -benchmem to see the per-query
// allocation count the GQ build is held to.
func BenchmarkReadPath(b *testing.B) {
	g, idx, pool := readPathPool(b)
	eng, err := runtime.NewFromStore(store.New(g, idx), runtime.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()
	for _, q := range pool { // warm the plan cache and the scratch pool
		if r := eng.Eval(ctx, q); r.Err != nil {
			b.Fatal(r.Err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := eng.Eval(ctx, pool[i%len(pool)]); r.Err != nil {
			b.Fatal(r.Err)
		}
	}
}

// TestReadPathAllocsFlatInGQ guards the GQ build's allocation count: with
// a warm ExecScratch, Plan.ExecWith allocates the same small number of
// times for every pool pattern with a non-empty GQ, from the one with the
// fewest GQ edges (a GQ of nodes only still runs the whole build) to the
// one with at least ten times as many — O(1) in |E(GQ)|, not one
// allocation per edge.
func TestReadPathAllocsFlatInGQ(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the scale-1 benchmark pool")
	}
	g, idx, pool := readPathPool(t)
	const maxAllocs = 40
	var fewest, most, wantAllocs int
	for i, q := range pool {
		p, err := core.NewPlan(q.Pattern, idx.Schema(), q.Sem)
		if err != nil {
			t.Fatal(err)
		}
		cfg := &core.ExecConfig{Scratch: core.NewExecScratch()}
		_, st, err := p.ExecWith(g, idx, cfg) // warms the scratch
		if err != nil {
			t.Fatal(err)
		}
		if st.GQNodes == 0 {
			continue
		}
		allocs := int(testing.AllocsPerRun(10, func() {
			if _, _, err := p.ExecWith(g, idx, cfg); err != nil {
				t.Fatal(err)
			}
		}))
		if wantAllocs == 0 {
			fewest, most, wantAllocs = st.GQEdges, st.GQEdges, allocs
		}
		if allocs != wantAllocs || allocs > maxAllocs {
			t.Fatalf("pool pattern %d (%d GQ edges): %d allocs, others %d; want equal and at most %d", i, st.GQEdges, allocs, wantAllocs, maxAllocs)
		}
		fewest, most = min(fewest, st.GQEdges), max(most, st.GQEdges)
	}
	if most < 10*max(fewest, 1) {
		t.Fatalf("pool GQ edge counts span %d..%d, not 10x", fewest, most)
	}
	t.Logf("%d allocs per ExecWith for GQ edge counts %d..%d", wantAllocs, fewest, most)
}
