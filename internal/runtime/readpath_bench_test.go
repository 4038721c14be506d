package runtime_test

import (
	"context"
	"math/rand"
	"testing"

	"boundedg/internal/access"
	"boundedg/internal/core"
	"boundedg/internal/graph"
	"boundedg/internal/match"
	"boundedg/internal/pattern"
	"boundedg/internal/runtime"
	"boundedg/internal/shard"
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
	// Candidates are screened the way the engine reads: through a frozen
	// snapshot, so the screen's edge checks intersect sorted rows too.
	cfg := &core.ExecConfig{Frozen: ds.G.Freeze()}
	var pool []runtime.Query
	for _, q := range workload.DefaultQueryGen.Generate(ds, poolCandidates, 2) {
		if len(pool) == poolSize {
			break
		}
		sem := core.Subgraph
		if len(pool)%2 == 1 {
			sem = core.Simulation
		}
		if !completeBounded(q, sem, ds.G, idx, sub, cfg) {
			continue
		}
		pool = append(pool, runtime.Query{Pattern: q, Sem: sem, Sub: sub})
	}
	if len(pool) < poolSize {
		tb.Fatalf("only %d bounded candidates with complete answers", len(pool))
	}
	return ds.G, idx, pool
}

func completeBounded(q *pattern.Pattern, sem core.Semantics, g *graph.Graph, idx *access.IndexSet, sub match.SubgraphOptions, cfg *core.ExecConfig) bool {
	p, err := core.NewPlan(q, idx.Schema(), sem)
	if err != nil {
		return false
	}
	if sem == core.Simulation {
		_, _, err = p.EvalSimWith(g, idx, cfg)
		return err == nil
	}
	res, _, err := p.EvalSubgraphWith(g, idx, sub, cfg)
	return err == nil && res.Completed
}

// readPathSource rebuilds the pool's graph and index set and serves them
// from one store (shards 1) or from a router over that many shards, with
// writePairs accepted add-edge/delete-edge pairs applied first (see
// datasetSource).
func readPathSource(tb testing.TB, shards, writePairs int) runtime.Source {
	tb.Helper()
	return datasetSource(tb, workload.IMDb(1, 1), shards, writePairs)
}

// datasetSource serves ds's graph and a fresh index set from one store
// (shards 1) or from a router over that many shards, with writePairs
// accepted add-edge/delete-edge pairs applied first. The pairs leave the
// graph's edge set as it was, but every store behind the source has
// refreshed its Frozen snapshot once per accepted write, so reads go
// through a live patch chain. The source takes ds.G over.
func datasetSource(tb testing.TB, ds *workload.Dataset, shards, writePairs int) runtime.Source {
	tb.Helper()
	idx, viols := access.Build(ds.G, ds.Schema)
	if viols != nil {
		tb.Fatalf("generated graph violates its schema: %v", viols[0])
	}
	// Draw the candidate edges before a router consumes the graph. An
	// edge the graph already has is never drawn: re-adding it is accepted
	// as a no-op, and its compensating delete would remove it for good.
	nodes := ds.G.NodeList()
	r := rand.New(rand.NewSource(1))
	var cands [][2]graph.NodeID
	for len(cands) < 50*writePairs {
		e := [2]graph.NodeID{nodes[r.Intn(len(nodes))], nodes[r.Intn(len(nodes))]}
		if e[0] != e[1] && !ds.G.HasEdge(e[0], e[1]) {
			cands = append(cands, e)
		}
	}
	var src runtime.Source = store.New(ds.G, idx)
	if shards > 1 {
		rt, err := shard.New(ds.G, idx, shards)
		if err != nil {
			tb.Fatal(err)
		}
		src = rt
	}
	accepted := 0
	for _, e := range cands {
		if accepted == writePairs {
			break
		}
		if _, err := src.Apply(&graph.Delta{AddEdges: [][2]graph.NodeID{e}}); err != nil {
			continue // the schema refuses the edge
		}
		if _, err := src.Apply(&graph.Delta{DelEdges: [][2]graph.NodeID{e}}); err != nil {
			tb.Fatalf("deleting the edge just added: %v", err)
		}
		accepted++
	}
	if accepted < writePairs {
		tb.Fatalf("only %d of %d write pairs accepted", accepted, writePairs)
	}
	return src
}

// BenchmarkReadPath is one read.cold query through Engine.Eval with its
// plan already built, as the server's are: fetch GQ through the indexes,
// match inside GQ. One op is one
// query, cycling through the pool; run with -benchmem to see the per-query
// allocation count the GQ build is held to. The sub-benchmarks serve the
// pool from one store or from two shards, either freshly built or after
// 400 accepted add-edge/delete-edge pairs, so that every Frozen snapshot
// the reads consult carries a patch chain.
func BenchmarkReadPath(b *testing.B) {
	_, _, pool := readPathPool(b)
	for _, shape := range []struct {
		name   string
		shards int
	}{{"unsharded", 1}, {"shards2", 2}} {
		for _, state := range []struct {
			name       string
			writePairs int
		}{{"fresh", 0}, {"afterWrites", 400}} {
			var eng *runtime.Engine // built once, on the first of b.Run's calls
			b.Run(shape.name+"/"+state.name, func(b *testing.B) {
				if eng == nil {
					var err error
					eng, err = runtime.NewFromSource(readPathSource(b, shape.shards, state.writePairs), runtime.Config{})
					if err != nil {
						b.Fatal(err)
					}
				}
				// A plan serves only the schema it was built against.
				qs := make([]runtime.Query, len(pool))
				for i, q := range pool {
					p, err := core.NewPlan(q.Pattern, eng.Schema(), q.Sem)
					if err != nil {
						b.Fatal(err)
					}
					q.Plan = p
					qs[i] = q
				}
				ctx := context.Background()
				for _, q := range qs { // warm the scratch pool
					if r := eng.Eval(ctx, q); r.Err != nil {
						b.Fatal(r.Err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if r := eng.Eval(ctx, qs[i%len(qs)]); r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			})
			if eng != nil {
				eng.Close()
			}
		}
	}
}

// TestReadPathAllocsFlatInGQ guards the GQ build's allocation count: with
// a warm ExecScratch, Plan.ExecWith allocates the same small number of
// times for every pool pattern with a non-empty GQ, from the one with the
// fewest GQ edges (a GQ of nodes only still runs the whole build) to the
// one with at least ten times as many — O(1) in |E(GQ)|, not one
// allocation per edge. It holds on one store and on a 2-shard cut, where a
// probe's parts are consumed in place or merged into scratch, never into
// a fresh slice.
func TestReadPathAllocsFlatInGQ(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the scale-1 benchmark pool")
	}
	g, idx, pool := readPathPool(t)
	checkAllocsFlat(t, "unsharded", pool, idx.Schema(), g, idx, core.ExecConfig{})

	rt := readPathSource(t, 2, 0).(*shard.Router)
	cut := rt.AcquireCut()
	defer cut.Release()
	sharded := core.ExecConfig{ShardOf: cut.ShardOf}
	for _, sn := range cut.Snaps {
		sharded.Shards = append(sharded.Shards, core.ShardView{G: sn.G, Fz: sn.Fz, Idx: sn.Idx})
	}
	checkAllocsFlat(t, "shards2", pool, rt.Schema(), nil, nil, sharded)
}

// checkAllocsFlat runs TestReadPathAllocsFlatInGQ's check over pool: each
// pattern executes against g and idx under a copy of proto with a scratch
// of its own.
func checkAllocsFlat(t *testing.T, name string, pool []runtime.Query, schema *access.Schema, g *graph.Graph, idx *access.IndexSet, proto core.ExecConfig) {
	t.Helper()
	const maxAllocs = 40
	var fewest, most, wantAllocs int
	for i, q := range pool {
		p, err := core.NewPlan(q.Pattern, schema, q.Sem)
		if err != nil {
			t.Fatal(err)
		}
		cfg := proto
		cfg.Scratch = core.NewExecScratch()
		_, st, err := p.ExecWith(g, idx, &cfg) // warms the scratch
		if err != nil {
			t.Fatal(err)
		}
		if st.GQNodes == 0 {
			continue
		}
		allocs := int(testing.AllocsPerRun(10, func() {
			if _, _, err := p.ExecWith(g, idx, &cfg); err != nil {
				t.Fatal(err)
			}
		}))
		if wantAllocs == 0 {
			fewest, most, wantAllocs = st.GQEdges, st.GQEdges, allocs
		}
		if allocs != wantAllocs || allocs > maxAllocs {
			t.Fatalf("%s: pool pattern %d (%d GQ edges): %d allocs, others %d; want equal and at most %d", name, i, st.GQEdges, allocs, wantAllocs, maxAllocs)
		}
		fewest, most = min(fewest, st.GQEdges), max(most, st.GQEdges)
	}
	if most < 10*max(fewest, 1) {
		t.Fatalf("%s: pool GQ edge counts span %d..%d, not 10x", name, fewest, most)
	}
	t.Logf("%s: %d allocs per ExecWith for GQ edge counts %d..%d", name, wantAllocs, fewest, most)
}
