// Sharded-store benchmarks: update throughput through the router's
// cross-shard group commit and query throughput through the engine's
// scatter/gather path, swept over shard counts against the unsharded
// baseline.
package shard_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"boundedg/internal/access"
	"boundedg/internal/core"
	"boundedg/internal/graph"
	"boundedg/internal/match"
	"boundedg/internal/runtime"
	"boundedg/internal/shard"
	"boundedg/internal/store"
	"boundedg/internal/workload"
)

var shardCounts = []int{1, 2, 4, 8}

// BenchmarkShardedApply measures write throughput: one op is an
// accepted add-edge delta followed by its compensating delete, routed
// through the cross-shard group commit ("unsharded" applies the same
// pairs to a plain store). Random endpoints make most pairs cross-shard
// at higher shard counts.
func BenchmarkShardedApply(b *testing.B) {
	d0 := workload.IMDb(0.3, 5)
	live := d0.G.NodeList()
	pairLoop := func(b *testing.B, apply func(*graph.Delta) error) {
		// Warm up to steady state before timing: the first write through
		// each store pays a one-off O(|G|) clone of its second instance
		// (and the first few epochs build the CSR patch chain), which
		// would otherwise be amortized over whatever b.N the harness
		// picked — a fixed cost masquerading as per-op cost.
		wrng := rand.New(rand.NewSource(7))
		for i := 0; i < 256; i++ {
			from := live[wrng.Intn(len(live))]
			to := live[wrng.Intn(len(live))]
			if err := apply(&graph.Delta{AddEdges: [][2]graph.NodeID{{from, to}}}); err == nil {
				if err := apply(&graph.Delta{DelEdges: [][2]graph.NodeID{{from, to}}}); err != nil {
					b.Fatal(err)
				}
			}
		}
		rng := rand.New(rand.NewSource(9))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			from := live[rng.Intn(len(live))]
			to := live[rng.Intn(len(live))]
			add := &graph.Delta{AddEdges: [][2]graph.NodeID{{from, to}}}
			if err := apply(add); err == nil {
				del := &graph.Delta{DelEdges: [][2]graph.NodeID{{from, to}}}
				if err := apply(del); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("unsharded", func(b *testing.B) {
		g := d0.G.Clone()
		idx := access.BuildUnchecked(g, d0.Schema)
		st := store.New(g, idx)
		pairLoop(b, func(d *graph.Delta) error {
			_, err := st.Apply(d)
			return err
		})
	})
	for _, n := range shardCounts {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			g := d0.G.Clone()
			idx := access.BuildUnchecked(g, d0.Schema)
			r, err := shard.New(g, idx, n)
			if err != nil {
				b.Fatal(err)
			}
			pairLoop(b, func(d *graph.Delta) error {
				_, err := r.Apply(d)
				return err
			})
		})
	}
}

// BenchmarkShardedQuery measures read throughput: one op evaluates every
// effectively bounded query in the standard 20-query load, both
// semantics, each on a goroutine of its own, served by a 4-worker
// engine — over one snapshot ("unsharded") or a consistent cut with
// scatter/gather fetches.
func BenchmarkShardedQuery(b *testing.B) {
	d0 := workload.IMDb(0.3, 5)
	qs := workload.DefaultQueryGen.Generate(d0, 20, 4)
	var queries []runtime.Query
	mopt := match.SubgraphOptions{MaxMatches: 10_000}
	for _, q := range qs {
		if p, err := core.NewPlan(q, d0.Schema, core.Subgraph); err == nil {
			queries = append(queries, runtime.Query{Pattern: q, Sem: core.Subgraph, Sub: mopt, Plan: p})
		}
		if p, err := core.NewPlan(q, d0.Schema, core.Simulation); err == nil {
			queries = append(queries, runtime.Query{Pattern: q, Sem: core.Simulation, Plan: p})
		}
	}
	if len(queries) == 0 {
		b.Fatal("no bounded bench queries found")
	}
	batchLoop := func(b *testing.B, eng *runtime.Engine) {
		defer eng.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for _, q := range queries {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if res := eng.Eval(nil, q); res.Err != nil {
						b.Error(res.Err)
					}
				}()
			}
			wg.Wait()
		}
	}
	b.Run("unsharded", func(b *testing.B) {
		g := d0.G.Clone()
		idx := access.BuildUnchecked(g, d0.Schema)
		eng, err := runtime.New(g, idx, runtime.Config{Workers: 4})
		if err != nil {
			b.Fatal(err)
		}
		batchLoop(b, eng)
	})
	for _, n := range shardCounts {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			g := d0.G.Clone()
			idx := access.BuildUnchecked(g, d0.Schema)
			r, err := shard.New(g, idx, n)
			if err != nil {
				b.Fatal(err)
			}
			eng, err := runtime.NewFromRouter(r, runtime.Config{Workers: 4})
			if err != nil {
				b.Fatal(err)
			}
			batchLoop(b, eng)
		})
	}
}
