// Package boundedg's root benchmark suite regenerates every table and
// figure of the paper's evaluation (§VII) as a testing.B target. The
// benches run reduced configurations so `go test -bench=.` finishes in
// minutes; cmd/benchrunner runs the full-size sweeps and prints the
// tables (-csv DIR also writes them as CSV).
//
// Mapping to the paper's figures and tables:
//
//	BenchmarkExp1BoundedPct   — Exp-1(1), % of effectively bounded queries
//	BenchmarkFig5VaryG        — Fig 5(a,e,i), eval time vs |G|
//	BenchmarkFig5VaryQ        — Fig 5(b,f,j), eval time vs #n
//	BenchmarkFig5VaryA        — Fig 5(c,g,k), bounded eval time vs ‖A‖
//	BenchmarkFig5Accessed     — Fig 5(d,h,l), accessed data / index size
//	BenchmarkFig6Subgraph     — Fig 6(a), min M for x% instance-bounded
//	BenchmarkFig6Simulation   — Fig 6(b)
//	BenchmarkExp3Algorithms   — Exp-3, EBChk/QPlan/sEBChk/sQPlan latency
//	BenchmarkAlgorithms/*     — per-algorithm comparison behind Fig 5
package boundedg

import (
	"sync"
	"testing"

	"boundedg/internal/access"
	"boundedg/internal/core"
	"boundedg/internal/exp"
	"boundedg/internal/graph"
	"boundedg/internal/match"
	"boundedg/internal/pattern"
	"boundedg/internal/workload"
)

// benchOpt keeps harness-level benches small; full sweeps live in
// cmd/benchrunner.
func benchOpt(ds string) exp.Options {
	return exp.Options{
		Dataset:       ds,
		Seed:          1,
		NumQueries:    5,
		BaselineSteps: 200_000,
		MatchLimit:    2_000,
		Scales:        []float64{0.1, 0.2},
	}
}

func BenchmarkExp1BoundedPct(b *testing.B) {
	opt := benchOpt("imdb")
	opt.NumQueries = 30
	for i := 0; i < b.N; i++ {
		if _, err := exp.BoundedPct(opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5VaryG(b *testing.B) {
	for _, ds := range exp.DatasetNames() {
		b.Run(ds, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := exp.Fig5VaryG(benchOpt(ds)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig5VaryQ(b *testing.B) {
	for _, ds := range exp.DatasetNames() {
		b.Run(ds, func(b *testing.B) {
			opt := benchOpt(ds)
			opt.NumQueries = 3
			for i := 0; i < b.N; i++ {
				if _, err := exp.Fig5VaryQ(opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig5VaryA(b *testing.B) {
	for _, ds := range exp.DatasetNames() {
		b.Run(ds, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := exp.Fig5VaryA(benchOpt(ds)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig5Accessed(b *testing.B) {
	for _, ds := range exp.DatasetNames() {
		b.Run(ds, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := exp.Fig5Accessed(benchOpt(ds)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig6Subgraph(b *testing.B) {
	opt := benchOpt("imdb")
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig6(opt, core.Subgraph); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6Simulation(b *testing.B) {
	opt := benchOpt("imdb")
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig6(opt, core.Simulation); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPlans regenerates the QPlan-vs-naive ablation table.
func BenchmarkAblationPlans(b *testing.B) {
	opt := benchOpt("imdb")
	opt.NumQueries = 10
	for i := 0; i < b.N; i++ {
		if _, err := exp.Ablation(opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExp3Algorithms(b *testing.B) {
	opt := benchOpt("imdb")
	opt.NumQueries = 20
	for i := 0; i < b.N; i++ {
		if _, err := exp.Exp3(opt); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- per-algorithm micro-benches (the data behind Fig 5) ----

// benchEnv is the shared fixture: an IMDb-like graph at full scale, its
// index set, and a set of effectively bounded queries for each semantics
// with pre-generated plans. Per-op times aggregate a small query load,
// matching the paper's per-figure averages. Note that at laptop-scale |G|
// this sits near the bounded/direct crossover; the |G| sweep
// (BenchmarkFig5VaryG, cmd/benchrunner -exp fig5-varyg) is where the
// bounded-flat vs baseline-growing separation shows.
type benchEnv struct {
	d        *workload.Dataset
	idx      *access.IndexSet
	subQs    []*pattern.Pattern
	simQs    []*pattern.Pattern
	subPlans []*core.Plan
	simPlans []*core.Plan
}

// buildBenchEnv assembles the fixture for a load of numQueries random
// queries on the full-scale IMDb graph (seed 8 load, like the recorded
// harness runs).
func buildBenchEnv(numQueries int) benchEnv {
	d := workload.IMDb(1.0, 1)
	idx, viols := access.Build(d.G, d.Schema)
	if viols != nil {
		panic(viols[0])
	}
	qs := workload.DefaultQueryGen.Generate(d, numQueries, 8)
	e := benchEnv{d: d, idx: idx}
	for _, q := range qs {
		if p, err := core.NewPlan(q, d.Schema, core.Subgraph); err == nil {
			e.subQs = append(e.subQs, q)
			e.subPlans = append(e.subPlans, p)
		}
		if p, err := core.NewPlan(q, d.Schema, core.Simulation); err == nil {
			e.simQs = append(e.simQs, q)
			e.simPlans = append(e.simPlans, p)
		}
	}
	return e
}

func requireEnv(b *testing.B, e *benchEnv) *benchEnv {
	if len(e.subPlans) == 0 || len(e.simPlans) == 0 {
		b.Fatal("no bounded bench queries found")
	}
	return e
}

var (
	envOnce sync.Once
	env     benchEnv
)

func getEnv(b *testing.B) *benchEnv {
	// One fixed workload: all effectively bounded queries of a 60-query
	// load, so per-op totals here aggregate a whole load, the way the
	// tables report per-load averages.
	envOnce.Do(func() { env = buildBenchEnv(60) })
	return requireEnv(b, &env)
}

func BenchmarkAlgorithms(b *testing.B) {
	mopt := match.SubgraphOptions{MaxMatches: 2_000}
	bopt := match.SubgraphOptions{MaxMatches: 2_000, MaxSteps: 5_000_000}
	b.Run("bvf2", func(b *testing.B) {
		e := getEnv(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, p := range e.subPlans {
				if _, _, err := p.EvalSubgraph(e.d.G, e.idx, mopt); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("vf2", func(b *testing.B) {
		e := getEnv(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, q := range e.subQs {
				match.VF2(q, e.d.G, bopt)
			}
		}
	})
	b.Run("optvf2", func(b *testing.B) {
		e := getEnv(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, q := range e.subQs {
				match.OptVF2(q, e.d.G, e.idx, bopt)
			}
		}
	})
	b.Run("bsim", func(b *testing.B) {
		e := getEnv(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, p := range e.simPlans {
				if _, _, err := p.EvalSim(e.d.G, e.idx); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("gsim", func(b *testing.B) {
		e := getEnv(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, q := range e.simQs {
				match.GSim(q, e.d.G)
			}
		}
	})
	b.Run("optgsim", func(b *testing.B) {
		e := getEnv(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, q := range e.simQs {
				match.OptGSim(q, e.d.G, e.idx)
			}
		}
	})
}

// BenchmarkPlanning measures EBChk + QPlan in isolation (Exp-3's claim:
// milliseconds at most).
func BenchmarkPlanning(b *testing.B) {
	e := getEnv(b)
	b.Run("EBChk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.EBChk(e.subQs[0], e.d.Schema)
		}
	})
	b.Run("QPlan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.NewPlan(e.subQs[0], e.d.Schema, core.Subgraph); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sEBChk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.SEBChk(e.simQs[0], e.d.Schema)
		}
	})
	b.Run("sQPlan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.NewPlan(e.simQs[0], e.d.Schema, core.Simulation); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkIndexBuild measures offline index construction, the
// preprocessing cost the approach amortizes.
func BenchmarkIndexBuild(b *testing.B) {
	d := workload.IMDb(0.1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		access.BuildUnchecked(d.G, d.Schema)
	}
}

// BenchmarkIncrementalMaintenance measures index upkeep under updates:
// ApplyDeltaTx (touching only ΔG ∪ Nb(ΔG)) versus rebuilding every index
// from scratch after the same update.
func BenchmarkIncrementalMaintenance(b *testing.B) {
	lMovieName, lYearName := "movie", "year"
	b.Run("ApplyDeltaTx", func(b *testing.B) {
		d := workload.IMDb(0.1, 1)
		lMovie, lYear := d.In.Intern(lMovieName), d.In.Intern(lYearName)
		year := d.G.NodesByLabel(lYear)[0]
		idx, viols := access.Build(d.G, d.Schema)
		if viols != nil {
			b.Fatal(viols[0])
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ins := &graph.Delta{
				AddNodes: []graph.NodeSpec{{Label: lMovie, Value: graph.IntValue(int64(i))}},
				AddEdges: [][2]graph.NodeID{{graph.NewNodeRef(0), year}},
			}
			res, err := idx.ApplyDeltaTx(d.G, ins)
			if err != nil {
				b.Fatal(err)
			}
			del := &graph.Delta{DelNodes: res.NewIDs}
			if _, err := idx.ApplyDeltaTx(d.G, del); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Rebuild", func(b *testing.B) {
		d := workload.IMDb(0.1, 1)
		lMovie, lYear := d.In.Intern(lMovieName), d.In.Intern(lYearName)
		year := d.G.NodesByLabel(lYear)[0]
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ins := &graph.Delta{
				AddNodes: []graph.NodeSpec{{Label: lMovie, Value: graph.IntValue(int64(i))}},
				AddEdges: [][2]graph.NodeID{{graph.NewNodeRef(0), year}},
			}
			newIDs, err := ins.Apply(d.G)
			if err != nil {
				b.Fatal(err)
			}
			access.BuildUnchecked(d.G, d.Schema)
			del := &graph.Delta{DelNodes: newIDs}
			if _, err := del.Apply(d.G); err != nil {
				b.Fatal(err)
			}
		}
	})
}
