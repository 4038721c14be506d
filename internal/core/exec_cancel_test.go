package core

import (
	"context"
	"reflect"
	"strconv"
	"testing"

	"boundedg/internal/access"
	"boundedg/internal/ctxtest"
	"boundedg/internal/workload"
)

// cancelFixture returns a workload graph with its index set and one
// bounded subgraph plan that has dependent fetches and edge checks.
func cancelFixture(t *testing.T, scale float64) (*workload.Dataset, *access.IndexSet, *Plan) {
	t.Helper()
	d := workload.DBpedia(scale, 11)
	idx, viols := access.Build(d.G, d.Schema)
	if viols != nil {
		t.Fatalf("index build: %v", viols[0])
	}
	for _, q := range workload.DefaultQueryGen.Generate(d, 40, 19) {
		p, err := NewPlan(q, d.Schema, Subgraph)
		if err != nil {
			continue
		}
		if len(p.Ops) >= 3 && len(p.EdgeChecks) >= 2 {
			return d, idx, p
		}
	}
	t.Fatal("no bounded query with enough plan structure in the load")
	return nil, nil, nil
}

// TestExecWithPreCancelled: an already-cancelled context returns its error
// before any index is probed.
func TestExecWithPreCancelled(t *testing.T) {
	d, idx, p := cancelFixture(t, 0.05)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	bg, stats, err := p.ExecWith(d.G, idx, &ExecConfig{Ctx: ctx})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if bg != nil || stats != nil {
		t.Fatalf("cancelled execution leaked results: bg=%v stats=%v", bg, stats)
	}
}

// TestExecWithCancelMidEvaluation aborts one bounded query on a workload
// graph at EVERY context poll point in turn — mid fetch, mid GQ build, mid
// edge verification — unsharded and on each swept cut of its row
// partition, and checks that (a) the abort surfaces context.Canceled, and
// (b) the shared scratch is restored well enough that the next,
// uncancelled execution with the same scratch reproduces the reference
// result bit-for-bit.
func TestExecWithCancelMidEvaluation(t *testing.T) {
	d, idx, p := cancelFixture(t, 0.25)
	want, wantStats, err := p.Exec(d.G, idx)
	if err != nil {
		t.Fatalf("reference Exec: %v", err)
	}

	cuts := map[string]ExecConfig{"unsharded": {}}
	for k, cfg := range newGQInstance(t, d.G, idx).shards {
		cuts["shards="+strconv.Itoa(k)] = *cfg
	}
	for name, proto := range cuts {
		scratch := NewExecScratch()
		exec := func(ctx context.Context) (*BoundedGraph, *ExecStats, error) {
			cfg := proto
			cfg.Scratch, cfg.Ctx = scratch, ctx
			return p.ExecWith(d.G, idx, &cfg)
		}
		// Count the poll points of a full run on this cut.
		probe := &ctxtest.CountingCtx{After: 1 << 40}
		if _, _, err := exec(probe); err != nil {
			t.Fatalf("probe run (%s): %v", name, err)
		}
		total := probe.Calls()
		if total < 4 {
			t.Fatalf("%s: only %d context polls in a full run; fixture too small", name, total)
		}

		for k := int64(0); k < total; k++ {
			bg, stats, err := exec(&ctxtest.CountingCtx{After: k})
			if err != context.Canceled {
				t.Fatalf("%s abort@%d: err = %v, want context.Canceled", name, k, err)
			}
			if bg != nil || stats != nil {
				t.Fatalf("%s abort@%d leaked results", name, k)
			}
			// The scratch must be clean: an uncancelled rerun with the
			// same scratch must match the reference exactly.
			gotBG, gotStats, err := exec(nil)
			if err != nil {
				t.Fatalf("%s rerun after abort@%d: %v", name, k, err)
			}
			if !reflect.DeepEqual(gotStats, wantStats) {
				t.Fatalf("%s rerun after abort@%d: stats = %+v, want %+v", name, k, gotStats, wantStats)
			}
			if !reflect.DeepEqual(gotBG.Cands, want.Cands) || !reflect.DeepEqual(gotBG.ToOrig, want.ToOrig) {
				t.Fatalf("%s rerun after abort@%d: scratch was poisoned (GQ differs)", name, k)
			}
		}
	}
}

// TestExecWithPoolScratchSurvivesCancel: executions drawing from the
// process-wide scratch pool must not poison the pool when cancelled.
func TestExecWithPoolScratchSurvivesCancel(t *testing.T) {
	d, idx, p := cancelFixture(t, 0.05)
	want, wantStats, err := p.Exec(d.G, idx)
	if err != nil {
		t.Fatalf("reference Exec: %v", err)
	}
	probe := &ctxtest.CountingCtx{After: 1 << 40}
	if _, _, err := p.ExecWith(d.G, idx, &ExecConfig{Ctx: probe}); err != nil {
		t.Fatalf("probe run: %v", err)
	}
	total := probe.Calls()
	if total > 24 {
		total = 24
	}
	for k := int64(0); k < total; k++ {
		ctx := &ctxtest.CountingCtx{After: k}
		if _, _, err := p.ExecWith(d.G, idx, &ExecConfig{Ctx: ctx}); err != context.Canceled {
			t.Fatalf("abort@%d: err = %v, want context.Canceled", k, err)
		}
		got, gotStats, err := p.Exec(d.G, idx)
		if err != nil {
			t.Fatalf("rerun after abort@%d: %v", k, err)
		}
		if !reflect.DeepEqual(gotStats, wantStats) || !reflect.DeepEqual(got.Cands, want.Cands) {
			t.Fatalf("rerun after abort@%d differs from reference", k)
		}
	}
}
