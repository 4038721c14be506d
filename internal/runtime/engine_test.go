package runtime

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"boundedg/internal/access"
	"boundedg/internal/core"
	"boundedg/internal/ctxtest"
	"boundedg/internal/graph"
	"boundedg/internal/match"
	"boundedg/internal/pattern"
	"boundedg/internal/workload"
)

// fixture bundles a dataset, its indices and the bounded queries of a
// random load, per semantics.
type fixture struct {
	d     *workload.Dataset
	idx   *access.IndexSet
	subQs []*pattern.Pattern
	simQs []*pattern.Pattern
}

func newFixture(t *testing.T, scale float64, numQueries int, seed int64) *fixture {
	t.Helper()
	d := workload.IMDb(scale, seed)
	idx, viols := access.Build(d.G, d.Schema)
	if viols != nil {
		t.Fatalf("index build: %v", viols[0])
	}
	f := &fixture{d: d, idx: idx}
	for _, q := range workload.DefaultQueryGen.Generate(d, numQueries, seed+7) {
		if core.EBnd(q, d.Schema, core.Subgraph).Bounded {
			f.subQs = append(f.subQs, q)
		}
		if core.EBnd(q, d.Schema, core.Simulation).Bounded {
			f.simQs = append(f.simQs, q)
		}
	}
	if len(f.subQs) == 0 || len(f.simQs) == 0 {
		t.Fatalf("no bounded queries in load (sub=%d sim=%d)", len(f.subQs), len(f.simQs))
	}
	return f
}

var mopt = match.SubgraphOptions{MaxMatches: 10_000, StoreMatches: true}

// canonMatches returns a lexicographically sorted copy of the matches:
// the engine matches inside a frozen GQ whose sorted adjacency changes
// enumeration order, so equality is on the match SET.
func canonMatches(ms [][]graph.NodeID) [][]graph.NodeID {
	out := make([][]graph.NodeID, len(ms))
	for i, m := range ms {
		out[i] = append([]graph.NodeID(nil), m...)
	}
	match.SortMatches(out)
	return out
}

// TestEngineMatchesSerial is the differential test: for every bounded
// query of a randomized load, the engine's result (with cross-query
// parallelism) must be identical to the serial
// Plan.Exec/match path — same matches, same relation, same stats.
func TestEngineMatchesSerial(t *testing.T) {
	f := newFixture(t, 0.15, 40, 3)
	e, err := New(f.d.G, f.idx, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	for i, q := range f.subQs {
		p, err := core.NewPlan(q, f.d.Schema, core.Subgraph)
		if err != nil {
			t.Fatalf("plan sub[%d]: %v", i, err)
		}
		wantRes, wantStats, err := p.EvalSubgraph(f.d.G, f.idx, mopt)
		if err != nil {
			t.Fatalf("serial sub[%d]: %v", i, err)
		}
		got := e.Eval(nil, Query{Pattern: q, Sem: core.Subgraph, Sub: mopt})
		if got.Err != nil {
			t.Fatalf("engine sub[%d]: %v", i, got.Err)
		}
		if got.Sub.Count != wantRes.Count || !reflect.DeepEqual(canonMatches(got.Sub.Matches), canonMatches(wantRes.Matches)) {
			t.Fatalf("sub[%d]: engine matches differ\n got %v\nwant %v", i, got.Sub.Matches, wantRes.Matches)
		}
		if !reflect.DeepEqual(got.Stats, wantStats) {
			t.Fatalf("sub[%d]: stats differ: got %+v want %+v", i, got.Stats, wantStats)
		}
	}
	for i, q := range f.simQs {
		p, err := core.NewPlan(q, f.d.Schema, core.Simulation)
		if err != nil {
			t.Fatalf("plan sim[%d]: %v", i, err)
		}
		wantRes, wantStats, err := p.EvalSim(f.d.G, f.idx)
		if err != nil {
			t.Fatalf("serial sim[%d]: %v", i, err)
		}
		got := e.Eval(nil, Query{Pattern: q, Sem: core.Simulation})
		if got.Err != nil {
			t.Fatalf("engine sim[%d]: %v", i, got.Err)
		}
		if got.Sim.Matched != wantRes.Matched || !reflect.DeepEqual(got.Sim.Sim, wantRes.Sim) {
			t.Fatalf("sim[%d]: engine relation differs\n got %v\nwant %v", i, got.Sim.Sim, wantRes.Sim)
		}
		if !reflect.DeepEqual(got.Stats, wantStats) {
			t.Fatalf("sim[%d]: stats differ: got %+v want %+v", i, got.Stats, wantStats)
		}
	}
}

// TestEngineConcurrentStress hammers one engine from more goroutines than
// it has slots with a mixed workload and checks every result against
// precomputed serial answers. Run under -race this exercises the shared
// graph, index set, frozen snapshot and scratch pool.
func TestEngineConcurrentStress(t *testing.T) {
	f := newFixture(t, 0.1, 30, 11)
	e, err := New(f.d.G, f.idx, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	wantSub := make([]*match.SubgraphResult, len(f.subQs))
	for i, q := range f.subQs {
		p, err := core.NewPlan(q, f.d.Schema, core.Subgraph)
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := p.EvalSubgraph(f.d.G, f.idx, mopt)
		if err != nil {
			t.Fatal(err)
		}
		res.Matches = canonMatches(res.Matches)
		wantSub[i] = res
	}
	wantSim := make([]*match.SimResult, len(f.simQs))
	for i, q := range f.simQs {
		p, err := core.NewPlan(q, f.d.Schema, core.Simulation)
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := p.EvalSim(f.d.G, f.idx)
		if err != nil {
			t.Fatal(err)
		}
		wantSim[i] = res
	}

	const rounds = 5
	var wg sync.WaitGroup
	errs := make(chan string, rounds*(len(f.subQs)+len(f.simQs)))
	for r := 0; r < rounds; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, q := range f.subQs {
				got := e.Eval(nil, Query{Pattern: q, Sem: core.Subgraph, Sub: mopt})
				if got.Err != nil {
					errs <- got.Err.Error()
					continue
				}
				if got.Sub.Count != wantSub[i].Count || !reflect.DeepEqual(canonMatches(got.Sub.Matches), wantSub[i].Matches) {
					errs <- "subgraph result diverged under concurrency"
				}
			}
			for i, q := range f.simQs {
				got := e.Eval(nil, Query{Pattern: q, Sem: core.Simulation})
				if got.Err != nil {
					errs <- got.Err.Error()
					continue
				}
				if got.Sim.Matched != wantSim[i].Matched || !reflect.DeepEqual(got.Sim.Sim, wantSim[i].Sim) {
					errs <- "simulation relation diverged under concurrency"
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
	st := e.Stats()
	want := uint64(rounds * (len(f.subQs) + len(f.simQs)))
	if st.Submitted != want || st.Completed != want || st.Failed != 0 {
		t.Fatalf("stats = %+v, want %d submitted/completed, 0 failed", st, want)
	}
}

// evalAll evaluates every query under ctx on a goroutine of its own and
// returns the results in input order.
func evalAll(e *Engine, ctx context.Context, qs []Query) []Result {
	out := make([]Result, len(qs))
	var wg sync.WaitGroup
	for i, q := range qs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = e.Eval(ctx, q)
		}()
	}
	wg.Wait()
	return out
}

// TestEngineBatchAndOptions covers concurrent callers getting their own
// results, pre-built plans, and nil-pattern errors.
func TestEngineBatchAndOptions(t *testing.T) {
	f := newFixture(t, 0.1, 20, 5)
	e, err := New(f.d.G, f.idx, Config{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	qs := make([]Query, 0, len(f.simQs))
	for _, q := range f.simQs {
		qs = append(qs, Query{Pattern: q, Sem: core.Simulation})
	}
	for i, r := range evalAll(e, nil, qs) {
		if r.Err != nil {
			t.Fatalf("batch[%d]: %v", i, r.Err)
		}
		if r.Sim == nil || r.Stats == nil || r.BG == nil {
			t.Fatalf("batch[%d]: incomplete result %+v", i, r)
		}
	}

	// A pre-built plan is used as-is.
	p, err := core.NewPlan(f.simQs[0], f.d.Schema, core.Simulation)
	if err != nil {
		t.Fatal(err)
	}
	r := e.Eval(nil, Query{Pattern: f.simQs[0], Sem: core.Simulation, Plan: p})
	if r.Err != nil || r.Sim == nil {
		t.Fatalf("pre-planned eval failed: %+v", r)
	}

	// Nil pattern and unbounded patterns surface errors.
	if r := e.Eval(nil, Query{}); r.Err != ErrNilQuery {
		t.Fatalf("nil pattern err = %v", r.Err)
	}
}

// TestEngineClose: Close bars new evaluations with ErrClosed at once, but
// returns only after the evaluations in flight have finished.
func TestEngineClose(t *testing.T) {
	f := newFixture(t, 0.1, 10, 9)
	e, err := New(f.d.G, f.idx, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Pattern: f.simQs[0], Sem: core.Simulation}
	if r := e.Eval(nil, q); r.Err != nil {
		t.Fatalf("eval before Close: %v", r.Err)
	}
	e.slots <- struct{}{} // an evaluation in flight
	closed := make(chan struct{})
	go func() {
		e.Close()
		close(closed)
	}()
	<-e.closed
	if r := e.Eval(nil, q); r.Err != ErrClosed {
		t.Fatalf("eval after Close err = %v, want ErrClosed", r.Err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while an evaluation was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	<-e.slots // the evaluation finishes
	<-closed
	e.Close() // double Close is a no-op
	if st := e.Stats(); st.Submitted != 1 || st.Completed != 1 {
		t.Fatalf("stats = %+v, want the one admitted query", st)
	}
}

// TestEngineEvalCloseRace is the regression test for closing an engine
// under fire: many goroutines call Eval while two goroutines race Close.
// Nothing may panic or hang, each result is either a normal answer or
// ErrClosed, and every admitted query completes.
func TestEngineEvalCloseRace(t *testing.T) {
	f := newFixture(t, 0.05, 10, 13)
	for round := 0; round < 4; round++ {
		e, err := New(f.d.G, f.idx, Config{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		const callers = 8
		var wg sync.WaitGroup
		start := make(chan struct{})
		results := make([][]Result, callers)
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				<-start
				for i := 0; i < 20; i++ {
					q := f.simQs[(c+i)%len(f.simQs)]
					results[c] = append(results[c], e.Eval(nil, Query{Pattern: q, Sem: core.Simulation}))
				}
			}(c)
		}
		// Two goroutines race Close against the callers (and each other:
		// Close must be idempotent under concurrency).
		var cwg sync.WaitGroup
		for c := 0; c < 2; c++ {
			cwg.Add(1)
			go func() {
				defer cwg.Done()
				<-start
				e.Close()
			}()
		}
		close(start)
		wg.Wait()
		cwg.Wait()
		ok, closed := 0, 0
		for _, rs := range results {
			for _, r := range rs {
				switch r.Err {
				case nil:
					ok++
				case ErrClosed:
					closed++
				default:
					t.Fatalf("unexpected eval result: %v", r.Err)
				}
			}
		}
		st := e.Stats()
		if st.Submitted != st.Completed {
			t.Fatalf("engine lost queries: %+v (ok=%d closed=%d)", st, ok, closed)
		}
		if uint64(ok) != st.Completed-st.Failed {
			t.Fatalf("result accounting off: ok=%d stats=%+v", ok, st)
		}
	}
}

// TestEngineWaitingCallerCancels: a caller blocked on a full engine
// returns its context's error when the context dies, without evaluating —
// the engine's counters stay untouched.
func TestEngineWaitingCallerCancels(t *testing.T) {
	f := newFixture(t, 0.1, 10, 19)
	e, err := New(f.d.G, f.idx, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.slots <- struct{}{} // the only slot is taken
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan Result, 1)
	go func() { done <- e.Eval(ctx, Query{Pattern: f.subQs[0], Sem: core.Subgraph, Sub: mopt}) }()
	select {
	case r := <-done:
		t.Fatalf("Eval returned %+v while every slot was taken", r)
	case <-time.After(20 * time.Millisecond):
	}
	cancel()
	r := <-done
	<-e.slots
	if r.Err != context.Canceled || r.BG != nil || r.Stats != nil {
		t.Fatalf("waiting Eval = %+v, want a bare context.Canceled", r)
	}
	if st := e.Stats(); st != (Stats{}) {
		t.Fatalf("a query that never got a slot touched the engine: %+v", st)
	}
}

// TestEngineContextCancellation covers the acceptance criterion: a query
// submitted with an already-cancelled context resolves promptly with the
// cancellation error and performs no evaluation (the engine's access
// counters stay untouched), and a batch cancelled in flight returns
// without evaluating the queries still waiting for a slot.
func TestEngineContextCancellation(t *testing.T) {
	f := newFixture(t, 0.3, 30, 17)
	e, err := New(f.d.G, f.idx, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := e.Eval(ctx, Query{Pattern: f.subQs[0], Sem: core.Subgraph, Sub: mopt})
	if r.Err != context.Canceled {
		t.Fatalf("pre-cancelled Eval err = %v, want context.Canceled", r.Err)
	}
	if r.BG != nil || r.Stats != nil || r.Sub != nil {
		t.Fatalf("pre-cancelled Eval leaked a result: %+v", r)
	}
	if st := e.Stats(); st.NodesAccessed != 0 || st.EdgesAccessed != 0 {
		t.Fatalf("pre-cancelled query touched the graph: %+v", st)
	}

	// Deadline expiry surfaces as DeadlineExceeded.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if r := e.Eval(dctx, Query{Pattern: f.subQs[0], Sem: core.Subgraph, Sub: mopt}); r.Err != context.DeadlineExceeded {
		t.Fatalf("expired-deadline Eval err = %v, want context.DeadlineExceeded", r.Err)
	}

	// Cancel a large batch as soon as the first result lands: the batch
	// must return, and every result is either complete or Canceled.
	bctx, bcancel := context.WithCancel(context.Background())
	defer bcancel()
	var qs []Query
	for i := 0; i < 40; i++ {
		qs = append(qs, Query{Pattern: f.subQs[i%len(f.subQs)], Sem: core.Subgraph, Sub: mopt})
	}
	before := e.Stats().Completed
	go func() {
		for e.Stats().Completed == before {
			time.Sleep(50 * time.Microsecond)
		}
		bcancel()
	}()
	cancelled := 0
	for i, r := range evalAll(e, bctx, qs) {
		switch r.Err {
		case nil:
			if r.Sub == nil {
				t.Fatalf("batch[%d]: completed without a result", i)
			}
		case context.Canceled:
			cancelled++
		default:
			t.Fatalf("batch[%d]: unexpected error %v", i, r.Err)
		}
	}
	t.Logf("batch: %d/%d cancelled", cancelled, len(qs))
}

// TestEngineCancelAtMatchBoundary: a context that dies exactly when the
// fetch phase completes must surface the cancellation error instead of a
// late match result — the matchers don't poll the context, so the engine
// checks at the phase boundary.
func TestEngineCancelAtMatchBoundary(t *testing.T) {
	f := newFixture(t, 0.1, 20, 21)
	e, err := New(f.d.G, f.idx, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	q := Query{Pattern: f.subQs[0], Sem: core.Subgraph, Sub: mopt}

	// Probe how many polls a full run makes: every ExecWith poll, then
	// one check before matching and one after.
	probe := &ctxtest.CountingCtx{After: 1 << 40}
	if r := e.Eval(probe, q); r.Err != nil {
		t.Fatalf("probe: %v", r.Err)
	}
	fetchPolls := probe.Calls() - 2

	r := e.Eval(&ctxtest.CountingCtx{After: fetchPolls}, q)
	if r.Err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled at the match boundary", r.Err)
	}
	if r.Sub != nil || r.BG != nil {
		t.Fatalf("cancelled query leaked a result: %+v", r)
	}
	// Only a cancel after the fetch phase keeps its access accounting, so
	// this one landed on the boundary, not inside the fetch.
	if r.Stats == nil {
		t.Fatal("cancel landed inside the fetch phase, not at the match boundary")
	}
	// With one more allowed poll the same query completes, proving the
	// probe really did land on the boundary.
	if r := e.Eval(&ctxtest.CountingCtx{After: 1 << 40}, q); r.Err != nil || r.Sub == nil {
		t.Fatalf("uncancelled rerun failed: %+v", r)
	}
}
