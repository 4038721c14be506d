package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

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

// env bundles a workload dataset, its engine and a test HTTP server.
type env struct {
	d   *workload.Dataset
	idx *access.IndexSet
	st  *store.Store  // the backend of an unsharded env
	rt  *shard.Router // the backend of a sharded env
	eng *runtime.Engine
	srv *Server
	ts  *httptest.Server
}

func newEnv(t *testing.T, d *workload.Dataset, cfg Config) *env {
	t.Helper()
	idx, viols := access.Build(d.G, d.Schema)
	if viols != nil {
		t.Fatalf("index build: %v", viols[0])
	}
	st := store.New(d.G, idx)
	eng, err := runtime.NewFromStore(st, runtime.Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(eng, d.In, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Shutdown(context.Background())
		ts.Close()
		eng.Close()
	})
	return &env{d: d, idx: idx, st: st, eng: eng, srv: srv, ts: ts}
}

// post sends a QueryRequest and decodes the response into out (a
// *QueryResponse on 200, *ErrorResponse otherwise), returning the status.
func (e *env) post(t *testing.T, req QueryRequest, out any) int {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(e.ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode response (status %d): %v", resp.StatusCode, err)
		}
	}
	return resp.StatusCode
}

// TestServerDifferentialDBpedia is the end-to-end differential test: for
// every query of a DBpedia workload load, the answer served over HTTP
// must equal the direct in-process core.Exec answer bit-for-bit — same
// match rows under subgraph semantics, same relation under simulation,
// same access stats — and unbounded queries must be refused with 422.
func TestServerDifferentialDBpedia(t *testing.T) {
	d := workload.DBpedia(0.08, 2)
	e := newEnv(t, d, Config{MaxLimit: 1 << 20, DefaultLimit: 1 << 20})
	queries := workload.DefaultQueryGen.Generate(d, 25, 5)
	if len(queries) == 0 {
		t.Fatal("no queries generated")
	}
	mopt := match.SubgraphOptions{StoreMatches: true, MaxMatches: 1 << 20}

	bounded := 0
	for qi, q := range queries {
		for _, sem := range []core.Semantics{core.Subgraph, core.Simulation} {
			p, planErr := core.NewPlan(q, d.Schema, sem)

			var got QueryResponse
			var herr ErrorResponse
			req := QueryRequest{Pattern: q.String(), Sem: sem.String()}
			if planErr != nil {
				if status := e.post(t, req, &herr); status != http.StatusUnprocessableEntity {
					t.Fatalf("q%d/%s: unbounded query served with status %d (%+v)", qi, sem, status, herr)
				}
				continue
			}
			bounded++
			if status := e.post(t, req, &got); status != http.StatusOK {
				t.Fatalf("q%d/%s: status %d", qi, sem, status)
			}

			wantVars := make([]string, q.NumNodes())
			for i := range wantVars {
				wantVars[i] = q.Name(pattern.Node(i))
			}
			if !reflect.DeepEqual(got.Vars, wantVars) {
				t.Fatalf("q%d/%s: vars = %v, want %v", qi, sem, got.Vars, wantVars)
			}

			switch sem {
			case core.Subgraph:
				res, stats, err := p.EvalSubgraph(d.G, e.idx, mopt)
				if err != nil {
					t.Fatalf("q%d direct: %v", qi, err)
				}
				want := make([][]graph.NodeID, len(res.Matches))
				for i, m := range res.Matches {
					want[i] = append([]graph.NodeID(nil), m...)
				}
				match.SortMatches(want)
				if got.Count != res.Count || got.Complete != res.Completed {
					t.Fatalf("q%d: count/complete = %d/%v, want %d/%v", qi, got.Count, got.Complete, res.Count, res.Completed)
				}
				if len(want) == 0 {
					want = nil
				}
				if !reflect.DeepEqual(got.Matches, want) {
					t.Fatalf("q%d: HTTP matches differ from direct core.Exec\n got: %v\nwant: %v", qi, got.Matches, want)
				}
				if !reflect.DeepEqual(got.Stats, stats) {
					t.Fatalf("q%d: stats = %+v, want %+v", qi, got.Stats, stats)
				}
			case core.Simulation:
				res, stats, err := p.EvalSim(d.G, e.idx)
				if err != nil {
					t.Fatalf("q%d direct sim: %v", qi, err)
				}
				want := make(map[string][]graph.NodeID, q.NumNodes())
				for ui, vs := range res.Sim {
					sorted := append([]graph.NodeID(nil), vs...)
					sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
					want[wantVars[ui]] = sorted
				}
				if !reflect.DeepEqual(got.Sim, want) {
					t.Fatalf("q%d: HTTP sim relation differs from direct core.Exec", qi)
				}
				if got.Pairs != res.Pairs() {
					t.Fatalf("q%d: pairs = %d, want %d", qi, got.Pairs, res.Pairs())
				}
				if !reflect.DeepEqual(got.Stats, stats) {
					t.Fatalf("q%d sim: stats = %+v, want %+v", qi, got.Stats, stats)
				}
			}
		}
	}
	if bounded == 0 {
		t.Fatal("no bounded queries in the load; differential test proved nothing")
	}
	t.Logf("compared %d bounded query/semantics combinations", bounded)
}

// TestServerCache: the second identical query is served from the result
// cache (Cached flag, hit counter), and /stats surfaces the counters.
func TestServerCache(t *testing.T) {
	d := workload.IMDb(0.05, 3)
	e := newEnv(t, d, Config{})
	var q *pattern.Pattern
	for _, cand := range workload.DefaultQueryGen.Generate(d, 20, 7) {
		if _, err := core.NewPlan(cand, d.Schema, core.Subgraph); err == nil {
			q = cand
			break
		}
	}
	if q == nil {
		t.Fatal("no bounded query")
	}

	var first, second QueryResponse
	if status := e.post(t, QueryRequest{Pattern: q.String()}, &first); status != http.StatusOK {
		t.Fatalf("first: status %d", status)
	}
	if first.Cached {
		t.Fatal("first response claims to be cached")
	}
	// Textual variants (comments, whitespace) normalize to the same key.
	variant := "# a comment\n" + strings.ReplaceAll(q.String(), ": ", ":   ")
	if status := e.post(t, QueryRequest{Pattern: variant, Sem: "subgraph"}, &second); status != http.StatusOK {
		t.Fatalf("second: status %d", status)
	}
	if !second.Cached {
		t.Fatal("identical query was not served from the cache")
	}
	second.Cached, second.ElapsedMS = first.Cached, first.ElapsedMS
	if !reflect.DeepEqual(first, second) {
		t.Fatal("cached response differs from the original")
	}

	// A different limit is a different cache key.
	var limited QueryResponse
	if status := e.post(t, QueryRequest{Pattern: q.String(), Limit: 1}, &limited); status != http.StatusOK {
		t.Fatalf("limited: status %d", status)
	}
	if limited.Cached {
		t.Fatal("different limit hit the cache")
	}
	if len(limited.Matches) > 1 {
		t.Fatalf("limit 1 returned %d matches", len(limited.Matches))
	}

	resp, err := http.Get(e.ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Cache.Hits != 1 || st.Cache.Misses < 2 {
		t.Fatalf("cache counters = %+v, want 1 hit / >=2 misses", st.Cache)
	}
	if st.Served != 3 || st.GraphNodes != d.G.NumNodes() {
		t.Fatalf("stats = %+v", st)
	}
	if st.Engine.Submitted != 2 {
		t.Fatalf("engine saw %d submissions, want 2 (cache absorbed the rest)", st.Engine.Submitted)
	}
}

// TestServerErrors covers the 4xx surface: malformed bodies, bad DSL,
// bad semantics, wrong method, and health.
func TestServerErrors(t *testing.T) {
	d := workload.IMDb(0.05, 3)
	e := newEnv(t, d, Config{})

	cases := []struct {
		name   string
		body   string
		status int
	}{
		{"malformed json", "{", http.StatusBadRequest},
		{"empty pattern", `{"pattern": ""}`, http.StatusBadRequest},
		{"bad dsl", `{"pattern": "u1 u2 u3"}`, http.StatusBadRequest},
		{"bad sem", `{"pattern": "u1: movie", "sem": "magic"}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := http.Post(e.ts.URL+"/query", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var herr ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&herr); err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: status %d, want %d (%+v)", tc.name, resp.StatusCode, tc.status, herr)
		}
		if herr.Error == "" {
			t.Fatalf("%s: empty error body", tc.name)
		}
	}

	resp, err := http.Get(e.ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query status = %d", resp.StatusCode)
	}

	resp, err = http.Get(e.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["status"] != "ok" {
		t.Fatalf("healthz = %v", health)
	}
}

// TestServerConcurrentClients hammers one server from many goroutines
// mixing repeat queries (cache hits) and fresh queries while writers
// commit updates beside them. The updates add and delete nodes of a label
// no query reads, so every answer must still match the direct
// evaluation; no request may fail, each writer's epochs must strictly
// increase, and the final epoch must be the last one any writer saw.
func TestServerConcurrentClients(t *testing.T) {
	d := workload.DBpedia(0.05, 4)
	e := newEnv(t, d, Config{CacheSize: 8, EnableUpdates: true})
	var qs []*pattern.Pattern
	for _, cand := range workload.DefaultQueryGen.Generate(d, 40, 9) {
		if _, err := core.NewPlan(cand, d.Schema, core.Subgraph); err == nil {
			qs = append(qs, cand)
		}
	}
	if len(qs) < 3 {
		t.Skipf("only %d bounded queries in the load", len(qs))
	}
	want := make([]QueryResponse, len(qs))
	for i, q := range qs {
		if status := e.post(t, QueryRequest{Pattern: q.String()}, &want[i]); status != http.StatusOK {
			t.Fatalf("warmup q%d: status %d", i, status)
		}
	}

	const clients, writers = 8, 2
	var wg sync.WaitGroup
	errs := make(chan error, clients+writers)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				qi := (c + i) % len(qs)
				body, _ := json.Marshal(QueryRequest{Pattern: qs[qi].String()})
				resp, err := http.Post(e.ts.URL+"/query", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				var got QueryResponse
				err = json.NewDecoder(resp.Body).Decode(&got)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("client %d: status %d", c, resp.StatusCode)
					return
				}
				got.Cached, got.ElapsedMS = want[qi].Cached, want[qi].ElapsedMS
				if !reflect.DeepEqual(got, want[qi]) {
					errs <- fmt.Errorf("client %d: q%d diverged under concurrency", c, qi)
					return
				}
			}
		}(c)
	}
	lastEpochs := make([]uint64, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			update := func(body string) (UpdateResponse, error) {
				var ur UpdateResponse
				resp, err := http.Post(e.ts.URL+"/update", "application/json", strings.NewReader(body))
				if err != nil {
					return ur, err
				}
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					return ur, fmt.Errorf("writer %d: update status %d", w, resp.StatusCode)
				}
				if err := json.NewDecoder(resp.Body).Decode(&ur); err != nil {
					return ur, err
				}
				// Closed loop: this writer's previous update published
				// before this one was sent.
				if ur.Epoch <= lastEpochs[w] {
					return ur, fmt.Errorf("writer %d: epoch %d after %d", w, ur.Epoch, lastEpochs[w])
				}
				lastEpochs[w] = ur.Epoch
				return ur, nil
			}
			for i := 0; i < 15; i++ {
				added, err := update(`{"add_nodes": [{"label": "unqueried"}]}`)
				if err == nil {
					_, err = update(fmt.Sprintf(`{"del_nodes": [%d]}`, added.NewIDs[0]))
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if final := e.getStats(t).Epoch; final != slices.Max(lastEpochs) {
		t.Fatalf("final epoch %d, writers last saw %v", final, lastEpochs)
	}
}

// TestServerRequestTimeout: a request-supplied deadline that has no time
// to run returns 504 without serving a result.
func TestServerRequestTimeout(t *testing.T) {
	d := workload.IMDb(0.05, 3)
	e := newEnv(t, d, Config{Timeout: time.Nanosecond})
	var q *pattern.Pattern
	for _, cand := range workload.DefaultQueryGen.Generate(d, 20, 7) {
		if _, err := core.NewPlan(cand, d.Schema, core.Subgraph); err == nil {
			q = cand
			break
		}
	}
	if q == nil {
		t.Fatal("no bounded query")
	}
	var herr ErrorResponse
	if status := e.post(t, QueryRequest{Pattern: q.String()}, &herr); status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%+v), want 504", status, herr)
	}
}

// TestServerGracefulShutdown: Shutdown stops the listener, in-flight
// requests finish, and the engine keeps working until the caller closes
// it.
func TestServerGracefulShutdown(t *testing.T) {
	d := workload.IMDb(0.05, 3)
	idx, viols := access.Build(d.G, d.Schema)
	if viols != nil {
		t.Fatalf("index build: %v", viols[0])
	}
	eng, err := runtime.New(d.G, idx, runtime.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv := New(eng, d.In, Config{})

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()

	url := "http://" + l.Addr().String()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-done; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v, want http.ErrServerClosed", err)
	}
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Fatal("listener still accepting after Shutdown")
	}
}

// TestServerUnknownLabelDoesNotGrowInterner: queries using labels the
// graph has never seen are rejected with 400, and — because interning is
// permanent — they must not leave entries behind in the shared interner
// (a public daemon would otherwise leak memory to junk queries).
func TestServerUnknownLabelDoesNotGrowInterner(t *testing.T) {
	d := workload.IMDb(0.05, 3)
	e := newEnv(t, d, Config{})
	before := d.In.Len()
	for i := 0; i < 5; i++ {
		var herr ErrorResponse
		req := QueryRequest{Pattern: fmt.Sprintf("u1: no-such-label-%d", i)}
		if status := e.post(t, req, &herr); status != http.StatusBadRequest {
			t.Fatalf("unknown label served with status %d (%+v)", status, herr)
		}
		if !strings.Contains(herr.Error, "unknown label") {
			t.Fatalf("error = %q, want unknown-label diagnosis", herr.Error)
		}
	}
	if after := d.In.Len(); after != before {
		t.Fatalf("interner grew from %d to %d labels on rejected queries", before, after)
	}
	// Misspelled request fields are rejected too, not silently ignored.
	resp, err := http.Post(e.ts.URL+"/query", "application/json",
		strings.NewReader(`{"pattern": "u1: movie", "timeout": 50}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown request field accepted (status %d)", resp.StatusCode)
	}
}

// TestServerSimLimitSharesCache: simulation answers ignore the limit, so
// different limits must collapse onto one cache entry.
func TestServerSimLimitSharesCache(t *testing.T) {
	d := workload.IMDb(0.05, 3)
	e := newEnv(t, d, Config{})
	var q *pattern.Pattern
	for _, cand := range workload.DefaultQueryGen.Generate(d, 30, 7) {
		if _, err := core.NewPlan(cand, d.Schema, core.Simulation); err == nil {
			q = cand
			break
		}
	}
	if q == nil {
		t.Skip("no sim-bounded query in the load")
	}
	var first, second QueryResponse
	if status := e.post(t, QueryRequest{Pattern: q.String(), Sem: "simulation", Limit: 5}, &first); status != http.StatusOK {
		t.Fatalf("first: status %d", status)
	}
	if status := e.post(t, QueryRequest{Pattern: q.String(), Sem: "simulation", Limit: 50}, &second); status != http.StatusOK {
		t.Fatalf("second: status %d", status)
	}
	if !second.Cached {
		t.Fatal("sim query with a different limit missed the cache")
	}
}

// TestServerTimeoutOverflowAndDisabledCache: a huge timeout_ms must not
// overflow into "no deadline", and a disabled cache reads as absent in
// /stats (zero capacity, no miss counting).
func TestServerTimeoutOverflowAndDisabledCache(t *testing.T) {
	d := workload.IMDb(0.05, 3)
	e := newEnv(t, d, Config{Timeout: time.Nanosecond, CacheSize: -1})
	var q *pattern.Pattern
	for _, cand := range workload.DefaultQueryGen.Generate(d, 20, 7) {
		if _, err := core.NewPlan(cand, d.Schema, core.Subgraph); err == nil {
			q = cand
			break
		}
	}
	if q == nil {
		t.Fatal("no bounded query")
	}
	// timeout_ms large enough to overflow Duration(ms)*Millisecond must
	// still be capped by the 1ns server deadline -> 504.
	var herr ErrorResponse
	if status := e.post(t, QueryRequest{Pattern: q.String(), TimeoutMS: 9223372036855}, &herr); status != http.StatusGatewayTimeout {
		t.Fatalf("overflowing timeout_ms: status %d (%+v), want 504", status, herr)
	}
	resp, err := http.Get(e.ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Cache.Capacity != 0 || st.Cache.Hits != 0 || st.Cache.Misses != 0 {
		t.Fatalf("disabled cache reported as %+v, want all-zero", st.Cache)
	}
}

// TestServerMaxStepsBudget: a one-step search budget truncates the match
// phase (Complete=false) instead of letting VF2 run unbounded.
func TestServerMaxStepsBudget(t *testing.T) {
	d := workload.IMDb(0.05, 3)
	e := newEnv(t, d, Config{MaxSteps: 1})
	var q *pattern.Pattern
	for _, cand := range workload.DefaultQueryGen.Generate(d, 20, 7) {
		p, err := core.NewPlan(cand, d.Schema, core.Subgraph)
		if err != nil {
			continue
		}
		res, _, err := p.EvalSubgraph(d.G, e.idx, match.SubgraphOptions{})
		if err == nil && res.Count > 0 {
			q = cand
			break
		}
	}
	if q == nil {
		t.Skip("no bounded query with matches in the load")
	}
	var got QueryResponse
	if status := e.post(t, QueryRequest{Pattern: q.String()}, &got); status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if got.Complete {
		t.Fatal("one-step budget reported a complete search")
	}
}

// TestUnboundedPatternCachedNegatively pins the negative cache entry: an
// unbounded pattern is planned once, and every request for it — the
// first included — is answered with a 422 from the entry's plan error,
// never reaching the engine. The body is byte-identical to the one an
// evaluation of the pattern would produce.
func TestUnboundedPatternCachedNegatively(t *testing.T) {
	d := workload.IMDb(0.25, 1)
	e := newEnv(t, d, Config{})
	var src string
	for _, q := range workload.DefaultQueryGen.Generate(d, 50, 3) {
		if _, err := core.NewPlan(q, d.Schema, core.Subgraph); err != nil {
			src = q.String()
			break
		}
	}
	if src == "" {
		t.Fatal("no unbounded pattern generated")
	}
	post := func() (int, []byte) {
		t.Helper()
		body, err := json.Marshal(QueryRequest{Pattern: src})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(e.ts.URL+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out
	}
	before := e.eng.Stats().Submitted
	st1, body1 := post()
	st2, body2 := post()
	if st1 != http.StatusUnprocessableEntity || st2 != http.StatusUnprocessableEntity {
		t.Fatalf("statuses %d, %d; want 422 twice", st1, st2)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("repeat body %q, first %q", body2, body1)
	}
	if got := e.eng.Stats().Submitted; got != before {
		t.Fatalf("engine.Submitted moved %d -> %d: an unbounded repeat reached Eval", before, got)
	}
	// The body an evaluation produces: the engine plans the pattern and
	// fails with the same error.
	q, err := pattern.Parse(src, d.In)
	if err != nil {
		t.Fatal(err)
	}
	res := e.eng.Eval(context.Background(), runtime.Query{Pattern: q, Sem: core.Subgraph})
	if !errors.Is(res.Err, core.ErrNotBounded) {
		t.Fatalf("evaluation error %v, want ErrNotBounded", res.Err)
	}
	rec := httptest.NewRecorder()
	e.srv.writeError(rec, http.StatusUnprocessableEntity, res.Err)
	if !bytes.Equal(rec.Body.Bytes(), body1) {
		t.Fatalf("cached body %q, evaluated %q", body1, rec.Body.Bytes())
	}
}
