package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"boundedg/internal/access"
	"boundedg/internal/graph"
	"boundedg/internal/runtime"
	"boundedg/internal/store"
	"boundedg/internal/workload"
)

// benchServer builds a server over a fresh IMDb load and returns it with
// the heaviest bounded subgraph query of the generated set (most data
// accessed — the query where caching matters most) and a pad-region edge
// flipper whose deltas stay disjoint from that query's footprint.
func benchServer(b *testing.B, cfg Config) (*Server, []byte, func()) {
	b.Helper()
	cfg.EnableUpdates = true
	d := workload.IMDb(0.1, 9)
	idx, viols := access.Build(d.G, d.Schema)
	if viols != nil {
		b.Fatalf("index build: %v", viols[0])
	}
	st := store.New(d.G, idx)
	eng, err := runtime.NewFromStore(st, runtime.Config{Workers: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(eng.Close)
	srv := New(eng, d.In, cfg)

	do := func(path string, body []byte, out any) int {
		b.Helper()
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		if out != nil && rec.Code == http.StatusOK {
			if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
				b.Fatal(err)
			}
		}
		return rec.Code
	}

	// Pick the generated query that touches the most data.
	var best []byte
	bestCost := -1
	for _, q := range workload.DefaultQueryGen.Generate(d, 30, 4) {
		body, err := json.Marshal(QueryRequest{Pattern: q.String(), Sem: "subgraph"})
		if err != nil {
			b.Fatal(err)
		}
		var resp QueryResponse
		if do("/query", body, &resp) != http.StatusOK || resp.Stats == nil {
			continue
		}
		if cost := resp.Stats.Accessed(); cost > bestCost {
			bestCost, best = cost, body
		}
	}
	if best == nil {
		b.Fatal("no bounded query in the load")
	}

	// Pad region: two fresh connected nodes. Labels are tried in order
	// until the access bounds accept the insertion; whether flips on the
	// pad are disjoint from the benchmark query's footprint is verified
	// by the revalidated benchmark itself (it insists on cache hits).
	snap := st.Acquire()
	labels := snap.G.Labels()
	snap.Release()
	var pad [2]graph.NodeID
	padOK := false
	for _, l := range labels {
		delta := &graph.Delta{
			AddNodes: []graph.NodeSpec{{Label: l}, {Label: l}},
			AddEdges: [][2]graph.NodeID{{graph.NewNodeRef(0), graph.NewNodeRef(1)}},
		}
		var buf bytes.Buffer
		if err := delta.WriteJSON(&buf, d.In); err != nil {
			b.Fatal(err)
		}
		var ur UpdateResponse
		if do("/update", buf.Bytes(), &ur) == http.StatusOK {
			pad[0], pad[1] = ur.NewIDs[0], ur.NewIDs[1]
			padOK = true
			break
		}
	}
	if !padOK {
		b.Fatal("no label has headroom for the pad region")
	}

	hasEdge := true
	flip := func() {
		b.Helper()
		delta := &graph.Delta{}
		if hasEdge {
			delta.DelEdges = [][2]graph.NodeID{{pad[0], pad[1]}}
		} else {
			delta.AddEdges = [][2]graph.NodeID{{pad[0], pad[1]}}
		}
		var buf bytes.Buffer
		if err := delta.WriteJSON(&buf, d.In); err != nil {
			b.Fatal(err)
		}
		if code := do("/update", buf.Bytes(), nil); code != http.StatusOK {
			b.Fatalf("pad flip rejected with status %d", code)
		}
		hasEdge = !hasEdge
	}
	return srv, best, flip
}

// BenchmarkCacheRevalidate compares serving one stale-but-promotable
// query from the cache against recomputing it. "fresh" runs the query on
// a cache-disabled server (full bounded execution per request);
// "revalidated" runs it on a caching server where every iteration first
// applies a footprint-disjoint pad update — so each request finds a
// stale entry and must prove disjointness against the recent-deltas ring
// before serving it. Both paths include HTTP handling and response
// marshaling. The revalidated path is required to actually hit: an
// iteration that recomputes fails the benchmark.
func BenchmarkCacheRevalidate(b *testing.B) {
	b.Run("fresh", func(b *testing.B) {
		srv, body, _ := benchServer(b, Config{CacheSize: -1, MaxLimit: 1 << 20, DefaultLimit: 1 << 20})
		h := srv.Handler()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d", rec.Code)
			}
		}
	})
	b.Run("revalidated", func(b *testing.B) {
		srv, body, flip := benchServer(b, Config{MaxLimit: 1 << 20, DefaultLimit: 1 << 20})
		h := srv.Handler()
		// Prime the cache entry the iterations will keep promoting.
		req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
		h.ServeHTTP(httptest.NewRecorder(), req)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			flip() // stale the entry with a disjoint delta
			b.StartTimer()
			req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d", rec.Code)
			}
			var resp QueryResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				b.Fatal(err)
			}
			if !resp.Cached {
				b.Fatal("iteration recomputed instead of revalidating")
			}
		}
	})
}
