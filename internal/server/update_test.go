package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"boundedg/internal/access"
	"boundedg/internal/graph"
	"boundedg/internal/workload"
)

// miniDataset builds a tiny movies/years dataset with full control over
// the answer set of the fixed test pattern.
func miniDataset(t *testing.T, movieBound int) (*workload.Dataset, []graph.NodeID) {
	t.Helper()
	g := graph.New(nil)
	in := g.Interner()
	year := in.Intern("year")
	movie := in.Intern("movie")
	var years []graph.NodeID
	for i := 0; i < 3; i++ {
		years = append(years, g.AddNode(year, graph.IntValue(int64(2010+i))))
	}
	for i := 0; i < 4; i++ {
		m := g.AddNode(movie, graph.IntValue(int64(i)))
		g.MustAddEdge(m, years[i%3])
	}
	schema := access.NewSchema(
		access.MustNew(nil, year, 10),
		access.MustNew([]graph.Label{year}, movie, movieBound),
	)
	return &workload.Dataset{Name: "mini", In: in, G: g, Schema: schema}, years
}

const miniPattern = "m: movie\ny: year\nm -> y"

func (e *env) postUpdate(t *testing.T, body string, out any) int {
	t.Helper()
	resp, err := http.Post(e.ts.URL+"/update", "application/json", strings.NewReader(body))
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

func (e *env) getStats(t *testing.T) StatsResponse {
	t.Helper()
	resp, err := http.Get(e.ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestServerCacheInvalidationOnUpdate is the stale-cache regression test:
// after POST /update lands, the query cache — whose entries keep the
// parsed pattern and its plan across epochs — may not reproduce a
// pre-update answer.
func TestServerCacheInvalidationOnUpdate(t *testing.T) {
	d, years := miniDataset(t, 10)
	e := newEnv(t, d, Config{EnableUpdates: true})

	req := QueryRequest{Pattern: miniPattern}
	var first QueryResponse
	if st := e.post(t, req, &first); st != http.StatusOK {
		t.Fatalf("status %d", st)
	}
	if first.Cached {
		t.Fatal("first answer claims cached")
	}
	// Warm the cache entry: the compiled pattern and plan, and the answer.
	var warm QueryResponse
	if e.post(t, req, &warm); !warm.Cached {
		t.Fatal("repeat answer not cached")
	}
	if !reflect.DeepEqual(warm.Matches, first.Matches) {
		t.Fatal("cached answer differs")
	}

	// Insert a movie wired to a year: one more (m, y) match.
	var up UpdateResponse
	body := fmt.Sprintf(`{"add_nodes": [{"label": "movie"}], "add_edges": [[-1, %d]]}`, years[0])
	if st := e.postUpdate(t, body, &up); st != http.StatusOK {
		t.Fatalf("update status %d", st)
	}
	if up.Epoch != 1 || len(up.NewIDs) != 1 {
		t.Fatalf("update response %+v", up)
	}

	var after QueryResponse
	if st := e.post(t, req, &after); st != http.StatusOK {
		t.Fatalf("status %d", st)
	}
	if after.Cached {
		t.Fatal("post-update answer served from the pre-update cache")
	}
	if after.Count != first.Count+1 {
		t.Fatalf("post-update count = %d, want %d", after.Count, first.Count+1)
	}
	found := false
	for _, row := range after.Matches {
		if row[0] == up.NewIDs[0] {
			found = true
		}
	}
	if !found {
		t.Fatal("inserted node missing from the post-update answer (stale plan/pattern cache?)")
	}
	// The new epoch's answer caches normally again.
	var again QueryResponse
	if e.post(t, req, &again); !again.Cached || again.Count != after.Count {
		t.Fatalf("re-query: cached=%v count=%d", again.Cached, again.Count)
	}

	// Deletions invalidate too.
	if st := e.postUpdate(t, fmt.Sprintf(`{"del_nodes": [%d]}`, up.NewIDs[0]), &UpdateResponse{}); st != http.StatusOK {
		t.Fatalf("delete status %d", st)
	}
	var back QueryResponse
	if e.post(t, req, &back); back.Cached || back.Count != first.Count {
		t.Fatalf("post-delete: cached=%v count=%d, want fresh %d", back.Cached, back.Count, first.Count)
	}
}

func TestServerUpdateStatuses(t *testing.T) {
	d, years := miniDataset(t, 2) // (year)->movie bound 2: y0 already has 2
	e := newEnv(t, d, Config{EnableUpdates: true})

	// Violation: third movie on years[0] → 422 with the violation listed,
	// and the graph stays untouched.
	before := e.getStats(t)
	var errResp ErrorResponse
	body := fmt.Sprintf(`{"add_nodes": [{"label": "movie"}], "add_edges": [[-1, %d]]}`, years[0])
	if st := e.postUpdate(t, body, &errResp); st != http.StatusUnprocessableEntity {
		t.Fatalf("violation status %d (%+v)", st, errResp)
	}
	if len(errResp.Violations) != 1 {
		t.Fatalf("violations = %v", errResp.Violations)
	}
	// Structural conflict: deleting a nonexistent edge → 409.
	if st := e.postUpdate(t, `{"del_edges": [[0, 1]]}`, &errResp); st != http.StatusConflict {
		t.Fatalf("structural status %d", st)
	}
	// Malformed bodies → 400.
	for _, bad := range []string{`{"nodes": []}`, `not json`, `{"del_nodes": [-3]}`} {
		if st := e.postUpdate(t, bad, &errResp); st != http.StatusBadRequest {
			t.Fatalf("body %q: status %d", bad, st)
		}
	}
	after := e.getStats(t)
	if after.Epoch != before.Epoch {
		t.Fatalf("rejected updates consumed epochs: %d -> %d", before.Epoch, after.Epoch)
	}
	if after.GraphNodes != before.GraphNodes || after.GraphEdges != before.GraphEdges {
		t.Fatal("rejected updates changed the graph")
	}
	if after.Updates.RejectedViolation != 1 || after.Updates.RejectedError != 1 {
		t.Fatalf("update stats = %+v", after.Updates)
	}

	// A valid update advances the epoch and the counters.
	if st := e.postUpdate(t, fmt.Sprintf(`{"add_nodes": [{"label": "movie"}], "add_edges": [[-1, %d]]}`, years[2]), &UpdateResponse{}); st != http.StatusOK {
		t.Fatalf("valid update status %d", st)
	}
	final := e.getStats(t)
	if final.Epoch != before.Epoch+1 || final.Updates.Applied != 1 {
		t.Fatalf("final stats: epoch %d applied %d", final.Epoch, final.Updates.Applied)
	}
	if final.GraphNodes != before.GraphNodes+1 {
		t.Fatalf("graph_nodes = %d, want %d", final.GraphNodes, before.GraphNodes+1)
	}
	if !final.Updates.Enabled {
		t.Fatal("updates.enabled false on a mutable server")
	}
}

func TestServerUpdatesDisabledByDefault(t *testing.T) {
	d, _ := miniDataset(t, 10)
	e := newEnv(t, d, Config{})
	var errResp ErrorResponse
	if st := e.postUpdate(t, `{"del_nodes": [0]}`, &errResp); st != http.StatusForbidden {
		t.Fatalf("status %d, want 403", st)
	}
	if st := e.getStats(t); st.Updates.Enabled {
		t.Fatal("updates.enabled true on a read-only server")
	}
	// GET on /update → 405.
	resp, err := http.Get(e.ts.URL + "/update")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /update status %d", resp.StatusCode)
	}
}

// TestServerQueryDuringUpdates floods a mutable server with concurrent
// queries and updates; every response must be internally consistent and
// the final answer must reflect the final graph.
func TestServerQueryDuringUpdates(t *testing.T) {
	d, years := miniDataset(t, 100)
	e := newEnv(t, d, Config{EnableUpdates: true})
	req := QueryRequest{Pattern: miniPattern}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 30; i++ {
			var up UpdateResponse
			body := fmt.Sprintf(`{"add_nodes": [{"label": "movie"}], "add_edges": [[-1, %d]]}`, years[i%3])
			if st := e.postUpdate(t, body, &up); st != http.StatusOK {
				t.Errorf("update %d: status %d", i, st)
				return
			}
		}
	}()
	for {
		select {
		case <-done:
			var final QueryResponse
			if st := e.post(t, req, &final); st != http.StatusOK {
				t.Fatalf("final status %d", st)
			}
			// 4 base + 30 inserted movies, one (m, y) row each. The final
			// query may hit the cache only if a prior query already ran at
			// the final epoch — either way the count must be current.
			if final.Count != 34 {
				t.Fatalf("final count = %d, want 34", final.Count)
			}
			return
		default:
			var r QueryResponse
			if st := e.post(t, req, &r); st != http.StatusOK {
				t.Fatalf("query status %d", st)
			}
			if r.Count < 4 || r.Count > 34 {
				t.Fatalf("count %d outside any published epoch", r.Count)
			}
		}
	}
}
