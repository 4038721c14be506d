package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"testing"

	"boundedg/internal/access"
	"boundedg/internal/graph"
	"boundedg/internal/runtime"
	"boundedg/internal/shard"
	"boundedg/internal/workload"
)

// shardSweep mirrors the shard package's helper: BOUNDEDG_SHARDS=N
// (CI's sharded matrix) restricts the differential sweep to one count.
func shardSweep(t *testing.T, def []int) []int {
	t.Helper()
	s := os.Getenv("BOUNDEDG_SHARDS")
	if s == "" {
		return def
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 1 || n > shard.MaxShards {
		t.Fatalf("bad BOUNDEDG_SHARDS %q", s)
	}
	return []int{n}
}

// newShardedEnv builds a server whose engine reads a sharded router over
// d's graph, split n ways. d is consumed (partitioned).
func newShardedEnv(t *testing.T, d *workload.Dataset, n int, cfg Config) *env {
	t.Helper()
	idx := access.BuildUnchecked(d.G, d.Schema)
	r, err := shard.New(d.G, idx, n)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := runtime.NewFromRouter(r, runtime.Config{Workers: 4})
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
	return &env{d: d, rt: r, eng: eng, srv: srv, ts: ts}
}

// postRaw posts body to path and returns the status plus the response
// body normalized for sharded/unsharded comparison: volatile fields
// (elapsed time, the sharded-only epoch vector and per-shard log offsets)
// are dropped and the JSON re-marshaled with sorted keys, so two
// semantically identical responses compare byte-equal.
func postRaw(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var v map[string]any
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("response is not JSON (status %d): %v\n%s", resp.StatusCode, err, raw)
	}
	delete(v, "elapsed_ms")
	delete(v, "vector")
	delete(v, "shard_log_offsets")
	delete(v, "log_offset")
	norm, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, norm
}

// shardUpdateDelta mirrors the shard package's update generator: inserts
// wired to random neighbors, fresh edges, edge deletions, node deletions
// — including deltas the bounds or structural checks must reject.
func shardUpdateDelta(r *rand.Rand, g *graph.Graph) *graph.Delta {
	live := g.NodeList()
	labels := g.Labels()
	d := &graph.Delta{}
	switch r.Intn(4) {
	case 0:
		d.AddNodes = []graph.NodeSpec{{Label: labels[r.Intn(len(labels))]}}
		for k := 0; k < 1+r.Intn(3); k++ {
			other := live[r.Intn(len(live))]
			if r.Intn(2) == 0 {
				d.AddEdges = append(d.AddEdges, [2]graph.NodeID{graph.NewNodeRef(0), other})
			} else {
				d.AddEdges = append(d.AddEdges, [2]graph.NodeID{other, graph.NewNodeRef(0)})
			}
		}
	case 1:
		d.AddEdges = [][2]graph.NodeID{{live[r.Intn(len(live))], live[r.Intn(len(live))]}}
	case 2:
		for tries := 0; tries < 10; tries++ {
			v := live[r.Intn(len(live))]
			if outs := g.Out(v); len(outs) > 0 {
				d.DelEdges = [][2]graph.NodeID{{v, outs[r.Intn(len(outs))]}}
				break
			}
		}
	case 3:
		d.DelNodes = []graph.NodeID{live[r.Intn(len(live))]}
	}
	return d
}

// TestServerShardedDifferential drives identical query and update streams
// through two live servers over the same dataset — one backed by an
// unsharded store, one by a router at several shard counts — and demands
// byte-identical responses (status and normalized JSON body) for every
// request: query answers, access stats, cache hits, update verdicts
// (accepted epochs, assigned IDs, touched rows, 409/422 rejection bodies)
// across all three workload generators.
func TestServerShardedDifferential(t *testing.T) {
	gens := []func(float64, int64) *workload.Dataset{workload.IMDb, workload.DBpedia, workload.WebBase}
	cfg := Config{EnableUpdates: true, MaxLimit: 1 << 20, DefaultLimit: 1 << 20}
	for _, gen := range gens {
		for _, n := range shardSweep(t, []int{1, 2, 4, 7}) {
			d := gen(0.08, 3)
			t.Run(fmt.Sprintf("%s/shards=%d", d.Name, n), func(t *testing.T) {
				base := newEnv(t, gen(0.08, 3), cfg)
				sharded := newShardedEnv(t, d, n, cfg)

				queries := workload.DefaultQueryGen.Generate(base.d, 8, 4)
				if len(queries) == 0 {
					t.Fatal("no queries generated")
				}
				rng := rand.New(rand.NewSource(11))
				qi := 0
				compare := func(path string, body []byte) {
					t.Helper()
					us, ub := postRaw(t, base.ts.URL+path, body)
					ss, sb := postRaw(t, sharded.ts.URL+path, body)
					if us != ss {
						t.Fatalf("%s: status %d unsharded vs %d sharded\nunsharded: %s\nsharded:   %s", path, us, ss, ub, sb)
					}
					if !bytes.Equal(ub, sb) {
						t.Fatalf("%s: responses diverged\nunsharded: %s\nsharded:   %s", path, ub, sb)
					}
				}
				for round := 0; round < 30; round++ {
					// One update per round, generated against the unsharded
					// server's current graph so references stay live.
					snap := base.st.Acquire()
					delta := shardUpdateDelta(rng, snap.G)
					snap.Release()
					var dbuf bytes.Buffer
					if err := delta.WriteJSON(&dbuf, base.d.In); err != nil {
						t.Fatal(err)
					}
					compare("/update", dbuf.Bytes())

					// A couple of queries per round, cycling semantics; the
					// second posting of a query exercises cache-hit parity.
					for k := 0; k < 2; k++ {
						q := queries[qi%len(queries)]
						sem := "subgraph"
						if qi%2 == 1 {
							sem = "simulation"
						}
						qi++
						body, err := json.Marshal(QueryRequest{Pattern: q.String(), Sem: sem})
						if err != nil {
							t.Fatal(err)
						}
						compare("/query", body)
					}
				}
			})
		}
	}
}
