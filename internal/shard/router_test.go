package shard

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"testing"

	"boundedg/internal/access"
	"boundedg/internal/graph"
	"boundedg/internal/store"
	"boundedg/internal/workload"
)

// shardSweep returns the shard counts a differential test sweeps.
// BOUNDEDG_SHARDS=N (CI's sharded matrix) restricts the sweep to one
// count so each matrix leg pins a single configuration.
func shardSweep(t *testing.T, def []int) []int {
	t.Helper()
	s := os.Getenv("BOUNDEDG_SHARDS")
	if s == "" {
		return def
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 1 || n > MaxShards {
		t.Fatalf("bad BOUNDEDG_SHARDS %q", s)
	}
	return []int{n}
}

// randomDelta mirrors the store package's update generator: inserts wired
// to random neighbors, fresh edges, edge deletions, node deletions —
// including deltas the bounds must reject.
func randomDelta(r *rand.Rand, g *graph.Graph) *graph.Delta {
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

func indexBytes(t testing.TB, set *access.IndexSet, in *graph.Interner) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := set.WriteJSON(&buf, in); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkShardedState verifies the router's shards jointly represent
// exactly the unsharded store's state: node set, labels, values and edge
// set reconstruct from the owner shards; every edge is mirrored on both
// endpoint owners; and each shard's live index set is byte-identical to
// the corresponding row partition of the unsharded index set.
func checkShardedState(t *testing.T, r *Router, g *graph.Graph, idx *access.IndexSet, in *graph.Interner) {
	t.Helper()
	m := r.Map()
	n := r.NumShards()
	cut := r.AcquireCut()
	defer cut.Release()

	nodes := 0
	for v := graph.NodeID(0); int(v) < g.Cap(); v++ {
		og := cut.Snaps[m.Of(v)].G
		if og.Contains(v) != g.Contains(v) {
			t.Fatalf("node %d: owner shard liveness %v, global %v", v, og.Contains(v), g.Contains(v))
		}
		if !g.Contains(v) {
			continue
		}
		nodes++
		if og.LabelOf(v) != g.LabelOf(v) || og.ValueOf(v) != g.ValueOf(v) {
			t.Fatalf("node %d: owner shard (label %d, value %v), global (label %d, value %v)",
				v, og.LabelOf(v), og.ValueOf(v), g.LabelOf(v), g.ValueOf(v))
		}
		// Owner adjacency must be the full global adjacency.
		want := append([]graph.NodeID(nil), g.Out(v)...)
		got := append([]graph.NodeID(nil), og.Out(v)...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("node %d: owner shard out %v, global %v", v, got, want)
		}
	}
	edges := 0
	g.Edges(func(from, to graph.NodeID) bool {
		edges++
		for _, s := range []int{m.Of(from), m.Of(to)} {
			sg := cut.Snaps[s].G
			if !sg.HasEdge(from, to) {
				t.Fatalf("edge (%d,%d): missing on endpoint owner shard %d", from, to, s)
			}
			if !sg.Contains(from) || !sg.Contains(to) {
				t.Fatalf("edge (%d,%d): endpoint stub missing on shard %d", from, to, s)
			}
		}
		return true
	})
	// No shard may hold an edge the global graph lost.
	for s := 0; s < n; s++ {
		cut.Snaps[s].G.Edges(func(from, to graph.NodeID) bool {
			if !g.HasEdge(from, to) {
				t.Fatalf("shard %d holds stale edge (%d,%d)", s, from, to)
			}
			return true
		})
	}
	st := r.Stats()
	if st.Nodes != int64(nodes) || st.Edges != int64(edges) {
		t.Fatalf("router counters (%d nodes, %d edges), global (%d, %d)", st.Nodes, st.Edges, nodes, edges)
	}

	// Index parity: splitting the unsharded set with the same owner map
	// must reproduce each shard's incrementally maintained set exactly.
	parts := idx.Split(n, m.Of)
	for s := 0; s < n; s++ {
		want := indexBytes(t, parts[s], in)
		got := indexBytes(t, cut.Snaps[s].Idx, in)
		if !bytes.Equal(got, want) {
			t.Fatalf("shard %d index diverged from the row partition of the unsharded index", s)
		}
	}
}

// TestRouterDifferential drives identical update streams through an
// unsharded store and routers at several shard counts; every verdict
// (including error text), assigned ID, touched-row count and the final
// state must match exactly.
func TestRouterDifferential(t *testing.T) {
	gens := []func(float64, int64) *workload.Dataset{workload.IMDb, workload.DBpedia, workload.WebBase}
	for _, gen := range gens {
		for _, n := range shardSweep(t, []int{1, 2, 4, 7}) {
			d := gen(0.12, 7)
			t.Run(fmt.Sprintf("%s/shards=%d", d.Name, n), func(t *testing.T) {
				g1 := d.G.Clone()
				idx1 := access.BuildUnchecked(g1, d.Schema)
				ust := store.New(g1, idx1)
				g2 := d.G.Clone()
				idx2 := access.BuildUnchecked(g2, d.Schema)
				r, err := New(g2, idx2, n)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(42))
				for i := 0; i < 300; i++ {
					snap := ust.Acquire()
					delta := randomDelta(rng, snap.G)
					snap.Release()
					ures, uerr := ust.Apply(delta.Clone())
					sres, serr := r.Apply(delta.Clone())
					if (uerr == nil) != (serr == nil) {
						t.Fatalf("delta %d: unsharded err %v, sharded err %v", i, uerr, serr)
					}
					if uerr != nil {
						if uerr.Error() != serr.Error() {
							t.Fatalf("delta %d: error text diverged:\n  unsharded: %v\n  sharded:   %v", i, uerr, serr)
						}
						continue
					}
					if fmt.Sprint(ures.NewIDs) != fmt.Sprint(sres.NewIDs) {
						t.Fatalf("delta %d: new IDs %v vs %v", i, ures.NewIDs, sres.NewIDs)
					}
					if ures.TouchedRows != sres.TouchedRows {
						t.Fatalf("delta %d: touched rows %d vs %d", i, ures.TouchedRows, sres.TouchedRows)
					}
					if ures.Epoch != sres.Epoch {
						t.Fatalf("delta %d: epoch %d vs GSN %d", i, ures.Epoch, sres.Epoch)
					}
				}
				snap := ust.Acquire()
				checkShardedState(t, r, snap.G, snap.Idx, d.In)
				snap.Release()
			})
		}
	}
}

// TestRouterSingleShardFastPath pins the participant-only commit: a
// delta touching one shard opens exactly one shard transaction, bumps
// exactly one epoch-vector slot (the rest keep their previous epochs
// while the GSN advances), and a cross-shard delta opens exactly its
// participant count — verdicts staying identical to the unsharded store
// throughout.
func TestRouterSingleShardFastPath(t *testing.T) {
	const n = 4
	d := workload.IMDb(0.12, 7)
	g1 := d.G.Clone()
	idx1 := access.BuildUnchecked(g1, d.Schema)
	ust := store.New(g1, idx1)
	g2 := d.G.Clone()
	idx2 := access.BuildUnchecked(g2, d.Schema)
	r, err := New(g2, idx2, n)
	if err != nil {
		t.Fatal(err)
	}
	m := r.Map()

	// One guaranteed-accepted intra-shard delta and one cross-shard one.
	var intra, cross [2]graph.NodeID
	haveIntra, haveCross := false, false
	snap := ust.Acquire()
	snap.G.Edges(func(a, b graph.NodeID) bool {
		if m.Of(a) == m.Of(b) && !haveIntra {
			intra, haveIntra = [2]graph.NodeID{a, b}, true
		}
		if m.Of(a) != m.Of(b) && !haveCross {
			cross, haveCross = [2]graph.NodeID{a, b}, true
		}
		return !(haveIntra && haveCross)
	})
	snap.Release()
	if !haveIntra || !haveCross {
		t.Fatal("dataset lacks an intra-shard or cross-shard edge")
	}

	apply := func(d *graph.Delta, wantTxns uint64, wantBumped []int) {
		t.Helper()
		before := r.Stats()
		ures, uerr := ust.Apply(d.Clone())
		sres, serr := r.Apply(d.Clone())
		if uerr != nil || serr != nil {
			t.Fatalf("apply: unsharded err %v, sharded err %v", uerr, serr)
		}
		if ures.Epoch != sres.Epoch || ures.TouchedRows != sres.TouchedRows {
			t.Fatalf("verdict diverged: epoch %d vs GSN %d, rows %d vs %d",
				ures.Epoch, sres.Epoch, ures.TouchedRows, sres.TouchedRows)
		}
		after := r.Stats()
		if got := after.ShardTxns - before.ShardTxns; got != wantTxns {
			t.Fatalf("delta opened %d shard txns, want %d", got, wantTxns)
		}
		bumped := make(map[int]bool, len(wantBumped))
		for _, s := range wantBumped {
			bumped[s] = true
		}
		for s := 0; s < n; s++ {
			if bumped[s] {
				if after.Vector[s] != sres.Epoch {
					t.Fatalf("participant shard %d epoch %d, want GSN %d", s, after.Vector[s], sres.Epoch)
				}
			} else if after.Vector[s] != before.Vector[s] {
				t.Fatalf("untouched shard %d epoch moved %d -> %d", s, before.Vector[s], after.Vector[s])
			}
		}
	}

	// Deleting an intra-shard edge touches exactly the owner shard.
	apply(&graph.Delta{DelEdges: [][2]graph.NodeID{intra}}, 1, []int{m.Of(intra[0])})
	// Deleting a cross-shard edge touches exactly both endpoint owners.
	apply(&graph.Delta{DelEdges: [][2]graph.NodeID{cross}}, 2, []int{m.Of(cross[0]), m.Of(cross[1])})
}
