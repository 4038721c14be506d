package runtime

import (
	"fmt"
	"os"
	"reflect"
	"strconv"
	"testing"

	"boundedg/internal/access"
	"boundedg/internal/core"
	"boundedg/internal/graph"
	"boundedg/internal/match"
	"boundedg/internal/shard"
	"boundedg/internal/store"
)

// ringSlots is the store's and the router's recent-deltas ring size
// (store.defaultChangeLogSlots): Certify can vouch for at most this many
// versions back.
const ringSlots = 256

// TestEngineCertify drives the one freshness proof behind the result
// cache and the subscription hub through each of its four outcomes, over
// a store and over a router (BOUNDEDG_SHARDS shards, 2 by default):
// current at the answer's own version; promoted, at the new version and
// with the router's new epoch vector, after an edge flip the answer never
// read; changed without a footprint or after a delta that meets it; and
// outrun once the ring has turned over past the answer's version.
func TestEngineCertify(t *testing.T) {
	shards := 2
	if s := os.Getenv("BOUNDEDG_SHARDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 || n > shard.MaxShards {
			t.Fatalf("bad BOUNDEDG_SHARDS %q", s)
		}
		shards = n
	}
	backends := []struct {
		name  string
		build func(*graph.Graph, *access.IndexSet) Source
	}{
		{"store", func(g *graph.Graph, idx *access.IndexSet) Source { return store.New(g, idx) }},
		{fmt.Sprintf("router x%d", shards), func(g *graph.Graph, idx *access.IndexSet) Source {
			r, err := shard.New(g, idx, shards)
			if err != nil {
				t.Fatal(err)
			}
			return r
		}},
	}
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			g, idx, q, pairs := updateFixture(t)
			actor := g.Interner().Intern("actor") // a label q never reads
			eng, err := NewFromSource(b.build(g, idx), Config{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			apply := func(d *graph.Delta) store.Result {
				t.Helper()
				res, err := eng.ApplyDelta(d)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			eval := func() Result {
				t.Helper()
				res := eng.Eval(nil, Query{Pattern: q, Sem: core.Subgraph, Sub: match.SubgraphOptions{StoreMatches: true, MaxMatches: 1 << 20}, NeedFootprint: true})
				if res.Err != nil {
					t.Fatal(res.Err)
				}
				return res
			}
			certify := func(what string, epoch uint64, fp *core.Footprint, want Freshness) (uint64, []uint64) {
				t.Helper()
				ep, vec, out := eng.Certify(epoch, fp)
				if out != want {
					t.Fatalf("%s: Certify(%d) = %v at version %d, want %v", what, epoch, out, eng.Version(), want)
				}
				return ep, vec
			}

			// Two actors whose edge flips nothing q reads.
			ids := apply(&graph.Delta{AddNodes: []graph.NodeSpec{{Label: actor}, {Label: actor}}}).NewIDs
			edge := [][2]graph.NodeID{{ids[0], ids[1]}}
			present := false
			flip := func() store.Result {
				t.Helper()
				d := &graph.Delta{AddEdges: edge}
				if present {
					d = &graph.Delta{DelEdges: edge}
				}
				present = !present
				return apply(d)
			}

			res := eval()
			if ep, vec := certify("current", res.Epoch, res.Footprint, Current); ep != res.Epoch || vec != nil {
				t.Fatalf("current: certified %d %v, want %d and no vector", ep, vec, res.Epoch)
			}

			up := flip()
			ep, vec := certify("after a disjoint flip", res.Epoch, res.Footprint, Promoted)
			if ep != up.Epoch || !reflect.DeepEqual(vec, up.Vector) {
				t.Fatalf("promoted to %d %v, want the flip's %d %v", ep, vec, up.Epoch, up.Vector)
			}
			if _, sharded := eng.src.(*shard.Router); sharded && vec == nil {
				t.Fatal("promotion on a router carries no epoch vector to restamp")
			}
			// The promotion is sound: a fresh evaluation agrees, stats included.
			if fresh := eval(); canonicalMatches(fresh.Sub.Matches) != canonicalMatches(res.Sub.Matches) || *fresh.Stats != *res.Stats {
				t.Fatal("promoted answer differs from a fresh evaluation")
			}

			certify("without a footprint", res.Epoch, nil, Changed)
			apply(&graph.Delta{AddEdges: [][2]graph.NodeID{pairs[0]}})
			certify("after a delta q read", res.Epoch, res.Footprint, Changed)

			// The ring vouches for exactly ringSlots versions back.
			res = eval()
			for range ringSlots {
				flip()
			}
			certify("a full ring back", res.Epoch, res.Footprint, Promoted)
			flip()
			certify("past the ring", res.Epoch, res.Footprint, Outrun)
		})
	}
}
