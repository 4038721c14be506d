package runtime_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"boundedg/internal/access"
	"boundedg/internal/core"
	"boundedg/internal/graph"
	"boundedg/internal/runtime"
	"boundedg/internal/shard"
	"boundedg/internal/store"
	"boundedg/internal/workload"
)

// TestReadsAfterWritesMatchRebuild runs the read-path pool over a live
// source — one store, a 1-shard router and a 3-shard router — while a
// seeded stream of deltas lands (see readPathDelta): accepted and
// violating edge churn, node inserts whose IDs pass the index read forms'
// roots, and node deletes that purge VS-keyed entries. After every delta, each pool plan's
// ExecWith over the live cut, which reads the refreshed index read forms
// and the Frozen patch chains, must equal field for field (BoundedGraph
// and ExecStats) an ExecWith over a fresh access.Build and Freeze of the
// same graph.
func TestReadsAfterWritesMatchRebuild(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the scale-1 benchmark pool")
	}
	_, _, pool := readPathPool(t)
	for _, shape := range []struct {
		name   string
		shards int // 0: one store
	}{{"store", 0}, {"router1", 1}, {"router3", 3}} {
		t.Run(shape.name, func(t *testing.T) {
			ds := workload.IMDb(1, 1)
			idx, viols := access.Build(ds.G, ds.Schema)
			if viols != nil {
				t.Fatalf("generated graph violates its schema: %v", viols[0])
			}
			ref := ds.G.Clone()
			var src runtime.Source = store.New(ds.G, idx)
			if shape.shards > 0 {
				rt, err := shard.New(ds.G, idx, shape.shards)
				if err != nil {
					t.Fatal(err)
				}
				src = rt
			}
			defer src.Close()
			plans := make([]*core.Plan, len(pool))
			for i, q := range pool {
				p, err := core.NewPlan(q.Pattern, src.Schema(), q.Sem)
				if err != nil {
					t.Fatal(err)
				}
				plans[i] = p
			}
			r := rand.New(rand.NewSource(int64(7 + shape.shards)))
			accepted, rejected := 0, 0
			var removed [][2]graph.NodeID // edges accepted deltas deleted
			for step := 0; step < 8; step++ {
				d := readPathDelta(r, ref, step, removed)
				res, err := src.Apply(d)
				if err != nil {
					rejected++
				} else {
					accepted++
					removed = append(removed, d.DelEdges...)
					newIDs, err := d.Apply(ref)
					if err != nil {
						t.Fatalf("step %d: the source accepted a delta the reference graph refuses: %v", step, err)
					}
					if !slices.Equal(newIDs, res.NewIDs) {
						t.Fatalf("step %d: new IDs %v, reference %v", step, res.NewIDs, newIDs)
					}
				}
				refIdx, viols := access.Build(ref, ds.Schema)
				if viols != nil {
					t.Fatalf("step %d: the reference graph violates its schema: %v", step, viols[0])
				}
				refCfg := &core.ExecConfig{Frozen: ref.Freeze()}
				cut := src.AcquireCut()
				live := &core.ExecConfig{ShardOf: cut.ShardOf}
				for _, sn := range cut.Snaps {
					live.Shards = append(live.Shards, core.ShardView{G: sn.G, Fz: sn.Fz, Idx: sn.Idx})
				}
				for i, p := range plans {
					got, gotSt, err := p.ExecWith(nil, nil, live)
					if err != nil {
						t.Fatalf("step %d, pool pattern %d: live: %v", step, i, err)
					}
					want, wantSt, err := p.ExecWith(ref, refIdx, refCfg)
					if err != nil {
						t.Fatalf("step %d, pool pattern %d: rebuild: %v", step, i, err)
					}
					if *gotSt != *wantSt {
						t.Fatalf("step %d, pool pattern %d: stats %+v, rebuild %+v", step, i, *gotSt, *wantSt)
					}
					if diff := boundedGraphDiff(got, want); diff != "" {
						t.Fatalf("step %d, pool pattern %d: %s", step, i, diff)
					}
				}
				cut.Release()
			}
			if accepted == 0 || rejected == 0 {
				t.Fatalf("%d accepted and %d rejected deltas: the stream missed a path", accepted, rejected)
			}
		})
	}
}

// readPathDelta draws step's delta against g, the graph as of the last
// accepted delta. Every delta deletes ten edges, restores up to ten that
// earlier deltas deleted, and replaces one node by a fresh one with the
// same label, value and edges: the insert's ID passes every read form's
// root, and the delete purges the entries the old node keyed. The graph
// stays isomorphic to a subgraph of the generated one, so the schema's
// bounds hold; every fourth delta adds a burst of edges onto one node,
// which they refuse.
func readPathDelta(r *rand.Rand, g *graph.Graph, step int, removed [][2]graph.NodeID) *graph.Delta {
	nodes := g.NodeList()
	node := func() graph.NodeID { return nodes[r.Intn(len(nodes))] }
	d := &graph.Delta{}
	for len(d.DelEdges) < 10 {
		v := node()
		if outs := g.Out(v); len(outs) > 0 {
			if e := [2]graph.NodeID{v, outs[r.Intn(len(outs))]}; !slices.Contains(d.DelEdges, e) {
				d.DelEdges = append(d.DelEdges, e)
			}
		}
	}
	for _, i := range r.Perm(len(removed)) {
		e := removed[i]
		if len(d.AddEdges) == 10 {
			break
		}
		if g.Contains(e[0]) && g.Contains(e[1]) && !g.HasEdge(e[0], e[1]) && !slices.Contains(d.AddEdges, e) {
			d.AddEdges = append(d.AddEdges, e)
		}
	}
	x := node()
	for n := len(g.Out(x)) + len(g.In(x)); n == 0 || n > 50; n = len(g.Out(x)) + len(g.In(x)) {
		x = node()
	}
	ref := graph.NewNodeRef(0)
	d.AddNodes = []graph.NodeSpec{{Label: g.LabelOf(x), Value: g.ValueOf(x)}}
	for _, w := range g.Out(x) {
		d.AddEdges = append(d.AddEdges, [2]graph.NodeID{ref, w})
	}
	for _, w := range g.In(x) {
		d.AddEdges = append(d.AddEdges, [2]graph.NodeID{w, ref})
	}
	d.DelNodes = []graph.NodeID{x}
	named := func(e [2]graph.NodeID) bool { return e[0] == x || e[1] == x }
	d.AddEdges = slices.DeleteFunc(d.AddEdges, named)
	d.DelEdges = slices.DeleteFunc(d.DelEdges, named)
	if step%4 == 3 {
		hub := node()
		for burst := 0; burst < 400; {
			if e := [2]graph.NodeID{node(), hub}; e[0] != hub && e[0] != x && hub != x && !g.HasEdge(e[0], hub) && !slices.Contains(d.AddEdges, e) {
				d.AddEdges = append(d.AddEdges, e)
				burst++
			}
		}
	}
	return d
}

// boundedGraphDiff describes the first difference between two fetched
// subgraphs, field by field, or returns "".
func boundedGraphDiff(got, want *core.BoundedGraph) string {
	if !slices.Equal(got.ToOrig, want.ToOrig) {
		return fmt.Sprintf("ToOrig %v, rebuild %v", got.ToOrig, want.ToOrig)
	}
	if len(got.Cands) != len(want.Cands) {
		return fmt.Sprintf("%d candidate sets, rebuild %d", len(got.Cands), len(want.Cands))
	}
	for u := range want.Cands {
		if !slices.Equal(got.Cands[u], want.Cands[u]) {
			return fmt.Sprintf("Cands[%d] %v, rebuild %v", u, got.Cands[u], want.Cands[u])
		}
	}
	if got.G.NumNodes() != want.G.NumNodes() || got.G.NumEdges() != want.G.NumEdges() {
		return fmt.Sprintf("GQ %d nodes %d edges, rebuild %d nodes %d edges", got.G.NumNodes(), got.G.NumEdges(), want.G.NumNodes(), want.G.NumEdges())
	}
	for v := graph.NodeID(0); int(v) < want.G.Cap(); v++ {
		switch {
		case got.G.LabelOf(v) != want.G.LabelOf(v) || got.G.ValueOf(v) != want.G.ValueOf(v):
			return fmt.Sprintf("GQ node %d differs in label or value", v)
		case !slices.Equal(got.G.Out(v), want.G.Out(v)) || !slices.Equal(got.Fz.Out(v), want.Fz.Out(v)):
			return fmt.Sprintf("GQ node %d out-row %v, rebuild %v", v, got.Fz.Out(v), want.Fz.Out(v))
		case !slices.Equal(got.Fz.In(v), want.Fz.In(v)):
			return fmt.Sprintf("GQ node %d in-row %v, rebuild %v", v, got.Fz.In(v), want.Fz.In(v))
		}
	}
	return ""
}
