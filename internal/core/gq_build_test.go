package core

import (
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"boundedg/internal/access"
	"boundedg/internal/graph"
	"boundedg/internal/pattern"
	"boundedg/internal/shard"
	"boundedg/internal/workload"
)

// referenceExec is the GQ build ExecWith's sorted-key pass replaced: a
// serial fetch, GQ nodes added in first-seen order, then every verified
// edge inserted with AddEdgeIfAbsent in enumeration order. It is the
// oracle TestGQBuilderEquivalence holds ExecWith to.
func referenceExec(p *Plan, g *graph.Graph, idx *access.IndexSet) (*BoundedGraph, *ExecStats) {
	n := p.Q.NumNodes()
	st := &ExecStats{}
	cmat := make([][]graph.NodeID, n)
	fetched := make([]bool, n)
	eachTuple := func(deps []pattern.Node, fn func([]graph.NodeID)) {
		tuple := make([]graph.NodeID, len(deps))
		var rec func(i int)
		rec = func(i int) {
			if i == len(deps) {
				fn(tuple)
				return
			}
			for _, v := range cmat[deps[i]] {
				tuple[i] = v
				rec(i + 1)
			}
		}
		rec(0)
	}
	setOf := func(vs []graph.NodeID) map[graph.NodeID]bool {
		m := make(map[graph.NodeID]bool, len(vs))
		for _, v := range vs {
			m[v] = true
		}
		return m
	}
	for _, op := range p.Ops {
		var result []graph.NodeID
		seen := map[graph.NodeID]bool{}
		eachTuple(op.Deps, func(tuple []graph.NodeID) {
			vs := idx.Index(op.CIdx).Lookup(tuple)
			st.IndexLookups++
			st.NodesAccessed += len(vs)
			for _, v := range vs {
				if p.Q.MatchesNode(op.U, g, v) && !seen[v] {
					seen[v] = true
					result = append(result, v)
				}
			}
		})
		if fetched[op.U] {
			old := setOf(cmat[op.U])
			result = slices.DeleteFunc(result, func(v graph.NodeID) bool { return !old[v] })
		}
		cmat[op.U], fetched[op.U] = result, true
	}

	gq := graph.New(g.Interner())
	bg := &BoundedGraph{G: gq, Cands: make([][]graph.NodeID, n), ToOrig: []graph.NodeID{}}
	remap := map[graph.NodeID]graph.NodeID{}
	for u := range cmat {
		bg.Cands[u] = make([]graph.NodeID, 0, len(cmat[u]))
		for _, v := range cmat[u] {
			rv, ok := remap[v]
			if !ok {
				rv = gq.AddNode(g.LabelOf(v), g.ValueOf(v))
				remap[v] = rv
				bg.ToOrig = append(bg.ToOrig, v)
			}
			bg.Cands[u] = append(bg.Cands[u], rv)
		}
	}
	st.GQNodes = gq.NumNodes()
	for _, ec := range p.EdgeChecks {
		oi := slices.Index(ec.Deps, ec.Other())
		target := setOf(cmat[ec.Target])
		eachTuple(ec.Deps, func(tuple []graph.NodeID) {
			cands := idx.Index(ec.CIdx).Lookup(tuple)
			st.IndexLookups++
			st.EdgesAccessed += len(cands)
			for _, vt := range cands {
				if !target[vt] {
					continue
				}
				vf, vtto := vt, tuple[oi]
				if ec.Target == ec.To {
					vf, vtto = tuple[oi], vt
				}
				if g.HasEdge(vf, vtto) {
					gq.AddEdgeIfAbsent(remap[vf], remap[vtto])
				}
			}
		})
	}
	st.GQEdges = gq.NumEdges()
	return bg, st
}

// sameGQ reports how got differs from the reference build, or "".
func sameGQ(got *BoundedGraph, gotStats *ExecStats, want *BoundedGraph, wantStats *ExecStats) string {
	switch {
	case !reflect.DeepEqual(gotStats, wantStats):
		return "stats differ"
	case !reflect.DeepEqual(got.ToOrig, want.ToOrig):
		return "ToOrig differs"
	case !reflect.DeepEqual(got.Cands, want.Cands):
		return "Cands differ"
	case got.G.NumNodes() != want.G.NumNodes() || got.G.NumEdges() != want.G.NumEdges():
		return "GQ size differs"
	}
	for v := graph.NodeID(0); int(v) < want.G.NumNodes(); v++ {
		// The reference rows are in insertion order; the new rows must
		// already be sorted, so equal-after-sorting means equal edge sets.
		wantOut, wantIn := slices.Sorted(slices.Values(want.G.Out(v))), slices.Sorted(slices.Values(want.G.In(v)))
		if !slices.Equal(got.G.Out(v), wantOut) || !slices.Equal(got.G.In(v), wantIn) {
			return "GQ rows differ"
		}
	}
	return ""
}

// gqShardSweep is the shard counts the equivalence test partitions over.
// BOUNDEDG_SHARDS=N (CI's sharded matrix) pins one count, as the shard
// package's differential tests do.
func gqShardSweep(t *testing.T) []int {
	t.Helper()
	s := os.Getenv("BOUNDEDG_SHARDS")
	if s == "" {
		return []int{1, 2, 3}
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 1 || n > shard.MaxShards {
		t.Fatalf("bad BOUNDEDG_SHARDS %q", s)
	}
	return []int{n}
}

// gqInstance is one graph with its index set, its frozen snapshot and,
// per swept shard count, its row partition as ExecConfig shard views.
type gqInstance struct {
	g      *graph.Graph
	idx    *access.IndexSet
	fz     *graph.Frozen
	shards map[int]*ExecConfig
}

func newGQInstance(t *testing.T, g *graph.Graph, idx *access.IndexSet) *gqInstance {
	t.Helper()
	in := &gqInstance{g: g, idx: idx, fz: g.Freeze(), shards: map[int]*ExecConfig{}}
	for _, k := range gqShardSweep(t) {
		m, err := shard.NewMap(k)
		if err != nil {
			t.Fatal(err)
		}
		graphs, idxs := shard.Partition(g, idx, m)
		cfg := &ExecConfig{ShardOf: m.Of}
		for s := range graphs {
			cfg.Shards = append(cfg.Shards, ShardView{G: graphs[s], Fz: graphs[s].Freeze(), Idx: idxs[s]})
		}
		in.shards[k] = cfg
	}
	return in
}

// check runs p through every execution shape and holds each to the
// reference build.
func (in *gqInstance) check(t *testing.T, name string, p *Plan) {
	t.Helper()
	want, wantStats := referenceExec(p, in.g, in.idx)
	for _, fz := range []*graph.Frozen{nil, in.fz} {
		bg, st, err := p.ExecWith(in.g, in.idx, &ExecConfig{Frozen: fz, Scratch: NewExecScratch()})
		if err != nil {
			t.Fatalf("%s frozen=%v: %v", name, fz != nil, err)
		}
		if diff := sameGQ(bg, st, want, wantStats); diff != "" {
			t.Fatalf("%s frozen=%v: %s", name, fz != nil, diff)
		}
	}
	for k, cfg := range in.shards {
		bg, st, err := p.ExecWith(nil, nil, cfg)
		if err != nil {
			t.Fatalf("%s shards=%d: %v", name, k, err)
		}
		if diff := sameGQ(bg, st, want, wantStats); diff != "" {
			t.Fatalf("%s shards=%d: %s", name, k, diff)
		}
	}
}

// TestGQBuilderEquivalence: GQ materialized from the candidate space is
// the GQ the AddEdgeIfAbsent build produced — same ID mapping, candidates
// and stats, and the same edge set with sorted rows — unsharded with and
// without a frozen snapshot, and scattered over 1, 2 and 3 shards, on
// random bounded cases and on all three workload generators.
func TestGQBuilderEquivalence(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		r := rand.New(rand.NewSource(11))
		checked := 0
		for i := 0; i < 400 && checked < 60; i++ {
			sem := Semantics(i % 2)
			q, g, idx, ok := randomBoundedCase(r, sem)
			if !ok {
				continue
			}
			p, err := NewPlan(q, idx.Schema(), sem)
			if err != nil {
				t.Fatal(err)
			}
			newGQInstance(t, g, idx).check(t, "case "+strconv.Itoa(i), p)
			checked++
		}
		if checked < 20 {
			t.Fatalf("only %d bounded random cases", checked)
		}
	})
	for _, d := range []*workload.Dataset{
		workload.IMDb(0.05, 1),
		workload.DBpedia(0.05, 2),
		workload.WebBase(0.05, 3),
	} {
		t.Run(d.Name, func(t *testing.T) {
			idx, viols := access.Build(d.G, d.Schema)
			if viols != nil {
				t.Fatalf("Build: %v", viols[0])
			}
			in := newGQInstance(t, d.G, idx)
			checked := 0
			for i, q := range workload.DefaultQueryGen.Generate(d, 40, 5) {
				for _, sem := range []Semantics{Subgraph, Simulation} {
					p, err := NewPlan(q, d.Schema, sem)
					if err != nil {
						continue
					}
					in.check(t, "query "+strconv.Itoa(i)+"/"+sem.String(), p)
					checked++
				}
			}
			if checked == 0 {
				t.Fatal("no bounded queries")
			}
		})
	}
}
