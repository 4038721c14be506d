package access

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"boundedg/internal/graph"
)

// formCase builds a random graph over labels A, B, C and L and a schema
// with one constraint of every key arity: {} -> A (direct, one key),
// {A} -> L (direct, keyed by node ID), {A, B} -> L (table over packed
// pairs), {A, B, C} -> L (table over tuple hashes), plus a tight
// {B} -> (C, 4) that random deltas break, so rejections roll back.
func formCase(seed int64) (*graph.Graph, *Schema, map[string]graph.Label) {
	r := rand.New(rand.NewSource(seed))
	in := graph.NewInterner()
	lbl := map[string]graph.Label{}
	for _, name := range []string{"A", "B", "C", "L"} {
		lbl[name] = in.Intern(name)
	}
	g := graph.New(in)
	byName := map[string][]graph.NodeID{}
	for _, nc := range []struct {
		name string
		n    int
	}{{"A", 120}, {"B", 120}, {"C", 60}, {"L", 500}} {
		for i := 0; i < nc.n; i++ {
			byName[nc.name] = append(byName[nc.name], g.AddNode(lbl[nc.name], graph.Value{}))
		}
	}
	link := func(a, b graph.NodeID) {
		if r.Intn(2) == 0 {
			a, b = b, a
		}
		if !g.HasEdge(a, b) && !g.HasEdge(b, a) {
			g.MustAddEdge(a, b)
		}
	}
	for _, v := range byName["L"] {
		for _, name := range []string{"A", "A", "B", "B", "C"} {
			link(v, byName[name][r.Intn(len(byName[name]))])
		}
	}
	for _, c := range byName["C"] {
		link(c, byName["B"][r.Intn(len(byName["B"]))])
	}
	schema := NewSchema(
		MustNew(nil, lbl["A"], 1000),
		MustNew([]graph.Label{lbl["A"]}, lbl["L"], 1000),
		MustNew([]graph.Label{lbl["A"], lbl["B"]}, lbl["L"], 1000),
		MustNew([]graph.Label{lbl["A"], lbl["B"], lbl["C"]}, lbl["L"], 1000),
		MustNew([]graph.Label{lbl["B"]}, lbl["C"], 4),
	)
	return g, schema, lbl
}

// formProbe is one Lookup and the answer the writer's maps gave for it.
type formProbe struct {
	ci   int
	vs   []graph.NodeID
	want []graph.NodeID
}

// formWant snapshots, through the writer's maps, what every Lookup of set
// must answer: each materialized entry, plus absent keys — every node ID
// up to past the ID space for |S| = 1, and random pairs and triples.
func formWant(set *IndexSet, g *graph.Graph, r *rand.Rand) []formProbe {
	var ps []formProbe
	for ci, x := range set.indexes {
		for key, e := range x.entries {
			ps = append(ps, formProbe{ci, x.tupleOf(key, nil), slices.Clone(e.members)})
		}
		switch x.c.Arity() {
		case 0:
			if len(x.entries) == 0 {
				ps = append(ps, formProbe{ci, nil, nil})
			}
		case 1:
			for v := graph.NodeID(0); int(v) < g.Cap()+70; v++ {
				if _, ok := x.entries[uint64(v)]; !ok {
					ps = append(ps, formProbe{ci, []graph.NodeID{v}, nil})
				}
			}
		default:
			for k := 0; k < 50; k++ {
				vs := make([]graph.NodeID, x.c.Arity())
				for i := range vs {
					vs[i] = graph.NodeID(r.Intn(g.Cap() + 8))
				}
				var e *indexEntry
				if key, tuple := formKey(vs, nil); tuple != nil {
					e = x.tupleEntry(string(appendTuple(nil, vs)))
				} else {
					e = x.entries[key]
				}
				ps = append(ps, formProbe{ci, vs, slices.Clone(e.membersOrNil())})
			}
		}
	}
	return ps
}

// formDiff checks a pinned set of read forms (one per constraint) against
// the probes taken when they were current, in a shuffled argument order.
func formDiff(forms []*readForm, ps []formProbe) (formProbe, []graph.NodeID, bool) {
	var buf [8]graph.NodeID
	for _, p := range ps {
		vs := slices.Clone(p.vs)
		slices.Reverse(vs)
		key, tuple := formKey(vs, buf[:0])
		if got := forms[p.ci].lookup(key, tuple); !slices.Equal(got, p.want) {
			return p, got, false
		}
	}
	return formProbe{}, nil, true
}

func pinForms(set *IndexSet) []*readForm {
	fs := make([]*readForm, len(set.indexes))
	for i, x := range set.indexes {
		fs[i] = x.rf
	}
	return fs
}

// TestFrozenIndexChainProperty drives random maintenance — edge adds and
// deletes, node inserts whose IDs pass the root's key range, node deletes
// that purge VS-keyed entries, and deltas the tight constraint rejects —
// the way the store's two copy-on-write instances see it: the instances
// take turns applying a delta (ApplyDeltaTx), and the other one replays
// an accepted delta (ReplayDelta) and adopts the applier's forms
// (ShareReadForms), so every refresh layers on a form the other instance
// built. The run is long enough to flatten the chain and to rebuild its
// roots. Every epoch's forms are kept, and reader goroutines re-check
// random older ones while later refreshes run, so under -race the chain's
// shared bitset is exercised against concurrent readers. At every epoch
// each form must answer every Lookup as the writer's maps do.
func TestFrozenIndexChainProperty(t *testing.T) {
	const seed = 1
	r := rand.New(rand.NewSource(seed))
	g, schema, lbl := formCase(seed)
	set, viols := Build(g, schema)
	if viols != nil {
		t.Fatalf("Build: %v", viols[0])
	}
	type instance struct {
		g   *graph.Graph
		set *IndexSet
	}
	insts := [2]instance{{g, set}, {g.Clone(), set.Clone()}}

	type snap struct {
		forms []*readForm
		want  []formProbe
	}
	var (
		mu    sync.Mutex
		snaps = []snap{{pinForms(set), formWant(set, g, r)}}
		done  atomic.Bool
		wg    sync.WaitGroup
	)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(r *rand.Rand) {
			defer wg.Done()
			for !done.Load() {
				mu.Lock()
				s := snaps[r.Intn(len(snaps))]
				mu.Unlock()
				if p, got, ok := formDiff(s.forms, s.want); !ok {
					t.Errorf("concurrent reader: constraint %d Lookup(%v) = %v, want %v", p.ci, p.vs, got, p.want)
					return
				}
			}
		}(rand.New(rand.NewSource(seed*10 + int64(w))))
	}

	live := map[string][]graph.NodeID{}
	for _, name := range []string{"A", "B", "C", "L"} {
		live[name] = slices.Clone(g.NodesByLabel(lbl[name]))
	}
	pick := func(name string) graph.NodeID { return live[name][r.Intn(len(live[name]))] }
	var accepted, rejected, flattened, rebuilt, pastRoot int
	for epoch := 1; epoch <= 80; epoch++ {
		g, set = insts[epoch%2].g, insts[epoch%2].set
		other := insts[1-epoch%2]
		d := &graph.Delta{}
		for k := 0; k < 5+r.Intn(20); k++ {
			e := [2]graph.NodeID{pick("L"), pick([]string{"A", "B", "C"}[r.Intn(3)])}
			if r.Intn(2) == 0 {
				e[0], e[1] = e[1], e[0]
			}
			if !g.HasEdge(e[0], e[1]) && !slices.Contains(d.AddEdges, e) {
				d.AddEdges = append(d.AddEdges, e)
			}
		}
		for k := 0; k < 8; k++ {
			v := pick("L")
			if outs := g.Out(v); len(outs) > 0 {
				e := [2]graph.NodeID{v, outs[r.Intn(len(outs))]}
				if !slices.Contains(d.DelEdges, e) {
					d.DelEdges = append(d.DelEdges, e)
				}
			}
		}
		// A fresh A node keys entries past the {A} root; a fresh L node
		// joins entries as a member.
		d.AddNodes = []graph.NodeSpec{{Label: lbl["A"]}, {Label: lbl["L"]}}
		d.AddEdges = append(d.AddEdges,
			[2]graph.NodeID{graph.NewNodeRef(0), graph.NewNodeRef(1)},
			[2]graph.NodeID{graph.NewNodeRef(1), pick("B")},
			[2]graph.NodeID{pick("L"), graph.NewNodeRef(0)},
			[2]graph.NodeID{graph.NewNodeRef(1), pick("C")})
		if epoch%4 == 0 {
			v := pick([]string{"A", "B", "C"}[r.Intn(3)])
			d.DelNodes = []graph.NodeID{v}
			named := func(e [2]graph.NodeID) bool { return e[0] == v || e[1] == v }
			d.AddEdges = slices.DeleteFunc(d.AddEdges, named)
			d.DelEdges = slices.DeleteFunc(d.DelEdges, named)
		}
		if epoch%7 == 0 {
			// Five more C neighbors of one B node break {B} -> (C, 4).
			b := pick("B")
			for k := 0; k < 5; k++ {
				d.AddNodes = append(d.AddNodes, graph.NodeSpec{Label: lbl["C"]})
				d.AddEdges = append(d.AddEdges, [2]graph.NodeID{b, graph.NewNodeRef(len(d.AddNodes) - 1)})
			}
		}
		prev := pinForms(set)
		res, err := set.ApplyDeltaTx(g, d)
		if err != nil {
			rejected++
		} else {
			accepted++
			if err := other.set.ReplayDelta(other.g, d, res.Touched); err != nil {
				t.Fatalf("epoch %d: ReplayDelta: %v", epoch, err)
			}
			other.set.ShareReadForms(set)
			for i, v := range res.NewIDs {
				name := "C"
				if i < 2 {
					name = []string{"A", "L"}[i]
				}
				live[name] = append(live[name], v)
			}
			for _, v := range d.DelNodes {
				for name, vs := range live {
					live[name] = slices.DeleteFunc(vs, func(w graph.NodeID) bool { return w == v })
				}
			}
		}
		for i, x := range set.indexes {
			switch f := x.rf; {
			case f == prev[i]:
			case f.parent == nil:
				rebuilt++
			case f.depth <= prev[i].depth:
				flattened++
			}
		}
		if f := set.Index(1).rf; f.parent != nil {
			for p := f; p.parent != nil; p = p.parent {
				for _, s := range p.patch {
					if s.off != 0 && s.n > 0 && s.key >= uint64(len(f.start)-1) {
						pastRoot++
					}
				}
			}
		}
		want := formWant(set, g, r)
		for name, s := range map[string]*IndexSet{"applied": set, "replayed": other.set} {
			if p, got, ok := formDiff(pinForms(s), want); !ok {
				t.Fatalf("epoch %d, %s set: constraint %d Lookup(%v) = %v, want %v", epoch, name, p.ci, p.vs, got, p.want)
			}
		}
		mu.Lock()
		snaps = append(snaps, snap{pinForms(set), want})
		mu.Unlock()
	}
	done.Store(true)
	wg.Wait()
	// Every later refresh has set its bits by now: each older form must
	// still answer as its own epoch did.
	for i, s := range snaps {
		if p, got, ok := formDiff(s.forms, s.want); !ok {
			t.Fatalf("snapshot %d, read after every refresh: constraint %d Lookup(%v) = %v, want %v", i, p.ci, p.vs, got, p.want)
		}
	}
	if accepted == 0 || rejected == 0 || flattened == 0 || rebuilt == 0 || pastRoot == 0 {
		t.Fatalf("sequence missed a path: %d accepted, %d rejected, %d flattens, %d rebuilt roots, %d entries patched past the root", accepted, rejected, flattened, rebuilt, pastRoot)
	}
	t.Logf("%d snapshots: %d accepted, %d rejected, %d flattens, %d rebuilt roots, %d entries patched past the root", len(snaps), accepted, rejected, flattened, rebuilt, pastRoot)
}
