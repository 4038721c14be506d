package access

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"boundedg/internal/graph"
)

// ternaryCase builds a random graph over labels A, B, C and L and a schema
// whose only constraint is {A, B, C} -> (L, n): the one key arity the
// packed-word encoding does not cover, so every entry key goes through the
// per-index tuple intern table.
func ternaryCase(t *testing.T, seed int64) (*graph.Graph, *Schema, map[string]graph.Label) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	in := graph.NewInterner()
	lbl := map[string]graph.Label{}
	for _, name := range []string{"A", "B", "C", "L"} {
		lbl[name] = in.Intern(name)
	}
	g := graph.New(in)
	byName := map[string][]graph.NodeID{}
	for _, name := range []string{"A", "B", "C"} {
		for i := 0; i < 4; i++ {
			byName[name] = append(byName[name], g.AddNode(lbl[name], graph.Value{}))
		}
	}
	for i := 0; i < 12; i++ {
		v := g.AddNode(lbl["L"], graph.Value{})
		for _, name := range []string{"A", "B", "C"} {
			for _, s := range byName[name] {
				if r.Intn(2) == 0 {
					if r.Intn(2) == 0 {
						g.MustAddEdge(s, v)
					} else {
						g.MustAddEdge(v, s)
					}
				}
			}
		}
	}
	schema := NewSchema(MustNew([]graph.Label{lbl["A"], lbl["B"], lbl["C"]}, lbl["L"], 12))
	return g, schema, lbl
}

// assertTernaryBruteForce checks every (a, b, c) tuple, in every argument
// order, against the graph's common neighbors.
func assertTernaryBruteForce(t *testing.T, g *graph.Graph, set *IndexSet, lbl map[string]graph.Label) {
	t.Helper()
	x := set.Index(0)
	for _, a := range g.NodesByLabel(lbl["A"]) {
		for _, b := range g.NodesByLabel(lbl["B"]) {
			for _, c := range g.NodesByLabel(lbl["C"]) {
				want := g.CommonNeighbors([]graph.NodeID{a, b, c}, lbl["L"])
				for _, vs := range [][]graph.NodeID{{a, b, c}, {c, a, b}, {b, c, a}} {
					if got := x.Lookup(vs); !sameIDSet(got, want) {
						t.Fatalf("Lookup(%v) = %v, want %v", vs, got, want)
					}
				}
			}
		}
	}
}

// TestTernaryKeyPath drives the |S| > 2 key path through everything that
// keys an entry: build, transactional maintenance (accept, violation,
// node deletion), lag replay, row-partitioning, the cross-shard entry-size
// sum, and the on-disk round trip.
func TestTernaryKeyPath(t *testing.T) {
	g, schema, lbl := ternaryCase(t, 1)
	set, viols := Build(g, schema)
	if viols != nil {
		t.Fatalf("Build: %v", viols[0])
	}
	if set.Index(0).tupleIDs == nil || set.Index(0).NumEntries() == 0 {
		t.Fatal("ternary index has no interned entries")
	}
	assertTernaryBruteForce(t, g, set, lbl)

	// The paired copy-on-write instance replays every accepted delta.
	lagG, lagSet := g.Clone(), set.Clone()
	replay := func(d *graph.Delta, res *DeltaResult) {
		t.Helper()
		if err := lagSet.ReplayDelta(lagG, d, res.Touched); err != nil {
			t.Fatalf("ReplayDelta: %v", err)
		}
		if !bytes.Equal(indexBytes(t, lagSet, g.Interner()), indexBytes(t, set, g.Interner())) {
			t.Fatal("replayed instance diverged from the live one")
		}
	}

	a, b, c := g.NodesByLabel(lbl["A"])[0], g.NodesByLabel(lbl["B"])[0], g.NodesByLabel(lbl["C"])[0]

	// Accept: a fresh L node adjacent to (a, b, c) joins that entry.
	d := &graph.Delta{
		AddNodes: []graph.NodeSpec{{Label: lbl["L"]}},
		AddEdges: [][2]graph.NodeID{{graph.NewNodeRef(0), a}, {b, graph.NewNodeRef(0)}, {graph.NewNodeRef(0), c}},
	}
	res, err := set.ApplyDeltaTx(g, d)
	if err != nil {
		t.Fatalf("ApplyDeltaTx accept: %v", err)
	}
	if !slices.Contains(set.Index(0).Lookup([]graph.NodeID{c, b, a}), res.NewIDs[0]) {
		t.Fatal("accepted node missing from its (a, b, c) entry")
	}
	assertIndexesMatchRebuild(t, g, schema, set)
	assertTernaryBruteForce(t, g, set, lbl)
	replay(d, res)

	// Violation: enough new L nodes on (a, b, c) to break the bound leave
	// graph and index exactly untouched.
	before, beforeG := indexBytes(t, set, g.Interner()), graphBytes(t, g)
	d = &graph.Delta{}
	for k := 0; k < 13; k++ {
		ref := graph.NewNodeRef(k)
		d.AddNodes = append(d.AddNodes, graph.NodeSpec{Label: lbl["L"]})
		d.AddEdges = append(d.AddEdges, [2]graph.NodeID{ref, a}, [2]graph.NodeID{ref, b}, [2]graph.NodeID{ref, c})
	}
	var ve *ViolationError
	if _, err := set.ApplyDeltaTx(g, d); !errors.As(err, &ve) {
		t.Fatalf("over-bound delta: err = %v, want a ViolationError", err)
	}
	if !bytes.Equal(indexBytes(t, set, g.Interner()), before) || !bytes.Equal(graphBytes(t, g), beforeG) {
		t.Fatal("rejected delta left a trace")
	}
	assertTernaryBruteForce(t, g, set, lbl)

	// Node deletion: deleting a key-side node purges every entry keyed
	// through it (purgeVSNode) and its intern IDs.
	internedBefore := len(set.Index(0).tupleIDs)
	d = &graph.Delta{DelNodes: []graph.NodeID{a}}
	res, err = set.ApplyDeltaTx(g, d)
	if err != nil {
		t.Fatalf("ApplyDeltaTx delete: %v", err)
	}
	x := set.Index(0)
	if _, ok := x.vsKeys[a]; ok {
		t.Fatal("deleted node still keys entries")
	}
	if len(x.tupleIDs) != x.NumEntries() || len(x.tupleIDs) >= internedBefore {
		t.Fatalf("intern table holds %d tuples for %d entries (was %d)", len(x.tupleIDs), x.NumEntries(), internedBefore)
	}
	assertIndexesMatchRebuild(t, g, schema, set)
	assertTernaryBruteForce(t, g, set, lbl)
	replay(d, res)

	// Split: a k-way merge of the shard entries is the global entry.
	for _, n := range []int{2, 3} {
		parts := set.Split(n, func(v graph.NodeID) int { return int(v) % n })
		for key := range x.entries {
			vs := x.tupleOf(key, nil)
			var merged []graph.NodeID
			for _, p := range parts {
				merged = append(merged, p.Index(0).Lookup(vs)...)
			}
			slices.Sort(merged)
			if !slices.Equal(merged, x.Lookup(vs)) {
				t.Fatalf("%d-way split of %v: %v, want %v", n, vs, merged, x.Lookup(vs))
			}
		}
	}

	// The router's bound check: a staged delta's touched entries, named by
	// tuple, sum across the row partition to the global entry size.
	b2, c2 := g.NodesByLabel(lbl["B"])[1], g.NodesByLabel(lbl["C"])[1]
	a2 := g.NodesByLabel(lbl["A"])[0]
	sd, err := set.StageDelta(g, &graph.Delta{
		AddNodes: []graph.NodeSpec{{Label: lbl["L"]}},
		AddEdges: [][2]graph.NodeID{{graph.NewNodeRef(0), a2}, {graph.NewNodeRef(0), b2}, {graph.NewNodeRef(0), c2}},
	})
	if err != nil {
		t.Fatalf("StageDelta: %v", err)
	}
	touched := sd.TouchedEntries()
	if len(touched) == 0 {
		t.Fatal("staged insert touched no entries")
	}
	parts := set.Split(3, func(v graph.NodeID) int { return int(v) % 3 })
	for _, te := range touched {
		want := len(x.Lookup(decodeTuple(te.tuple, nil)))
		if want == 0 || set.EntryLen(te) != want {
			t.Fatalf("EntryLen(%v) = %d, want %d", te, set.EntryLen(te), want)
		}
		sum := 0
		for _, p := range parts {
			sum += p.EntryLen(te)
		}
		if sum != want {
			t.Fatalf("entry %v: shard sizes sum to %d, want %d", te, sum, want)
		}
	}
	sd.Rollback()
	assertIndexesMatchRebuild(t, g, schema, set)

	// Encode -> decode -> encode is byte-identical, and the decoded set
	// answers every lookup.
	first := indexBytes(t, set, g.Interner())
	loaded, err := ReadIndexSet(bytes.NewReader(first), g.Interner())
	if err != nil {
		t.Fatalf("ReadIndexSet: %v", err)
	}
	if !bytes.Equal(indexBytes(t, loaded, g.Interner()), first) {
		t.Fatal("index round trip not byte-identical")
	}
	assertTernaryBruteForce(t, g, loaded, lbl)
}
