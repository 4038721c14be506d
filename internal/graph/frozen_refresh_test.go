package graph

import (
	"math/rand"
	"testing"
)

// checkFrozenEqualsGraph asserts f reflects g's exact adjacency for every
// ID in either cap (plus a margin beyond both).
func checkFrozenEqualsGraph(t *testing.T, f *Frozen, g *Graph) {
	t.Helper()
	if f.Cap() != g.Cap() {
		t.Fatalf("Cap = %d, want %d", f.Cap(), g.Cap())
	}
	if f.NumEdges() != g.NumEdges() {
		t.Fatalf("NumEdges = %d, want %d", f.NumEdges(), g.NumEdges())
	}
	for v := NodeID(0); int(v) < g.Cap()+3; v++ {
		if got, want := f.Out(v), sortedIDs(g.Out(v)); !equalIDs(got, want) {
			t.Fatalf("Out(%d) = %v, want %v", v, got, want)
		}
		if got, want := f.In(v), sortedIDs(g.In(v)); !equalIDs(got, want) {
			t.Fatalf("In(%d) = %v, want %v", v, got, want)
		}
	}
	g.Edges(func(from, to NodeID) bool {
		if !f.HasEdge(from, to) {
			t.Fatalf("HasEdge(%d,%d) = false for a present edge", from, to)
		}
		return true
	})
}

func equalIDs(a, b []NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// refreshRows mirrors what the store feeds Refresh: the delta's changed
// rows computed before it applies, plus the IDs it inserted.
func refreshRows(g *Graph, d *Delta) func(newIDs []NodeID) []NodeID {
	changed, _ := d.ChangedRows(g)
	return func(newIDs []NodeID) []NodeID {
		rows := make([]NodeID, 0, len(changed)+len(newIDs))
		for v := range changed {
			rows = append(rows, v)
		}
		return append(rows, newIDs...)
	}
}

func TestFrozenRefreshIncremental(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	g := frozenTestGraph(t, 3, 80, 300)
	f := g.Freeze()
	live := g.NodeList()
	// Enough epochs to cross maxPatchDepth several times (exercising the
	// flatten path) while staying under the full-refreeze threshold.
	for epoch := 0; epoch < 40; epoch++ {
		d := &Delta{}
		switch epoch % 4 {
		case 0:
			d.AddNodes = []NodeSpec{{Label: g.Interner().Intern("B")}}
			d.AddEdges = [][2]NodeID{{NewNodeRef(0), live[r.Intn(len(live))]}}
		case 1:
			d.AddEdges = [][2]NodeID{{live[r.Intn(len(live))], live[r.Intn(len(live))]}}
		case 2:
			v := live[r.Intn(len(live))]
			if outs := g.Out(v); len(outs) > 0 {
				d.DelEdges = [][2]NodeID{{v, outs[0]}}
			}
		case 3:
			i := r.Intn(len(live))
			d.DelNodes = []NodeID{live[i]}
			live = append(live[:i], live[i+1:]...)
		}
		rows := refreshRows(g, d)
		newIDs, err := d.Apply(g)
		if err != nil && err != ErrDupEdge {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		live = append(live, newIDs...)
		f = f.Refresh(g, rows(newIDs))
		checkFrozenEqualsGraph(t, f, g)
		if f.Depth() > maxPatchDepth {
			t.Fatalf("epoch %d: depth %d exceeds bound", epoch, f.Depth())
		}
	}
	if f.Depth() == 0 {
		t.Fatal("refresh never produced a patch layer — the incremental path was not exercised")
	}
}

func TestFrozenRefreshDoesNotMutatePredecessors(t *testing.T) {
	g := New(nil)
	a := g.AddNodeNamed("A", Value{})
	b := g.AddNodeNamed("A", Value{})
	c := g.AddNodeNamed("A", Value{})
	g.MustAddEdge(a, b)
	f0 := g.Freeze()
	g.MustAddEdge(a, c)
	f1 := f0.Refresh(g, []NodeID{a, c})
	if err := g.RemoveEdge(a, b); err != nil {
		t.Fatal(err)
	}
	f2 := f1.Refresh(g, []NodeID{a, b})

	if got := f0.Out(a); !equalIDs(got, []NodeID{b}) {
		t.Fatalf("epoch-0 view changed: Out(a) = %v", got)
	}
	if got := f1.Out(a); !equalIDs(got, []NodeID{b, c}) {
		t.Fatalf("epoch-1 view changed: Out(a) = %v", got)
	}
	if got := f2.Out(a); !equalIDs(got, []NodeID{c}) {
		t.Fatalf("epoch-2 view wrong: Out(a) = %v", got)
	}
	if f0.HasEdge(a, c) || !f2.HasEdge(a, c) {
		t.Fatal("HasEdge views leaked across epochs")
	}
}

func TestFrozenRefreshFallsBackToFreeze(t *testing.T) {
	g := New(nil)
	l := g.Interner().Intern("A")
	n := 6000 // cap must exceed 4×refreezeMinRows for the fallback to arm
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = g.AddNode(l, Value{})
	}
	for i := 0; i < n-1; i++ {
		g.MustAddEdge(ids[i], ids[i+1])
	}
	f := g.Freeze()
	r := rand.New(rand.NewSource(9))
	sawRebuild := false
	for epoch := 0; epoch < 30; epoch++ {
		// Touch a wide row range so the cumulative patch count crosses
		// refreezeMinRows and a quarter of the ID space.
		rows := make([]NodeID, 0, 160)
		d := &Delta{}
		for k := 0; k < 80; k++ {
			from, to := ids[r.Intn(n)], ids[r.Intn(n)]
			if from != to && !g.HasEdge(from, to) {
				d.AddEdges = append(d.AddEdges, [2]NodeID{from, to})
			}
		}
		rowsFn := refreshRows(g, d)
		if _, err := d.Apply(g); err != nil && err != ErrDupEdge {
			t.Fatal(err)
		}
		f = f.Refresh(g, rowsFn(rows))
		if f.Depth() == 0 && epoch > 0 {
			sawRebuild = true
		}
		checkFrozenEqualsGraph(t, f, g)
	}
	if !sawRebuild {
		t.Fatal("patched fraction never triggered a full re-freeze")
	}
}
