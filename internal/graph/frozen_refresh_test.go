package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
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

func TestFrozenNewerPatchReadThroughOlderSnapshot(t *testing.T) {
	g := New(nil)
	a := g.AddNodeNamed("A", Value{})
	b := g.AddNodeNamed("A", Value{})
	c := g.AddNodeNamed("A", Value{})
	g.MustAddEdge(a, b)
	g.MustAddEdge(b, a)
	f0 := g.Freeze()
	g.MustAddEdge(a, c)
	f1 := f0.Refresh(g, []NodeID{a, c})
	if f1.marked(b) || !f1.marked(a) {
		t.Fatal("after patching a and c, only b should read the base directly")
	}
	// b is patched only by the newer layer. Its bit lands in the bitset f1
	// shares, so f1 now walks its own chain for b, finds no patch there,
	// and must answer from the base, not from f2's layer.
	g.MustAddEdge(b, c)
	f2 := f1.Refresh(g, []NodeID{b, c})
	if !f1.marked(b) {
		t.Fatal("the newer layer's bit for b is not visible through the older snapshot")
	}
	for _, tc := range []struct {
		name    string
		got     []NodeID
		want    []NodeID
		has     bool
		wantHas bool
	}{
		{"f0.Out(b)", f0.Out(b), []NodeID{a}, f0.HasEdge(b, c), false},
		{"f1.Out(b)", f1.Out(b), []NodeID{a}, f1.HasEdge(b, c), false},
		{"f2.Out(b)", f2.Out(b), []NodeID{a, c}, f2.HasEdge(b, c), true},
		{"f1.In(c)", f1.In(c), []NodeID{a}, f1.HasEdge(a, c), true},
		{"f2.In(c)", f2.In(c), []NodeID{a, b}, f2.HasEdge(a, c), true},
	} {
		if !equalIDs(tc.got, tc.want) || tc.has != tc.wantHas {
			t.Errorf("%s = %v (HasEdge %v), want %v (HasEdge %v)", tc.name, tc.got, tc.has, tc.want, tc.wantHas)
		}
	}
}

// frozenRows is the adjacency a snapshot must show: every row's sorted
// out- and in-run, indexed by node ID over the snapshot's ID space.
type frozenRows struct{ out, in [][]NodeID }

func freezeRows(g *Graph) frozenRows {
	f := g.Freeze()
	w := frozenRows{out: make([][]NodeID, f.Cap()), in: make([][]NodeID, f.Cap())}
	for v := range w.out {
		w.out[v], w.in[v] = f.Out(NodeID(v)), f.In(NodeID(v))
	}
	return w
}

// frozenDiff compares every row of f, and HasEdge on each row's edges and
// on one pair per row that may or may not be an edge, against want.
func frozenDiff(f *Frozen, want frozenRows) string {
	n := len(want.out)
	if f.Cap() != n {
		return fmt.Sprintf("Cap = %d, want %d", f.Cap(), n)
	}
	for v := NodeID(0); int(v) < n+2; v++ {
		var wo, wi []NodeID
		if int(v) < n {
			wo, wi = want.out[v], want.in[v]
		}
		if got := f.Out(v); !equalIDs(got, wo) {
			return fmt.Sprintf("Out(%d) = %v, want %v", v, got, wo)
		}
		if got := f.In(v); !equalIDs(got, wi) {
			return fmt.Sprintf("In(%d) = %v, want %v", v, got, wi)
		}
		for _, w := range wo {
			if !f.HasEdge(v, w) {
				return fmt.Sprintf("HasEdge(%d,%d) = false for an edge", v, w)
			}
		}
		if next := v + 1; f.HasEdge(v, next) != slices.Contains(wo, next) {
			return fmt.Sprintf("HasEdge(%d,%d) = %v", v, next, !slices.Contains(wo, next))
		}
	}
	return ""
}

// TestFrozenChainProperty drives random refresh sequences — edge adds and
// deletes, node inserts past the base and node deletes — long enough to
// flatten the chain and to force full re-freezes, once feeding Refresh
// every changed row and once through a filter that keeps a subset, as a
// shard store's ownership filter does. Every snapshot is kept, and reader
// goroutines re-check random older ones while later refreshes run, so
// under -race the chain's shared patched-row bitset is exercised against
// concurrent readers. A snapshot must show, on every row, the adjacency
// its own epoch defines: a fresh Freeze of the graph at that epoch, except
// that a row the filter kept out stays as the last refresh or full freeze
// that read it left it.
func TestFrozenChainProperty(t *testing.T) {
	for _, tc := range []struct {
		name string
		seed int64
		keep func(NodeID) bool
	}{
		{"every row", 1, nil},
		{"filtered", 2, func(v NodeID) bool { return v%3 != 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) { checkFrozenChain(t, tc.seed, tc.keep) })
	}
}

func checkFrozenChain(t *testing.T, seed int64, keep func(NodeID) bool) {
	type snap struct {
		f    *Frozen
		want frozenRows
	}
	r := rand.New(rand.NewSource(seed))
	g := frozenTestGraph(t, seed, 1500, 3000)
	live := g.NodeList()
	label := g.Interner().Intern("B")
	f := g.Freeze()
	var (
		mu    sync.Mutex
		snaps = []snap{{f, freezeRows(g)}}
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
				if diff := frozenDiff(s.f, s.want); diff != "" {
					t.Errorf("concurrent reader, snapshot at depth %d: %s", s.f.Depth(), diff)
					return
				}
			}
		}(rand.New(rand.NewSource(seed*10 + int64(w))))
	}

	var flattened, refrozen, pastBase int
	for epoch := 1; epoch <= 80; epoch++ {
		d := &Delta{}
		for k := 0; k < 10+r.Intn(30); k++ {
			from, to := live[r.Intn(len(live))], live[r.Intn(len(live))]
			if from != to && !g.HasEdge(from, to) {
				d.AddEdges = append(d.AddEdges, [2]NodeID{from, to})
			}
		}
		for k := 0; k < 5; k++ {
			v := live[r.Intn(len(live))]
			if outs := g.Out(v); len(outs) > 0 {
				d.DelEdges = append(d.DelEdges, [2]NodeID{v, outs[r.Intn(len(outs))]})
			}
		}
		for k := 0; k < 2; k++ {
			d.AddNodes = append(d.AddNodes, NodeSpec{Label: label})
			d.AddEdges = append(d.AddEdges, [2]NodeID{NewNodeRef(k), live[r.Intn(len(live))]}, [2]NodeID{live[r.Intn(len(live))], NewNodeRef(k)})
		}
		if epoch%5 == 0 {
			i := r.Intn(len(live))
			d.DelNodes = []NodeID{live[i]}
			live = append(live[:i], live[i+1:]...)
		}
		changed := refreshRows(g, d)
		newIDs, err := d.Apply(g)
		if err != nil && err != ErrDupEdge {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		live = append(live, newIDs...)
		rows := changed(newIDs)
		if keep != nil {
			rows = slices.DeleteFunc(rows, func(v NodeID) bool { return !keep(v) })
		}
		prev := f
		f = f.Refresh(g, rows)

		fresh := freezeRows(g)
		want := fresh
		switch {
		case f.Depth() == 0:
			refrozen++
		case keep != nil:
			// Only the refreshed rows move; every other row is the
			// previous snapshot's, and a row inserted past it that the
			// filter kept out has never been read.
			prevWant := snaps[len(snaps)-1].want
			want = frozenRows{out: make([][]NodeID, g.Cap()), in: make([][]NodeID, g.Cap())}
			copy(want.out, prevWant.out)
			copy(want.in, prevWant.in)
			for _, v := range rows {
				want.out[v], want.in[v] = fresh.out[v], fresh.in[v]
			}
		}
		if f.Depth() > 0 && f.Depth() <= prev.Depth() {
			flattened++
		}
		for v := range f.patch {
			if int(v) >= len(f.outStart)-1 {
				pastBase++
			}
		}
		if diff := frozenDiff(f, want); diff != "" {
			t.Fatalf("epoch %d (depth %d): %s", epoch, f.Depth(), diff)
		}
		mu.Lock()
		snaps = append(snaps, snap{f, want})
		mu.Unlock()
	}
	done.Store(true)
	wg.Wait()
	// Every later refresh has set its bits by now: each older snapshot
	// must still show its own epoch.
	for i, s := range snaps {
		if diff := frozenDiff(s.f, s.want); diff != "" {
			t.Fatalf("snapshot %d, read after every refresh: %s", i, diff)
		}
	}
	if flattened == 0 || refrozen == 0 || pastBase == 0 {
		t.Fatalf("sequence missed a path: %d flattens, %d full re-freezes, %d rows patched past the base", flattened, refrozen, pastBase)
	}
	t.Logf("%d snapshots: %d flattens, %d full re-freezes, %d rows patched past the base", len(snaps), flattened, refrozen, pastBase)
}
