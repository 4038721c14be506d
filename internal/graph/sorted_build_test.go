package graph

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// sortedCase returns the inputs of a random FromSortedEdges build (keys
// ascending and distinct, self-loops included) and the same graph built
// the ordinary way, edge by edge in key order, so its rows come out in the
// same order.
func sortedCase(seed int64, n, e int) (labels []Label, values []Value, keys []uint64, ref *Graph) {
	r := rand.New(rand.NewSource(seed))
	in := NewInterner()
	ref = New(in)
	for v := 0; v < n; v++ {
		l := in.Intern(string(rune('A' + r.Intn(4))))
		val := IntValue(int64(v))
		labels, values = append(labels, l), append(values, val)
		ref.AddNode(l, val)
	}
	for i := 0; i < e; i++ {
		keys = append(keys, PackEdge(NodeID(r.Intn(n)), NodeID(r.Intn(n))))
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
	for _, k := range keys {
		ref.MustAddEdge(UnpackEdge(k))
	}
	return labels, values, keys, ref
}

// answers collects what a reader sees: every HasEdge, every Neighbors row,
// the Edges enumeration and NumEdges.
type answers struct {
	has       []bool
	neighbors [][]NodeID
	edges     [][2]NodeID
	numEdges  int
}

func readAnswers(g *Graph, n int) answers {
	var a answers
	for v := NodeID(-1); v <= NodeID(n); v++ {
		for w := NodeID(-1); w <= NodeID(n); w++ {
			a.has = append(a.has, g.HasEdge(v, w))
		}
		a.neighbors = append(a.neighbors, g.Neighbors(v))
	}
	g.Edges(func(from, to NodeID) bool {
		a.edges = append(a.edges, [2]NodeID{from, to})
		return true
	})
	a.numEdges = g.NumEdges()
	return a
}

// TestFromSortedEdgesMutationBoundary: a graph built from sorted keys has
// no edge map and serves HasEdge from its sorted rows. It must answer
// exactly like an ordinarily built graph before and after its first
// AddEdge, RemoveEdge or Clone, though its rows share one backing array.
func TestFromSortedEdgesMutationBoundary(t *testing.T) {
	const n, e = 24, 90
	for seed := int64(1); seed <= 5; seed++ {
		build := func() (*Graph, *Graph) {
			labels, values, keys, ref := sortedCase(seed, n, e)
			g := FromSortedEdges(ref.Interner(), labels, values, keys)
			if g.edges != nil {
				t.Fatal("sorted build carries an edge map")
			}
			return g, ref
		}

		g, ref := build()
		want := readAnswers(ref, n)
		if got := readAnswers(g, n); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: sorted build answers differently from the reference", seed)
		}
		for l, row := range ref.byLabel {
			if !slices.Equal(g.NodesByLabel(l), row) {
				t.Fatalf("seed %d: label %d row %v, want %v", seed, l, g.NodesByLabel(l), row)
			}
		}

		// Clone: the copy is an ordinary graph; the source stays map-free.
		c := g.Clone()
		if c.edges == nil || g.edges != nil {
			t.Fatalf("seed %d: Clone: clone map %v, source map %v", seed, c.edges != nil, g.edges != nil)
		}
		for name, h := range map[string]*Graph{"source": g, "clone": c} {
			if got := readAnswers(h, n); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: %s answers differently after Clone", seed, name)
			}
		}

		// AddEdge: a duplicate is still refused, and a fresh edge lands.
		g, ref = build()
		var from, to NodeID
		ref.Edges(func(f, w NodeID) bool { from, to = f, w; return false })
		if err := g.AddEdge(from, to); !errors.Is(err, ErrDupEdge) {
			t.Fatalf("seed %d: AddEdge of existing (%d,%d) = %v, want ErrDupEdge", seed, from, to, err)
		}
		if got := readAnswers(g, n); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: answers changed after a refused AddEdge", seed)
		}
		for v := NodeID(0); v < n; v++ {
			if !g.HasEdge(v, v) {
				mustEdge(t, g, v, v)
				mustEdge(t, ref, v, v)
				break
			}
		}
		if got, want := readAnswers(g, n), readAnswers(ref, n); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: answers differ after AddEdge", seed)
		}

		// RemoveEdge: every edge of a row, so the swap-removes rewrite a
		// run of the shared backing array.
		g, ref = build()
		for _, w := range slices.Clone(ref.Out(from)) {
			if err := g.RemoveEdge(from, w); err != nil {
				t.Fatalf("seed %d: RemoveEdge(%d,%d): %v", seed, from, w, err)
			}
			if err := ref.RemoveEdge(from, w); err != nil {
				t.Fatal(err)
			}
			if got, want := readAnswers(g, n), readAnswers(ref, n); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: answers differ after RemoveEdge(%d,%d)", seed, from, w)
			}
		}
	}
}
