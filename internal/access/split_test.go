package access

import (
	"math/rand"
	"slices"
	"testing"

	"boundedg/internal/graph"
)

// TestSplitPartsMatchOwnerFilter: every part of a split index set answers
// each lookup with exactly the unsharded entry's members that its shard
// owns, for all four key arities (|S| = 0, 1, 2 and 3), and the parts
// together hold no member the unsharded set lacks. Split fills and freezes
// the constraints' parts on parallel goroutines; run it with -race.
func TestSplitPartsMatchOwnerFilter(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	in := graph.NewInterner()
	lA, lB, lC, lL := in.Intern("A"), in.Intern("B"), in.Intern("C"), in.Intern("L")
	g := graph.New(in)
	var keyNodes []graph.NodeID
	for _, l := range []graph.Label{lA, lB, lC} {
		for i := 0; i < 5; i++ {
			keyNodes = append(keyNodes, g.AddNode(l, graph.Value{}))
		}
	}
	for i := 0; i < 40; i++ {
		v := g.AddNode(lL, graph.Value{})
		for _, s := range keyNodes {
			switch r.Intn(4) {
			case 0:
				g.MustAddEdge(s, v)
			case 1:
				g.MustAddEdge(v, s)
			}
		}
	}
	schema := NewSchema(
		MustNew(nil, lL, 100),
		MustNew([]graph.Label{lA}, lL, 100),
		MustNew([]graph.Label{lA, lB}, lL, 100),
		MustNew([]graph.Label{lA, lB, lC}, lL, 100),
	)
	set, viols := Build(g, schema)
	if viols != nil {
		t.Fatalf("Build: %v", viols[0])
	}
	for _, n := range []int{2, 3, 5} {
		owner := func(v graph.NodeID) int { return int(uint64(v)*0x9e3779b97f4a7c15>>32) % n }
		parts := set.Split(n, owner)
		for i := range schema.Constraints() {
			x := set.Index(i)
			if x.NumEntries() == 0 {
				t.Fatalf("constraint %d has no entries", i)
			}
			total := 0
			for key := range x.entries {
				vs := x.tupleOf(key, nil)
				all := x.Lookup(vs)
				for p, part := range parts {
					want := slices.DeleteFunc(slices.Clone(all), func(v graph.NodeID) bool { return owner(v) != p })
					if got := part.Index(i).Lookup(vs); !slices.Equal(got, want) {
						t.Fatalf("%d parts, constraint %d (|S| = %d), key %v: part %d holds %v, want %v", n, i, len(x.c.S), vs, p, got, want)
					}
				}
				total += len(all)
			}
			held := 0
			for _, part := range parts {
				for _, e := range part.Index(i).entries {
					held += len(e.members)
				}
			}
			if held != total {
				t.Fatalf("%d parts, constraint %d: parts hold %d members, the set %d", n, i, held, total)
			}
		}
	}
}
