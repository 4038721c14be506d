package core

import (
	"reflect"
	"testing"

	"boundedg/internal/graph"
)

// TestFootprintDisjoint pins the conservative intersection semantics:
// any shared row or label defeats disjointness, and an overflowed
// footprint never vouches for anything.
func TestFootprintDisjoint(t *testing.T) {
	fp := NewFootprint()
	fp.addRows([]graph.NodeID{1, 2, 3})
	fp.addLabel(7)

	if !fp.Disjoint([]graph.NodeID{4, 5}, []graph.Label{8}) {
		t.Fatal("unrelated rows and labels reported as intersecting")
	}
	if fp.Disjoint([]graph.NodeID{5, 2}, nil) {
		t.Fatal("shared row 2 missed")
	}
	if fp.Disjoint(nil, []graph.Label{7}) {
		t.Fatal("shared label 7 missed")
	}
	if !fp.HasRow(1) || fp.HasRow(9) || !fp.HasLabel(7) || fp.HasLabel(8) {
		t.Fatal("HasRow/HasLabel membership wrong")
	}
	if fp.NumRows() != 3 {
		t.Fatalf("NumRows = %d, want 3", fp.NumRows())
	}

	// Push past the cap: the footprint flips to overflow and stops
	// vouching even for genuinely disjoint deltas.
	big := make([]graph.NodeID, maxFootprintRows+1)
	for i := range big {
		big[i] = graph.NodeID(i + 100)
	}
	fp.addRows(big)
	if !fp.Overflowed() {
		t.Fatal("footprint did not overflow past the row cap")
	}
	if fp.Disjoint([]graph.NodeID{999999999}, nil) {
		t.Fatal("overflowed footprint vouched for disjointness")
	}
}

// TestExecFootprintRecording runs a real bounded plan with footprint
// recording on and checks that (a) recording does not perturb the
// result, (b) every node of the fetched subgraph GQ is in the footprint
// (GQ nodes are exactly the union of final candidate sets, which the
// recorder captures per op), and (c) the plan's type-1 seed labels are
// recorded.
func TestExecFootprintRecording(t *testing.T) {
	d, idx, p := cancelFixture(t, 0.05)

	wantBG, wantStats, err := p.Exec(d.G, idx)
	if err != nil {
		t.Fatalf("reference Exec: %v", err)
	}

	fp := NewFootprint()
	bg, stats, err := p.ExecWith(d.G, idx, &ExecConfig{Footprint: fp})
	if err != nil {
		t.Fatalf("ExecWith(footprint): %v", err)
	}
	if !reflect.DeepEqual(bg, wantBG) || !reflect.DeepEqual(stats, wantStats) {
		t.Fatal("footprint recording perturbed the execution result")
	}

	if fp.NumRows() == 0 {
		t.Fatal("footprint recorded no rows for a non-trivial plan")
	}
	for gqID, orig := range bg.ToOrig {
		if !fp.HasRow(orig) {
			t.Fatalf("GQ node %d (orig %d) missing from footprint", gqID, orig)
		}
	}
	seeds := 0
	for _, op := range p.Ops {
		if op.Deps == nil {
			seeds++
			if l := p.A.At(op.CIdx).L; !fp.HasLabel(l) {
				t.Fatalf("type-1 seed label %d missing from footprint", l)
			}
		}
	}
	if seeds == 0 {
		t.Fatal("fixture plan has no type-1 seed op; test is vacuous")
	}

}
