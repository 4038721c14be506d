package store

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"boundedg/internal/access"
	"boundedg/internal/graph"
)

// TestReplicatedChangeRingMatchesPrimary drives one scripted history —
// an accepted delta, a constraint violation, a structural reject, and a
// mixed group-commit batch — through Apply on a primary and feeds what
// the primary accepted, epoch by epoch, through ApplyReplicated on a
// follower. Both record their change rings in the same publish step, so
// after every step ChangedSince must agree on every span: same verdict,
// same covered epoch, same rows, same labels.
func TestReplicatedChangeRingMatchesPrimary(t *testing.T) {
	g := graph.New(nil)
	year := g.Interner().Intern("year")
	movie := g.Interner().Intern("movie")
	y0 := g.AddNode(year, graph.IntValue(2010))
	y1 := g.AddNode(year, graph.IntValue(2011))
	m0 := g.AddNode(movie, graph.NoValue())
	m1 := g.AddNode(movie, graph.NoValue())
	g.MustAddEdge(m0, y0)
	g.MustAddEdge(m1, y0)
	// At most 2 movies per year: a third movie on y0 violates.
	schema := access.NewSchema(
		access.MustNew(nil, year, 10),
		access.MustNew([]graph.Label{year}, movie, 2),
	)
	idx, viols := access.Build(g, schema)
	if viols != nil {
		t.Fatal(viols)
	}
	follower := New(g.Clone(), idx.Clone())
	primary := New(g, idx)

	agree := func(step string) {
		t.Helper()
		if pe, fe := primary.Epoch(), follower.Epoch(); pe != fe {
			t.Fatalf("%s: primary at epoch %d, follower at %d", step, pe, fe)
		}
		for since := uint64(0); since <= primary.Epoch()+1; since++ {
			ps, pok := primary.ChangedSince(since)
			fs, fok := follower.ChangedSince(since)
			if pok != fok || ps.Epoch != fs.Epoch {
				t.Fatalf("%s: ChangedSince(%d): primary (epoch %d, ok=%v) vs follower (epoch %d, ok=%v)", step, since, ps.Epoch, pok, fs.Epoch, fok)
			}
			slices.Sort(ps.Rows)
			slices.Sort(fs.Rows)
			slices.Sort(ps.Labels)
			slices.Sort(fs.Labels)
			if !reflect.DeepEqual(ps.Rows, fs.Rows) || !reflect.DeepEqual(ps.Labels, fs.Labels) {
				t.Fatalf("%s: ChangedSince(%d) diverged:\nprimary  rows %v labels %v\nfollower rows %v labels %v",
					step, since, ps.Rows, ps.Labels, fs.Rows, fs.Labels)
			}
		}
	}
	// batch group-commits ds on the primary as ONE epoch, in slice order
	// (queued under the writer lock's nose so the order is the script's,
	// not the scheduler's), then replicates what it accepted.
	batch := func(step string, ds ...*graph.Delta) []error {
		t.Helper()
		reqs := make([]*Request, len(ds))
		for i, d := range ds {
			reqs[i] = primary.queue.Push(d)
		}
		primary.lead()
		errs := make([]error, len(ds))
		var accepted []*graph.Delta
		for i, r := range reqs {
			if _, errs[i] = r.Wait(); errs[i] == nil {
				accepted = append(accepted, ds[i].Clone())
			}
		}
		if len(accepted) > 0 {
			if err := follower.ApplyReplicated(primary.Epoch(), accepted); err != nil {
				t.Fatalf("%s: replicate epoch %d: %v", step, primary.Epoch(), err)
			}
		}
		agree(step)
		return errs
	}

	agree("idle")

	// Accept: a new movie on y1 (an inserted label plus two changed rows).
	if errs := batch("accept", &graph.Delta{
		AddNodes: []graph.NodeSpec{{Label: movie}},
		AddEdges: [][2]graph.NodeID{{graph.NewNodeRef(0), y1}},
	}); errs[0] != nil {
		t.Fatal(errs[0])
	}
	// Violation: a third movie on y0. No epoch, nothing recorded.
	var verr *access.ViolationError
	if errs := batch("violation", &graph.Delta{
		AddNodes: []graph.NodeSpec{{Label: movie}},
		AddEdges: [][2]graph.NodeID{{graph.NewNodeRef(0), y0}},
	}); !errors.As(errs[0], &verr) {
		t.Fatalf("violation step: err %v", errs[0])
	}
	// Structural reject: a node that does not exist.
	if errs := batch("structural", &graph.Delta{DelNodes: []graph.NodeID{4242}}); errs[0] == nil || errors.As(errs[0], &verr) {
		t.Fatalf("structural step: err %v", errs[0])
	}
	if primary.Epoch() != 1 {
		t.Fatalf("rejected steps consumed epochs: %d", primary.Epoch())
	}
	// Mixed batch, one epoch: a node deletion (a deleted label), a
	// violation staged on top of it (y0 is down to one movie; two more
	// make three) and an edge move.
	errs := batch("mixed",
		&graph.Delta{DelNodes: []graph.NodeID{m0}},
		&graph.Delta{
			AddNodes: []graph.NodeSpec{{Label: movie}, {Label: movie}},
			AddEdges: [][2]graph.NodeID{{graph.NewNodeRef(0), y0}, {graph.NewNodeRef(1), y0}},
		},
		&graph.Delta{DelEdges: [][2]graph.NodeID{{m1, y0}}, AddEdges: [][2]graph.NodeID{{m1, y1}}},
	)
	if errs[0] != nil || !errors.As(errs[1], &verr) || errs[2] != nil {
		t.Fatalf("mixed batch verdicts: %v", errs)
	}
	if primary.Epoch() != 2 {
		t.Fatalf("mixed batch published epoch %d, want 2", primary.Epoch())
	}
	if ps, fs := primary.Stats(), follower.Stats(); ps.Applied != fs.Applied || ps.Batches != fs.Batches || ps.TouchedRows != fs.TouchedRows {
		t.Fatalf("counters diverged: primary %+v follower %+v", ps, fs)
	}
}
