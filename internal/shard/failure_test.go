package shard

import (
	"errors"
	"testing"
	"time"

	"boundedg/internal/access"
	"boundedg/internal/graph"
	"boundedg/internal/store"
	"boundedg/internal/workload"
)

// failureEdges picks, from g partitioned by m, one cross-shard edge
// (oriented so the edge's shards are lo < hi) and one edge with both
// endpoints on lo.
func failureEdges(t *testing.T, g *graph.Graph, m Map) (cross, intra [2]graph.NodeID, lo, hi int) {
	t.Helper()
	found := false
	g.Edges(func(a, b graph.NodeID) bool {
		if m.Of(a) != m.Of(b) {
			cross, found = [2]graph.NodeID{a, b}, true
			return false
		}
		return true
	})
	if !found {
		t.Fatal("no cross-shard edge in dataset")
	}
	lo, hi = m.Of(cross[0]), m.Of(cross[1])
	if hi < lo {
		lo, hi = hi, lo
	}
	found = false
	g.Edges(func(a, b graph.NodeID) bool {
		if m.Of(a) == lo && m.Of(b) == lo {
			intra, found = [2]graph.NodeID{a, b}, true
			return false
		}
		return true
	})
	if !found {
		t.Fatalf("no edge inside shard %d", lo)
	}
	return cross, intra, lo, hi
}

// TestRouterShardRefusalFailsBatch drives the begin-refusal exit of a
// cross-shard commit: the lower participant opens and stages its part,
// the higher one refuses to open because it is wedged, and the batch
// must fail with the refusal while the staged part is aborted — the GSN
// and the healthy shard's epoch and graph unchanged, and its writer lock
// released for the next delta.
func TestRouterShardRefusalFailsBatch(t *testing.T) {
	d := workload.IMDb(0.12, 7)
	g := d.G.Clone()
	r, err := New(g, access.BuildUnchecked(g, d.Schema), 2)
	if err != nil {
		t.Fatal(err)
	}
	cross, intra, lo, hi := failureEdges(t, d.G, r.Map())
	preGSN, preLo := r.Epoch(), r.Store(lo).Epoch()
	preEdges := r.Stats().Edges

	r.Store(hi).Wedge()
	if _, err := r.Apply(&graph.Delta{DelEdges: [][2]graph.NodeID{cross}}); !errors.Is(err, store.ErrWedged) {
		t.Fatalf("cross-shard apply onto a wedged shard: want ErrWedged, got %v", err)
	}
	if got := r.Epoch(); got != preGSN {
		t.Fatalf("refused batch moved the GSN %d -> %d", preGSN, got)
	}
	if got := r.Store(lo).Epoch(); got != preLo {
		t.Fatalf("refused batch moved healthy shard %d's epoch %d -> %d", lo, preLo, got)
	}
	if got := r.Stats().Edges; got != preEdges {
		t.Fatalf("refused batch changed the edge count %d -> %d", preEdges, got)
	}
	hasCross := func() bool {
		snap := r.Store(lo).Acquire()
		defer snap.Release()
		return snap.G.HasEdge(cross[0], cross[1])
	}
	if !hasCross() {
		t.Fatalf("refused batch's edge deletion is visible on shard %d", lo)
	}

	// A delta touching only the healthy shard commits: Abort released its
	// writer lock, and the shadow it publishes carries no trace of the
	// aborted part.
	res, err := r.Apply(&graph.Delta{DelEdges: [][2]graph.NodeID{intra}})
	if err != nil {
		t.Fatalf("healthy-shard apply after the refusal: %v", err)
	}
	if res.Epoch != preGSN+1 {
		t.Fatalf("healthy-shard apply published GSN %d, want %d", res.Epoch, preGSN+1)
	}
	if got := r.Store(lo).Epoch(); got != res.Epoch {
		t.Fatalf("healthy shard %d at epoch %d, want %d", lo, got, res.Epoch)
	}
	if !hasCross() {
		t.Fatalf("aborted edge deletion resurfaced on shard %d", lo)
	}
}

// TestRouterLogPanicWedges panics in the higher participant's log step of
// a durable cross-shard commit. The panic must reach the Apply caller
// instead of killing the process, wedge every shard, leave later writers
// refused rather than blocked, and rewind the records both participants
// appended, so recovery comes back at the pre-batch GSN.
func TestRouterLogPanicWedges(t *testing.T) {
	d := workload.IMDb(0.12, 7)
	g := d.G.Clone()
	dir := t.TempDir()
	r, err := Create(dir, d.In, g, access.BuildUnchecked(g, d.Schema), 2, false)
	if err != nil {
		t.Fatal(err)
	}
	cross, intra, _, hi := failureEdges(t, d.G, r.Map())
	t.Cleanup(func() {
		r.Close()
		if err := r.CloseDirs(); err != nil {
			t.Error(err)
		}
	})
	// One committed batch first, so the pre-batch state is not the
	// initial checkpoint.
	if _, err := r.Apply(&graph.Delta{DelEdges: [][2]graph.NodeID{intra}}); err != nil {
		t.Fatal(err)
	}
	preGSN := r.Epoch()

	r.hookAfterShardLog = func(s int) error {
		if s == hi {
			panic("injected shard-log panic")
		}
		return nil
	}
	var rec any
	func() {
		defer func() { rec = recover() }()
		r.Apply(&graph.Delta{DelEdges: [][2]graph.NodeID{cross}})
	}()
	if rec != "injected shard-log panic" {
		t.Fatalf("Apply caller saw panic %v, want the injected one", rec)
	}
	for s := 0; s < r.NumShards(); s++ {
		if !r.Store(s).Stats().Wedged {
			t.Fatalf("shard %d not wedged after the log panic", s)
		}
	}
	if got := r.Epoch(); got != preGSN {
		t.Fatalf("panicked batch moved the GSN %d -> %d", preGSN, got)
	}

	r.hookAfterShardLog = nil
	errc := make(chan error, 1)
	go func() {
		_, err := r.Apply(&graph.Delta{DelEdges: [][2]graph.NodeID{cross}})
		errc <- err
	}()
	select {
	case err := <-errc:
		if !errors.Is(err, store.ErrClosed) {
			t.Fatalf("apply after the log panic: want an ErrClosed-wrapping error, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("apply after the log panic blocked")
	}

	r2, info, err := Recover(copyTree(t, dir), d.In, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		r2.Close()
		if err := r2.CloseDirs(); err != nil {
			t.Error(err)
		}
	})
	if info.GSN != preGSN {
		t.Fatalf("recovered GSN %d, want pre-batch %d: the panicked batch's records were not rewound", info.GSN, preGSN)
	}
	if info.TornSeqs != 0 {
		t.Fatalf("recovery cut %d torn sequences, want 0: every participant's records should be rewound", info.TornSeqs)
	}
}
