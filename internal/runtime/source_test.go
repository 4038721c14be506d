package runtime

import (
	"errors"
	"testing"

	"boundedg/internal/access"
	"boundedg/internal/core"
	"boundedg/internal/graph"
	"boundedg/internal/match"
	"boundedg/internal/shard"
	"boundedg/internal/store"
)

// TestSourceConformance holds every backend the engine can stand on to
// the one contract it relies on: versions are monotone and are the
// outcome's epoch; a publish signal grabbed before reading the version is
// closed by the next accepted Apply and by nothing else; ChangedSince
// vouches for the empty span at the current version; a cut pinned before
// an Apply keeps answering as of its own version; and after a wedge every
// writer entrance refuses with ErrWedged while reads carry on.
func TestSourceConformance(t *testing.T) {
	type backend struct {
		src Source
		// wedge poisons every store behind src.
		wedge func()
		// writers calls every writer entrance behind src once.
		writers func() map[string]error
	}
	overStore := func(g *graph.Graph, idx *access.IndexSet) backend {
		st := store.New(g, idx)
		return backend{src: st, wedge: st.Wedge, writers: func() map[string]error {
			_, applyErr := st.Apply(&graph.Delta{})
			_, beginErr := st.BeginTxn()
			return map[string]error{
				"Apply":           applyErr,
				"BeginTxn":        beginErr,
				"ApplyReplicated": st.ApplyReplicated(st.Epoch()+1, nil),
				"ResetReplicated": st.ResetReplicated(st.Epoch(), nil, nil),
			}
		}}
	}
	overRouter := func(n int) func(*graph.Graph, *access.IndexSet) backend {
		return func(g *graph.Graph, idx *access.IndexSet) backend {
			r, err := shard.New(g, idx, n)
			if err != nil {
				t.Fatal(err)
			}
			return backend{src: r, wedge: func() {
				for s := 0; s < n; s++ {
					r.Store(s).Wedge()
				}
			}, writers: func() map[string]error {
				// An empty delta has no participants, so give Apply a shard
				// to knock on.
				_, applyErr := r.Apply(&graph.Delta{DelNodes: []graph.NodeID{0}})
				_, beginErr := r.Store(n - 1).BeginTxn()
				return map[string]error{"Apply": applyErr, "shard BeginTxn": beginErr}
			}}
		}
	}
	cases := []struct {
		name  string
		build func(*graph.Graph, *access.IndexSet) backend
	}{
		{"store", overStore},
		{"router x1", overRouter(1)},
		{"router x3", overRouter(3)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, idx, q, pairs := updateFixture(t)
			b := tc.build(g, idx)
			src := b.src
			eng, err := NewFromSource(src, Config{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			// answer evaluates q against a pinned cut the way a worker does.
			answer := func(cut *store.Cut) string {
				t.Helper()
				cfg := &core.ExecConfig{ShardOf: cut.ShardOf}
				for _, sn := range cut.Snaps {
					cfg.Shards = append(cfg.Shards, core.ShardView{G: sn.G, Fz: sn.Fz, Idx: sn.Idx})
				}
				res := eng.eval(Query{Pattern: q, Sem: core.Subgraph, Sub: match.SubgraphOptions{StoreMatches: true, MaxMatches: 1 << 20}}, cfg, cut.Epoch, cut.Vector)
				if res.Err != nil {
					t.Fatal(res.Err)
				}
				if res.Epoch != cut.Epoch {
					t.Fatalf("result epoch %d, cut epoch %d", res.Epoch, cut.Epoch)
				}
				return canonicalMatches(res.Sub.Matches)
			}
			emptySpan := func() {
				t.Helper()
				v := src.Epoch()
				if sum, ok := src.ChangedSince(v); !ok || sum.Epoch != v || len(sum.Rows) != 0 || len(sum.Labels) != 0 {
					t.Fatalf("ChangedSince(current=%d) = %+v ok=%v, want the empty span vouched for", v, sum, ok)
				}
			}
			closed := func(ch <-chan struct{}) bool {
				select {
				case <-ch:
					return true
				default:
					return false
				}
			}

			emptySpan()
			sig := src.PublishSignal() // grabbed BEFORE reading the version
			v0 := src.Epoch()

			// A rejected Apply publishes nothing and wakes nobody.
			if _, err := src.Apply(&graph.Delta{DelNodes: []graph.NodeID{4242}}); err == nil {
				t.Fatal("structural reject accepted")
			}
			if closed(sig) || src.Epoch() != v0 {
				t.Fatalf("rejected Apply published: signal closed=%v, version %d -> %d", closed(sig), v0, src.Epoch())
			}

			// An accepted one does both, and leaves pinned cuts alone.
			pinned := src.AcquireCut()
			before := answer(pinned)
			res, err := src.Apply(&graph.Delta{AddEdges: [][2]graph.NodeID{pairs[0]}})
			if err != nil {
				t.Fatal(err)
			}
			if res.Epoch <= v0 || res.Epoch != src.Epoch() {
				t.Fatalf("outcome epoch %d, version %d (was %d)", res.Epoch, src.Epoch(), v0)
			}
			if !closed(sig) {
				t.Fatal("accepted Apply did not close the signal grabbed before it")
			}
			fresh := src.AcquireCut()
			after := answer(fresh)
			fresh.Release()
			if after == before {
				t.Fatal("the update did not change the answer; the pinned-cut check below would prove nothing")
			}
			if got := answer(pinned); got != before {
				t.Fatalf("cut pinned at %d drifted after the update:\nbefore %s\nafter  %s", pinned.Epoch, before, got)
			}
			pinned.Release()
			emptySpan()
			if sum, ok := src.ChangedSince(v0); !ok || sum.Epoch < res.Epoch || len(sum.Rows) == 0 {
				t.Fatalf("ChangedSince(%d) = %+v ok=%v, want the update's rows through %d", v0, sum, ok, res.Epoch)
			}

			// Monotone over a run of commits.
			last := res.Epoch
			for _, p := range pairs[1:6] {
				res, err := src.Apply(&graph.Delta{AddEdges: [][2]graph.NodeID{p}})
				if err != nil {
					t.Fatal(err)
				}
				if res.Epoch <= last || res.Epoch != src.Epoch() {
					t.Fatalf("epoch %d after %d (version %d)", res.Epoch, last, src.Epoch())
				}
				last = res.Epoch
			}

			// Wedged: every writer entrance says so; readers do not care.
			if src.Stats().Wedged {
				t.Fatal("healthy source reports wedged")
			}
			cut := src.AcquireCut()
			final := answer(cut)
			cut.Release()
			b.wedge()
			for name, err := range b.writers() {
				if !errors.Is(err, store.ErrWedged) {
					t.Errorf("%s on a wedged source: %v, want ErrWedged", name, err)
				}
			}
			if !src.Stats().Wedged {
				t.Error("wedged source does not report it")
			}
			cut = src.AcquireCut()
			if cut.Epoch != last || answer(cut) != final {
				t.Errorf("wedged source stopped serving its last epoch %d", last)
			}
			cut.Release()
		})
	}
}
