package runtime

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"boundedg/internal/access"
	"boundedg/internal/core"
	"boundedg/internal/graph"
	"boundedg/internal/match"
	"boundedg/internal/pattern"
	"boundedg/internal/store"
)

// updateFixture builds a small movies/years graph whose m->y pattern is
// effectively bounded, plus a toggleable pool of extra edges that can
// never violate the (generous) bounds.
func updateFixture(t *testing.T) (*graph.Graph, *access.IndexSet, *pattern.Pattern, [][2]graph.NodeID) {
	t.Helper()
	g := graph.New(nil)
	year := g.Interner().Intern("year")
	movie := g.Interner().Intern("movie")
	var years, movies []graph.NodeID
	for i := 0; i < 4; i++ {
		years = append(years, g.AddNode(year, graph.IntValue(int64(2010+i))))
	}
	for i := 0; i < 6; i++ {
		m := g.AddNode(movie, graph.IntValue(int64(i)))
		movies = append(movies, m)
		g.MustAddEdge(m, years[i%4])
	}
	schema := access.NewSchema(
		access.MustNew(nil, year, 10),
		access.MustNew([]graph.Label{year}, movie, 10),
	)
	idx, viols := access.Build(g, schema)
	if viols != nil {
		t.Fatal(viols)
	}
	var pairs [][2]graph.NodeID
	for _, m := range movies {
		for _, y := range years {
			if !g.HasEdge(m, y) {
				pairs = append(pairs, [2]graph.NodeID{m, y})
			}
		}
	}
	q, err := pattern.Parse("m: movie\ny: year\nm -> y", g.Interner())
	if err != nil {
		t.Fatal(err)
	}
	return g, idx, q, pairs
}

func canonicalMatches(ms [][]graph.NodeID) string {
	cp := make([][]graph.NodeID, len(ms))
	for i, m := range ms {
		cp[i] = append([]graph.NodeID(nil), m...)
	}
	match.SortMatches(cp)
	return fmt.Sprint(cp)
}

// TestEngineAnswersMatchSomePublishedEpoch is the reader/writer race
// test: concurrent query clients against a writer applying deltas. Every
// answer must equal the reference answer of the exact epoch the result
// reports — no query may observe a half-applied epoch.
func TestEngineAnswersMatchSomePublishedEpoch(t *testing.T) {
	g, idx, q, pairs := updateFixture(t)
	// Reference copy, updated in lockstep by the writer before each
	// publish, so expected[e] is recorded before any reader can see e.
	g2 := g.Clone()
	idx2 := idx.Clone()
	p, err := core.NewPlan(q, idx2.Schema(), core.Subgraph)
	if err != nil {
		t.Fatalf("pattern not bounded: %v", err)
	}
	mopt := match.SubgraphOptions{StoreMatches: true, MaxMatches: 1 << 20}
	evalRef := func() string {
		res, _, err := p.EvalSubgraph(g2, idx2, mopt)
		if err != nil {
			t.Errorf("reference eval: %v", err)
			return ""
		}
		return canonicalMatches(res.Matches)
	}

	st := store.New(g, idx)
	eng, err := NewFromStore(st, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	var mu sync.Mutex
	expected := map[uint64]string{0: evalRef()}

	const epochs = 50
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		present := make(map[[2]graph.NodeID]bool)
		for e := uint64(1); e <= epochs; e++ {
			pair := pairs[int(e)%len(pairs)]
			d := &graph.Delta{}
			if present[pair] {
				d.DelEdges = [][2]graph.NodeID{pair}
			} else {
				d.AddEdges = [][2]graph.NodeID{pair}
			}
			present[pair] = !present[pair]
			if _, err := idx2.ApplyDeltaTx(g2, d); err != nil {
				t.Errorf("reference apply %d: %v", e, err)
				return
			}
			exp := evalRef()
			mu.Lock()
			expected[e] = exp
			mu.Unlock()
			if res, err := st.Apply(d); err != nil || res.Epoch != e {
				t.Errorf("store apply %d: epoch %d err %v", e, res.Epoch, err)
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				res := eng.Eval(nil, Query{Pattern: q, Sem: core.Subgraph, Sub: mopt})
				if res.Err != nil {
					t.Errorf("query %d: %v", i, res.Err)
					return
				}
				got := canonicalMatches(res.Sub.Matches)
				mu.Lock()
				want, ok := expected[res.Epoch]
				mu.Unlock()
				if !ok {
					t.Errorf("query %d: answer from unpublished epoch %d", i, res.Epoch)
					return
				}
				if got != want {
					t.Errorf("query %d: epoch %d answer diverged:\n got %s\nwant %s", i, res.Epoch, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	if st.Epoch() != epochs {
		t.Fatalf("final epoch = %d, want %d", st.Epoch(), epochs)
	}
}
