package workload

import (
	"testing"

	"boundedg/internal/access"
	"boundedg/internal/core"
	"boundedg/internal/pattern"
)

// small builds each dataset at a small scale for testing.
func small(t *testing.T) []*Dataset {
	t.Helper()
	return []*Dataset{
		imdbSized(1.0, 1, 400),
		DBpedia(0.05, 2),
		WebBase(0.05, 3),
	}
}

func TestGeneratorsSatisfyOwnSchemas(t *testing.T) {
	for _, d := range small(t) {
		if viols := access.Validate(d.G, d.Schema); viols != nil {
			t.Errorf("%s: schema violated: %v", d.Name, viols[0])
		}
		if d.G.NumNodes() == 0 || d.G.NumEdges() == 0 {
			t.Errorf("%s: empty graph", d.Name)
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := imdbSized(1.0, 7, 300)
	b := imdbSized(1.0, 7, 300)
	if a.G.NumNodes() != b.G.NumNodes() || a.G.NumEdges() != b.G.NumEdges() {
		t.Fatalf("same seed, different graphs: %v vs %v", a.G, b.G)
	}
	c := imdbSized(1.0, 8, 300)
	if a.G.NumEdges() == c.G.NumEdges() && a.G.NumNodes() == c.G.NumNodes() {
		t.Logf("warning: different seeds gave identical sizes (possible but unlikely)")
	}
}

func TestScaleGrowsGraphButNotAnchors(t *testing.T) {
	s1 := imdbSized(0.5, 5, 2000)
	s2 := imdbSized(1.0, 5, 2000)
	if s2.G.NumNodes() <= s1.G.NumNodes() {
		t.Fatalf("scale did not grow the graph: %d vs %d", s1.G.NumNodes(), s2.G.NumNodes())
	}
	// Anchor labels stay fixed.
	for _, name := range []string{"year", "award", "country", "genre"} {
		l1, _ := s1.In.Lookup(name)
		l2, _ := s2.In.Lookup(name)
		if s1.G.CountLabel(l1) != s2.G.CountLabel(l2) {
			t.Fatalf("anchor %s scaled: %d vs %d", name, s1.G.CountLabel(l1), s2.G.CountLabel(l2))
		}
	}
}

func TestQueryGeneratorShapes(t *testing.T) {
	d := imdbSized(1.0, 4, 300)
	qs := DefaultQueryGen.Generate(d, 50, 99)
	if len(qs) != 50 {
		t.Fatalf("got %d queries", len(qs))
	}
	for i, q := range qs {
		nn, ne := q.NumNodes(), q.NumEdges()
		if nn < 3 || nn > 7 {
			t.Fatalf("query %d: #n = %d", i, nn)
		}
		if ne < nn-1 || float64(ne) > 1.5*float64(nn)+0.5 {
			t.Fatalf("query %d: #e = %d for #n = %d", i, ne, nn)
		}
		if !q.Connected() {
			t.Fatalf("query %d disconnected", i)
		}
		np := 0
		for _, u := range q.Nodes() {
			np += len(q.PredOf(u))
		}
		if np < 2 || np > 8 {
			t.Fatalf("query %d: #p = %d", i, np)
		}
	}
}

func TestGenerateSized(t *testing.T) {
	d := imdbSized(1.0, 4, 300)
	for nn := 3; nn <= 7; nn++ {
		qs := DefaultQueryGen.GenerateSized(d, 10, nn, 42)
		for _, q := range qs {
			if q.NumNodes() != nn {
				t.Fatalf("want #n=%d, got %d", nn, q.NumNodes())
			}
		}
	}
}

// TestBoundedFractionReasonable: a healthy share of random queries should
// be effectively bounded on each dataset (the paper reports ~60% for
// subgraph and ~33% for simulation; we assert a loose sanity band and
// log the exact values).
func TestBoundedFractionReasonable(t *testing.T) {
	for _, d := range small(t) {
		qs := DefaultQueryGen.Generate(d, 100, 2024)
		sub, sim := 0, 0
		for _, q := range qs {
			if core.EBChk(q, d.Schema) {
				sub++
			}
			if core.SEBChk(q, d.Schema) {
				sim++
			}
		}
		t.Logf("%s: subgraph %d%%, simulation %d%%", d.Name, sub, sim)
		if sub < 20 || sub > 95 {
			t.Errorf("%s: subgraph bounded fraction %d%% out of sanity band", d.Name, sub)
		}
		if sim > sub {
			t.Errorf("%s: simulation fraction %d%% exceeds subgraph %d%%", d.Name, sim, sub)
		}
		if sim == 0 {
			t.Errorf("%s: no simulation query bounded at all", d.Name)
		}
	}
}

// TestQueriesEvaluableEndToEnd: bounded queries actually run through the
// whole pipeline on their dataset.
func TestQueriesEvaluableEndToEnd(t *testing.T) {
	d := imdbSized(1.0, 6, 300)
	idx, viols := access.Build(d.G, d.Schema)
	if viols != nil {
		t.Fatal(viols)
	}
	qs := DefaultQueryGen.Generate(d, 30, 7)
	ran := 0
	for _, q := range qs {
		p, err := core.NewPlan(q, d.Schema, core.Subgraph)
		if err != nil {
			continue
		}
		if _, _, err := p.Exec(d.G, idx); err != nil {
			t.Fatalf("exec failed: %v\nquery:\n%v", err, q)
		}
		ran++
	}
	if ran == 0 {
		t.Fatalf("no bounded query executed")
	}
	_ = pattern.True
}
