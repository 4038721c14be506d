package core

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"boundedg/internal/access"
	"boundedg/internal/graph"
	"boundedg/internal/match"
)

// TestNaivePlanCorrectButNotOptimal: on Q0/A0 the naive plan evaluates to
// the same result, but its worst-case GQ estimate is at least QPlan's.
func TestNaivePlanCorrectButNotOptimal(t *testing.T) {
	in := graph.NewInterner()
	q, a, g, idx := buildIMDbIndexed(t, in, 8, 3, 4, 2, 3)
	opt, err := NewPlan(q, a, Subgraph)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := NewNaivePlan(q, a, Subgraph)
	if err != nil {
		t.Fatal(err)
	}
	if naive.EstGQNodes() < opt.EstGQNodes() {
		t.Fatalf("naive worst case %v smaller than optimal %v", naive.EstGQNodes(), opt.EstGQNodes())
	}
	r1, _, err := opt.EvalSubgraph(g, idx, match.SubgraphOptions{StoreMatches: true})
	if err != nil {
		t.Fatal(err)
	}
	r2, _, err := naive.EvalSubgraph(g, idx, match.SubgraphOptions{StoreMatches: true})
	if err != nil {
		t.Fatal(err)
	}
	match.SortMatches(r1.Matches)
	match.SortMatches(r2.Matches)
	if r1.Count != r2.Count || !reflect.DeepEqual(r1.Matches, r2.Matches) {
		t.Fatalf("naive plan answer differs: %d vs %d", r1.Count, r2.Count)
	}
}

// TestNaivePlanStrictlyWorseSomewhere: construct a schema where QPlan's
// reduction beats the naive first-choice by a wide margin.
func TestNaivePlanStrictlyWorseSomewhere(t *testing.T) {
	in := graph.NewInterner()
	q := fixtureQ0(in)
	a := fixtureA0(in)
	// Add a loose type-1 on movie: the naive plan seeds movie with it and
	// never reduces; QPlan reduces movie through (year, award).
	a.Add(access.MustNew(nil, in.Intern("movie"), 1_000_000))
	opt, err := NewPlan(q, a, Subgraph)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := NewNaivePlan(q, a, Subgraph)
	if err != nil {
		t.Fatal(err)
	}
	if opt.EstSize[2] != 4*24*135 {
		t.Fatalf("QPlan should reduce movie to 12960, got %v", opt.EstSize[2])
	}
	if naive.EstSize[2] != 1_000_000 {
		t.Fatalf("naive should keep the type-1 bound, got %v", naive.EstSize[2])
	}
	if naive.EstGQNodes() <= opt.EstGQNodes() {
		t.Fatalf("expected a strict gap: naive %v vs optimal %v", naive.EstGQNodes(), opt.EstGQNodes())
	}
}

// TestNaivePlanRejectsUnbounded mirrors NewPlan's contract.
func TestNaivePlanRejectsUnbounded(t *testing.T) {
	in := graph.NewInterner()
	if _, err := NewNaivePlan(fixtureQ1(in), fixtureA1(in), Simulation); !errors.Is(err, ErrNotBounded) {
		t.Fatalf("err = %v, want ErrNotBounded", err)
	}
}

// Property: naive and optimal plans agree on results for random bounded
// cases, and the optimal worst case never exceeds the naive one.
func TestNaiveVsOptimalProperty(t *testing.T) {
	checked := 0
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q, g, idx, ok := randomBoundedCase(r, Subgraph)
		if !ok {
			return true
		}
		checked++
		opt, err1 := NewPlan(q, idx.Schema(), Subgraph)
		naive, err2 := NewNaivePlan(q, idx.Schema(), Subgraph)
		if err1 != nil || err2 != nil {
			t.Logf("seed %d: %v / %v", seed, err1, err2)
			return false
		}
		if naive.EstGQNodes() < opt.EstGQNodes() {
			t.Logf("seed %d: optimality violated: naive %v < optimal %v", seed, naive.EstGQNodes(), opt.EstGQNodes())
			return false
		}
		r1, _, err1 := opt.EvalSubgraph(g, idx, match.SubgraphOptions{StoreMatches: true})
		r2, _, err2 := naive.EvalSubgraph(g, idx, match.SubgraphOptions{StoreMatches: true})
		if err1 != nil || err2 != nil {
			return false
		}
		match.SortMatches(r1.Matches)
		match.SortMatches(r2.Matches)
		return r1.Count == r2.Count && reflect.DeepEqual(r1.Matches, r2.Matches)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatalf("generator produced no bounded cases")
	}
}
