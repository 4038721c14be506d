package access

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"boundedg/internal/graph"
)

// imdbMini builds a small IMDb-shaped graph: years, awards, movies
// connected to (year, award) pairs, actors/actresses per movie, countries
// per person. It is shaped so the paper's A0 constraints hold.
func imdbMini(t testing.TB) (*graph.Graph, map[string]graph.Label) {
	t.Helper()
	g := graph.New(nil)
	in := g.Interner()
	lbl := map[string]graph.Label{}
	for _, n := range []string{"year", "award", "movie", "actor", "actress", "country"} {
		lbl[n] = in.Intern(n)
	}
	years := []graph.NodeID{
		g.AddNode(lbl["year"], graph.IntValue(2011)),
		g.AddNode(lbl["year"], graph.IntValue(2012)),
	}
	awards := []graph.NodeID{
		g.AddNode(lbl["award"], graph.StringValue("oscar")),
		g.AddNode(lbl["award"], graph.StringValue("bafta")),
	}
	countries := []graph.NodeID{
		g.AddNode(lbl["country"], graph.StringValue("US")),
		g.AddNode(lbl["country"], graph.StringValue("UK")),
	}
	r := rand.New(rand.NewSource(7))
	for yi, y := range years {
		for ai, a := range awards {
			// Two award-winning movies per (year, award).
			for k := 0; k < 2; k++ {
				m := g.AddNode(lbl["movie"], graph.IntValue(int64(yi*100+ai*10+k)))
				g.MustAddEdge(m, y)
				g.MustAddEdge(m, a)
				// One actor and one actress per movie.
				ac := g.AddNode(lbl["actor"], graph.NoValue())
				as := g.AddNode(lbl["actress"], graph.NoValue())
				g.MustAddEdge(m, ac)
				g.MustAddEdge(m, as)
				g.MustAddEdge(ac, countries[r.Intn(2)])
				g.MustAddEdge(as, countries[r.Intn(2)])
			}
		}
	}
	return g, lbl
}

// a0 builds the schema of Example 3 (with bounds valid for imdbMini).
func a0(lbl map[string]graph.Label) *Schema {
	return NewSchema(
		MustNew([]graph.Label{lbl["year"], lbl["award"]}, lbl["movie"], 4),
		MustNew([]graph.Label{lbl["movie"]}, lbl["actor"], 30),
		MustNew([]graph.Label{lbl["movie"]}, lbl["actress"], 30),
		MustNew([]graph.Label{lbl["actor"]}, lbl["country"], 1),
		MustNew([]graph.Label{lbl["actress"]}, lbl["country"], 1),
		MustNew(nil, lbl["year"], 135),
		MustNew(nil, lbl["award"], 24),
		MustNew(nil, lbl["country"], 196),
	)
}

func TestConstraintNew(t *testing.T) {
	c, err := New([]graph.Label{3, 1, 3}, 2, 5)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if !reflect.DeepEqual(c.S, []graph.Label{1, 3}) {
		t.Fatalf("S not normalized: %v", c.S)
	}
	if c.Type1() || c.Type2() || c.Arity() != 2 {
		t.Fatalf("shape predicates wrong: %+v", c)
	}
	if _, err := New(nil, 2, -1); err == nil {
		t.Fatalf("negative bound accepted")
	}
	if _, err := New([]graph.Label{-1}, 2, 1); err == nil {
		t.Fatalf("invalid source label accepted")
	}
	if _, err := New(nil, -2, 1); err == nil {
		t.Fatalf("invalid target label accepted")
	}
	t1 := MustNew(nil, 4, 7)
	if !t1.Type1() {
		t.Fatalf("type1 detection")
	}
	t2 := MustNew([]graph.Label{1}, 4, 7)
	if !t2.Type2() {
		t.Fatalf("type2 detection")
	}
}

func TestConstraintKeyAndFormat(t *testing.T) {
	in := graph.NewInterner()
	y, a, m := in.Intern("year"), in.Intern("award"), in.Intern("movie")
	c1 := MustNew([]graph.Label{y, a}, m, 4)
	c2 := MustNew([]graph.Label{a, y}, m, 9)
	if c1.Key() != c2.Key() {
		t.Fatalf("keys should ignore S order: %q vs %q", c1.Key(), c2.Key())
	}
	if got := c1.Format(in); got != "(year, award) -> (movie, 4)" && got != "(award, year) -> (movie, 4)" {
		// S is sorted by Label value; interner assigns year < award here.
		t.Fatalf("Format = %q", got)
	}
	if got := MustNew(nil, m, 3).Format(in); got != "{} -> (movie, 3)" {
		t.Fatalf("type-1 Format = %q", got)
	}
}

func TestSchemaAddDedup(t *testing.T) {
	s := NewSchema()
	c := MustNew([]graph.Label{1}, 2, 10)
	if !s.Add(c) {
		t.Fatalf("first Add should change schema")
	}
	if s.Add(c) {
		t.Fatalf("identical Add should not change schema")
	}
	tighter := MustNew([]graph.Label{1}, 2, 5)
	if !s.Add(tighter) {
		t.Fatalf("tighter Add should replace")
	}
	if s.Count() != 1 || s.At(0).N != 5 {
		t.Fatalf("dedup wrong: count=%d N=%d", s.Count(), s.At(0).N)
	}
	looser := MustNew([]graph.Label{1}, 2, 50)
	if s.Add(looser) || s.At(0).N != 5 {
		t.Fatalf("looser Add should be ignored")
	}
}

func TestSchemaQueries(t *testing.T) {
	s := NewSchema(
		MustNew(nil, 1, 10),
		MustNew(nil, 1, 7), // tighter duplicate target
		MustNew([]graph.Label{1}, 2, 3),
		MustNew([]graph.Label{1, 3}, 2, 9),
	)
	if n, ok := s.Type1Bound(1); !ok || n != 7 {
		t.Fatalf("Type1Bound = %d, %v", n, ok)
	}
	if _, ok := s.Type1Bound(2); ok {
		t.Fatalf("label 2 has no type-1 bound")
	}
	if got := len(s.ByTarget(2)); got != 2 {
		t.Fatalf("ByTarget(2) = %d entries", got)
	}
	if s.OnlyType12() {
		t.Fatalf("schema has a general constraint")
	}
	if s.TotalLen() != (0+2)+(1+2)+(2+2) {
		t.Fatalf("TotalLen = %d", s.TotalLen())
	}
	if s.Subset(2).Count() != 2 || s.Subset(99).Count() != 3 {
		t.Fatalf("Subset sizes wrong")
	}
}

func TestBuildIndexType1(t *testing.T) {
	g, lbl := imdbMini(t)
	x := BuildIndex(g, MustNew(nil, lbl["year"], 135))
	got := x.Lookup(nil)
	if len(got) != 2 {
		t.Fatalf("type-1 lookup = %v", got)
	}
	if x.NumEntries() != 1 {
		t.Fatalf("type-1 entries = %d", x.NumEntries())
	}
}

func TestBuildIndexType2(t *testing.T) {
	g, lbl := imdbMini(t)
	x := BuildIndex(g, MustNew([]graph.Label{lbl["movie"]}, lbl["actor"], 30))
	for _, m := range g.NodesByLabel(lbl["movie"]) {
		got := x.Lookup([]graph.NodeID{m})
		want := g.CommonNeighbors([]graph.NodeID{m}, lbl["actor"])
		if !sameIDSet(got, want) {
			t.Fatalf("Lookup(movie %d) = %v, want %v", m, got, want)
		}
	}
}

func TestBuildIndexGeneral(t *testing.T) {
	g, lbl := imdbMini(t)
	x := BuildIndex(g, MustNew([]graph.Label{lbl["year"], lbl["award"]}, lbl["movie"], 4))
	years := g.NodesByLabel(lbl["year"])
	awards := g.NodesByLabel(lbl["award"])
	for _, y := range years {
		for _, a := range awards {
			got := x.Lookup([]graph.NodeID{y, a})
			want := g.CommonNeighbors([]graph.NodeID{y, a}, lbl["movie"])
			if !sameIDSet(got, want) {
				t.Fatalf("Lookup(%d,%d) = %v, want %v", y, a, got, want)
			}
			// Order of VS must not matter.
			if !sameIDSet(x.Lookup([]graph.NodeID{a, y}), want) {
				t.Fatalf("lookup order sensitivity")
			}
		}
	}
	if x.MaxEntry() != 2 {
		t.Fatalf("MaxEntry = %d, want 2", x.MaxEntry())
	}
	if got := x.Lookup([]graph.NodeID{years[0]}); got != nil {
		t.Fatalf("arity-mismatched lookup should return nil, got %v", got)
	}
}

func TestBuildAndValidate(t *testing.T) {
	g, lbl := imdbMini(t)
	schema := a0(lbl)
	set, viols := Build(g, schema)
	if len(viols) != 0 {
		t.Fatalf("unexpected violations: %v", viols)
	}
	if set.Schema() != schema {
		t.Fatalf("schema not retained")
	}
	if set.SizeNodes() == 0 {
		t.Fatalf("index should not be empty")
	}

	// Tighten the (year,award)->movie bound to 1: imdbMini has 2 movies
	// per pair, so validation must fail.
	bad := NewSchema(MustNew([]graph.Label{lbl["year"], lbl["award"]}, lbl["movie"], 1))
	if viols := Validate(g, bad); len(viols) != 1 || viols[0].Count != 2 {
		t.Fatalf("violations = %v", viols)
	}
	if Validate(g, schema) != nil {
		t.Fatalf("valid schema flagged")
	}
}

func TestViolationError(t *testing.T) {
	v := Violation{Constraint: MustNew(nil, 1, 2), Count: 5}
	if v.Error() == "" {
		t.Fatalf("empty error text")
	}
}

func TestDiscoverConstraintExactness(t *testing.T) {
	g, lbl := imdbMini(t)
	c, ok := DiscoverConstraint(g, []graph.Label{lbl["year"], lbl["award"]}, lbl["movie"])
	if !ok || c.N != 2 {
		t.Fatalf("discovered N = %d (ok=%v), want 2", c.N, ok)
	}
	c1, ok := DiscoverConstraint(g, nil, lbl["year"])
	if !ok || c1.N != 2 {
		t.Fatalf("type-1 discovered N = %d", c1.N)
	}
	// l ∈ S is legal in the paper's model: movie -> (movie, N) bounds the
	// movie-labeled neighbors of each movie node. imdbMini has none.
	cm, ok := DiscoverConstraint(g, []graph.Label{lbl["movie"]}, lbl["movie"])
	if !ok || cm.N != 0 {
		t.Fatalf("movie->movie discovered N = %d (ok=%v), want 0", cm.N, ok)
	}
}

func TestDiscoverFamilies(t *testing.T) {
	g, lbl := imdbMini(t)
	schema := Discover(g, DiscoverOptions{
		MaxType1: 10,
		MaxType2: 50,
		GeneralSets: []GeneralCandidate{
			{S: []graph.Label{lbl["year"], lbl["award"]}, L: lbl["movie"]},
		},
	})
	// Type-1 on year/award/country (2,2,2 nodes each ≤ 10) but not movie
	// (8 nodes ≤ 10 too, actually) — just check g satisfies everything and
	// the key families are present.
	if viols := Validate(g, schema); len(viols) != 0 {
		t.Fatalf("discovered schema violated: %v", viols)
	}
	foundGeneral := false
	foundT1 := false
	for _, c := range schema.Constraints() {
		if c.Arity() == 2 && c.L == lbl["movie"] {
			foundGeneral = true
			if c.N != 2 {
				t.Fatalf("general N = %d", c.N)
			}
		}
		if c.Type1() && c.L == lbl["year"] {
			foundT1 = true
		}
	}
	if !foundGeneral || !foundT1 {
		t.Fatalf("families missing: general=%v type1=%v", foundGeneral, foundT1)
	}
	// FD family: actor -> (country, 1) must be found.
	fds := DiscoverFDs(g)
	foundFD := false
	for _, c := range fds {
		if c.Type2() && c.S[0] == lbl["actor"] && c.L == lbl["country"] {
			foundFD = true
		}
	}
	if !foundFD {
		t.Fatalf("actor->country FD not discovered: %v", fds)
	}
}

func TestDiscoverRespectsCaps(t *testing.T) {
	g, lbl := imdbMini(t)
	s := Discover(g, DiscoverOptions{MaxType1: 1}) // nothing has ≤1 nodes
	if s.Count() != 0 {
		t.Fatalf("MaxType1=1 should discover nothing, got %d", s.Count())
	}
	s = Discover(g, DiscoverOptions{
		GeneralSets: []GeneralCandidate{{S: []graph.Label{lbl["year"], lbl["award"]}, L: lbl["movie"]}},
		MaxGeneral:  1,
	})
	if s.Count() != 0 {
		t.Fatalf("MaxGeneral=1 should reject N=2 constraint")
	}
}

func TestApplyDeltaMaintainsIndexes(t *testing.T) {
	g, lbl := imdbMini(t)
	schema := a0(lbl)
	set, viols := Build(g, schema)
	if viols != nil {
		t.Fatal(viols)
	}

	// Add a new movie connected to an existing (year, award) pair plus a
	// new actor; delete one old actor->country edge.
	years := g.NodesByLabel(lbl["year"])
	awards := g.NodesByLabel(lbl["award"])
	actors := g.NodesByLabel(lbl["actor"])
	var delEdge [2]graph.NodeID
	found := false
	for _, a := range actors {
		for _, c := range g.Out(a) {
			if g.LabelOf(c) == lbl["country"] {
				delEdge = [2]graph.NodeID{a, c}
				found = true
				break
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Fatal("no actor->country edge")
	}
	d := &graph.Delta{
		AddNodes: []graph.NodeSpec{
			{Label: lbl["movie"], Value: graph.IntValue(999)},
			{Label: lbl["actor"], Value: graph.NoValue()},
		},
		AddEdges: [][2]graph.NodeID{
			{graph.NewNodeRef(0), years[0]},
			{graph.NewNodeRef(0), awards[0]},
			{graph.NewNodeRef(0), graph.NewNodeRef(1)},
		},
		DelEdges: [][2]graph.NodeID{delEdge},
	}
	if _, err := set.ApplyDeltaTx(g, d); err != nil {
		t.Fatalf("ApplyDeltaTx: %v", err)
	}
	assertIndexesMatchRebuild(t, g, schema, set)
}

func TestApplyDeltaNodeDeletion(t *testing.T) {
	g, lbl := imdbMini(t)
	schema := a0(lbl)
	set, _ := Build(g, schema)
	movie := g.NodesByLabel(lbl["movie"])[0]
	d := &graph.Delta{DelNodes: []graph.NodeID{movie}}
	if _, err := set.ApplyDeltaTx(g, d); err != nil {
		t.Fatalf("ApplyDeltaTx: %v", err)
	}
	assertIndexesMatchRebuild(t, g, schema, set)
}

func TestApplyDeltaDetectsViolation(t *testing.T) {
	g, lbl := imdbMini(t)
	// Tight bound: at most 2 movies per (year, award) — currently exact.
	schema := NewSchema(MustNew([]graph.Label{lbl["year"], lbl["award"]}, lbl["movie"], 2))
	set, viols := Build(g, schema)
	if viols != nil {
		t.Fatal(viols)
	}
	years := g.NodesByLabel(lbl["year"])
	awards := g.NodesByLabel(lbl["award"])
	d := &graph.Delta{
		AddNodes: []graph.NodeSpec{{Label: lbl["movie"], Value: graph.NoValue()}},
		AddEdges: [][2]graph.NodeID{
			{graph.NewNodeRef(0), years[0]},
			{graph.NewNodeRef(0), awards[0]},
		},
	}
	nodes, edges := g.NumNodes(), g.NumEdges()
	_, err := set.ApplyDeltaTx(g, d)
	var ve *ViolationError
	if !errors.As(err, &ve) || len(ve.Violations) != 1 || ve.Violations[0].Count != 3 {
		t.Fatalf("ApplyDeltaTx err = %v, want a rejection with one violation of count 3", err)
	}
	// The rejection leaves the graph unchanged and the indexes equal to
	// its rebuild.
	if g.NumNodes() != nodes || g.NumEdges() != edges {
		t.Fatalf("rejected delta changed the graph: %d/%d nodes, %d/%d edges", g.NumNodes(), nodes, g.NumEdges(), edges)
	}
	assertIndexesMatchRebuild(t, g, schema, set)
}

// assertIndexesMatchRebuild compares incrementally maintained indices with
// a from-scratch rebuild.
func assertIndexesMatchRebuild(t *testing.T, g *graph.Graph, schema *Schema, set *IndexSet) {
	t.Helper()
	fresh := BuildUnchecked(g, schema)
	for i := range schema.Constraints() {
		a, b := set.Index(i), fresh.Index(i)
		if a.NumEntries() != b.NumEntries() {
			t.Fatalf("constraint %d: entries %d vs rebuild %d", i, a.NumEntries(), b.NumEntries())
		}
		for key, want := range b.entries {
			// Compare by VS tuple: an |S| > 2 key is a per-instance intern ID.
			vs := b.tupleOf(key, nil)
			if got := a.Lookup(vs); !sameIDSet(got, want.members) {
				t.Fatalf("constraint %d tuple %v: %v vs rebuild %v", i, vs, got, want.members)
			}
		}
	}
}

func sameIDSet(a, b []graph.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]graph.NodeID(nil), a...)
	bs := append([]graph.NodeID(nil), b...)
	sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	return reflect.DeepEqual(as, bs)
}

// Property: for random graphs and random small constraints, index lookups
// agree with brute-force CommonNeighbors for every materialized key, and
// MaxEntry equals the brute-force maximum.
func TestIndexMatchesBruteForceProperty(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := graph.New(nil)
		labels := make([]graph.Label, 4)
		for i := range labels {
			labels[i] = g.Interner().Intern(string(rune('a' + i)))
		}
		for i := 0; i < 25; i++ {
			g.AddNode(labels[r.Intn(4)], graph.NoValue())
		}
		for i := 0; i < 50; i++ {
			from, to := graph.NodeID(r.Intn(25)), graph.NodeID(r.Intn(25))
			if from != to {
				_ = g.AddEdge(from, to)
			}
		}
		// Random constraint with |S| in {0,1,2}.
		arity := r.Intn(3)
		perm := r.Perm(4)
		l := labels[perm[0]]
		var s []graph.Label
		for i := 0; i < arity; i++ {
			s = append(s, labels[perm[i+1]])
		}
		c := MustNew(s, l, 1000)
		x := BuildIndex(g, c)
		for key, entry := range x.entries {
			vs := x.tupleOf(key, nil)
			want := g.CommonNeighbors(vs, l)
			if !sameIDSet(entry.members, want) {
				t.Logf("seed %d: constraint %v key %v: %v vs %v", seed, c, vs, entry, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: incremental maintenance after a random delta equals rebuild.
func TestApplyDeltaEqualsRebuildProperty(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := graph.New(nil)
		labels := make([]graph.Label, 3)
		for i := range labels {
			labels[i] = g.Interner().Intern(string(rune('a' + i)))
		}
		for i := 0; i < 15; i++ {
			g.AddNode(labels[r.Intn(3)], graph.NoValue())
		}
		for i := 0; i < 25; i++ {
			from, to := graph.NodeID(r.Intn(15)), graph.NodeID(r.Intn(15))
			if from != to {
				_ = g.AddEdge(from, to)
			}
		}
		schema := NewSchema(
			MustNew(nil, labels[0], 1000),
			MustNew([]graph.Label{labels[0]}, labels[1], 1000),
			MustNew([]graph.Label{labels[0], labels[1]}, labels[2], 1000),
		)
		set := BuildUnchecked(g, schema)

		// Random delta: one new node wired to an existing node, one edge
		// insert, one edge delete (if any), one node delete.
		d := &graph.Delta{
			AddNodes: []graph.NodeSpec{{Label: labels[r.Intn(3)], Value: graph.NoValue()}},
			AddEdges: [][2]graph.NodeID{{graph.NewNodeRef(0), graph.NodeID(r.Intn(15))}},
		}
		var edges [][2]graph.NodeID
		g.Edges(func(from, to graph.NodeID) bool {
			edges = append(edges, [2]graph.NodeID{from, to})
			return true
		})
		if len(edges) > 0 {
			d.DelEdges = append(d.DelEdges, edges[r.Intn(len(edges))])
		}
		victim := graph.NodeID(r.Intn(15))
		// Avoid deleting an endpoint of the deleted edge's source (apply
		// order handles it, but RemoveEdge on a removed node errors).
		if len(d.DelEdges) == 0 || (victim != d.DelEdges[0][0] && victim != d.DelEdges[0][1]) {
			d.DelNodes = append(d.DelNodes, victim)
		}
		if _, err := set.ApplyDeltaTx(g, d); err != nil {
			t.Logf("seed %d: ApplyDeltaTx: %v", seed, err)
			return false
		}
		fresh := BuildUnchecked(g, schema)
		for i := range schema.Constraints() {
			a, b := set.Index(i), fresh.Index(i)
			if a.NumEntries() != b.NumEntries() {
				t.Logf("seed %d: constraint %d entry count %d vs %d", seed, i, a.NumEntries(), b.NumEntries())
				return false
			}
			for key, want := range b.entries {
				if !sameIDSet(a.entries[key].membersOrNil(), want.members) {
					t.Logf("seed %d: constraint %d key mismatch", seed, i)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
