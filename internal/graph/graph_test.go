package graph

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func mustEdge(t *testing.T, g *Graph, from, to NodeID) {
	t.Helper()
	if err := g.AddEdge(from, to); err != nil {
		t.Fatalf("AddEdge(%d,%d): %v", from, to, err)
	}
}

func sortedIDs(s []NodeID) []NodeID {
	out := append([]NodeID(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestAddNodeAndEdgeBasics(t *testing.T) {
	g := New(nil)
	a := g.AddNodeNamed("A", IntValue(1))
	b := g.AddNodeNamed("B", StringValue("x"))
	if g.NumNodes() != 2 || g.NumEdges() != 0 {
		t.Fatalf("got |V|=%d |E|=%d, want 2, 0", g.NumNodes(), g.NumEdges())
	}
	mustEdge(t, g, a, b)
	if !g.HasEdge(a, b) || g.HasEdge(b, a) {
		t.Fatalf("edge direction wrong")
	}
	if !g.HasNeighbor(b, a) {
		t.Fatalf("HasNeighbor should be symmetric")
	}
	if g.Size() != 3 {
		t.Fatalf("Size = %d, want 3", g.Size())
	}
	if got := g.LabelOf(a); g.Interner().Name(got) != "A" {
		t.Fatalf("LabelOf(a) = %q", g.Interner().Name(got))
	}
	if !g.ValueOf(b).Equal(StringValue("x")) {
		t.Fatalf("ValueOf(b) = %v", g.ValueOf(b))
	}
}

func TestDuplicateEdgeRejected(t *testing.T) {
	g := New(nil)
	a := g.AddNodeNamed("A", Value{})
	b := g.AddNodeNamed("B", Value{})
	mustEdge(t, g, a, b)
	if err := g.AddEdge(a, b); err != ErrDupEdge {
		t.Fatalf("duplicate AddEdge err = %v, want ErrDupEdge", err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
}

func TestEdgeToMissingNode(t *testing.T) {
	g := New(nil)
	a := g.AddNodeNamed("A", Value{})
	if err := g.AddEdge(a, 99); err != ErrNoSuchNode {
		t.Fatalf("err = %v, want ErrNoSuchNode", err)
	}
	if err := g.AddEdge(-3, a); err != ErrNoSuchNode {
		t.Fatalf("err = %v, want ErrNoSuchNode", err)
	}
}

func TestRemoveEdge(t *testing.T) {
	g := New(nil)
	a := g.AddNodeNamed("A", Value{})
	b := g.AddNodeNamed("B", Value{})
	mustEdge(t, g, a, b)
	if err := g.RemoveEdge(a, b); err != nil {
		t.Fatalf("RemoveEdge: %v", err)
	}
	if g.HasEdge(a, b) || g.NumEdges() != 0 {
		t.Fatalf("edge not removed")
	}
	if len(g.Out(a)) != 0 || len(g.In(b)) != 0 {
		t.Fatalf("adjacency lists not cleaned")
	}
	if err := g.RemoveEdge(a, b); err != ErrNoSuchEdge {
		t.Fatalf("second RemoveEdge err = %v, want ErrNoSuchEdge", err)
	}
}

func TestRemoveNodeCleansEverything(t *testing.T) {
	g := New(nil)
	a := g.AddNodeNamed("A", Value{})
	b := g.AddNodeNamed("B", Value{})
	c := g.AddNodeNamed("A", Value{})
	mustEdge(t, g, a, b)
	mustEdge(t, g, b, a)
	mustEdge(t, g, c, a)
	if err := g.RemoveNode(a); err != nil {
		t.Fatalf("RemoveNode: %v", err)
	}
	if g.Contains(a) {
		t.Fatalf("node a still present")
	}
	if g.NumNodes() != 2 || g.NumEdges() != 0 {
		t.Fatalf("|V|=%d |E|=%d after removal, want 2, 0", g.NumNodes(), g.NumEdges())
	}
	la, _ := g.Interner().Lookup("A")
	if got := g.NodesByLabel(la); len(got) != 1 || got[0] != c {
		t.Fatalf("NodesByLabel(A) = %v, want [%d]", got, c)
	}
	if g.LabelOf(a) != NoLabel {
		t.Fatalf("tombstone label = %v", g.LabelOf(a))
	}
	if err := g.RemoveNode(a); err != ErrNoSuchNode {
		t.Fatalf("double remove err = %v", err)
	}
}

func TestRemoveNodeReleasesAdjacency(t *testing.T) {
	g := New(nil)
	a := g.AddNodeNamed("A", Value{})
	b := g.AddNodeNamed("B", Value{})
	c := g.AddNodeNamed("C", Value{})
	mustEdge(t, g, a, b)
	mustEdge(t, g, c, a)
	mustEdge(t, g, a, a)
	if err := g.RemoveNode(a); err != nil {
		t.Fatalf("RemoveNode: %v", err)
	}
	// The tombstone must hold no stale adjacency memory: the slices are
	// nil, not merely truncated views of their old backing arrays.
	if g.out[a] != nil || g.in[a] != nil {
		t.Fatalf("tombstone keeps adjacency: out=%v (cap %d), in=%v (cap %d)",
			g.out[a], cap(g.out[a]), g.in[a], cap(g.in[a]))
	}
	if got := g.Out(a); got != nil {
		t.Fatalf("Out(tombstone) = %v, want nil", got)
	}
	if got := g.In(a); got != nil {
		t.Fatalf("In(tombstone) = %v, want nil", got)
	}
}

func TestNeighborsDedup(t *testing.T) {
	g := New(nil)
	a := g.AddNodeNamed("A", Value{})
	b := g.AddNodeNamed("B", Value{})
	mustEdge(t, g, a, b)
	mustEdge(t, g, b, a)
	if n := g.Neighbors(a); len(n) != 1 || n[0] != b {
		t.Fatalf("Neighbors(a) = %v, want [b] once", n)
	}
	if g.Degree(a) != 1 {
		t.Fatalf("Degree(a) = %d, want 1", g.Degree(a))
	}
}

func TestCommonNeighbors(t *testing.T) {
	g := New(nil)
	year := g.AddNodeNamed("year", IntValue(2012))
	award := g.AddNodeNamed("award", StringValue("oscar"))
	m1 := g.AddNodeNamed("movie", Value{})
	m2 := g.AddNodeNamed("movie", Value{})
	m3 := g.AddNodeNamed("movie", Value{})
	mustEdge(t, g, m1, year)
	mustEdge(t, g, m1, award)
	mustEdge(t, g, m2, year)
	mustEdge(t, g, m3, award)
	lm, _ := g.Interner().Lookup("movie")

	got := g.CommonNeighbors([]NodeID{year, award}, lm)
	if !reflect.DeepEqual(got, []NodeID{m1}) {
		t.Fatalf("CommonNeighbors(year,award) = %v, want [%d]", got, m1)
	}
	got = g.CommonNeighbors([]NodeID{year}, lm)
	if !reflect.DeepEqual(got, []NodeID{m1, m2}) {
		t.Fatalf("CommonNeighbors(year) = %v", got)
	}
	// Empty VS: all movie nodes.
	got = g.CommonNeighbors(nil, lm)
	if !reflect.DeepEqual(sortedIDs(got), []NodeID{m1, m2, m3}) {
		t.Fatalf("CommonNeighbors(nil) = %v", got)
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := New(nil)
	a := g.AddNodeNamed("A", IntValue(7))
	b := g.AddNodeNamed("B", Value{})
	c := g.AddNodeNamed("C", Value{})
	mustEdge(t, g, a, b)
	mustEdge(t, g, b, c)
	mustEdge(t, g, c, a)

	sub, idmap := g.InducedSubgraph([]NodeID{a, b})
	if sub.NumNodes() != 2 || sub.NumEdges() != 1 {
		t.Fatalf("sub |V|=%d |E|=%d, want 2, 1", sub.NumNodes(), sub.NumEdges())
	}
	if !sub.HasEdge(idmap[a], idmap[b]) {
		t.Fatalf("induced edge missing")
	}
	if !sub.ValueOf(idmap[a]).Equal(IntValue(7)) {
		t.Fatalf("value not preserved")
	}
}

func TestInducedSubgraphSkipsDuplicatesAndTombstones(t *testing.T) {
	g := New(nil)
	a := g.AddNodeNamed("A", Value{})
	b := g.AddNodeNamed("B", Value{})
	if err := g.RemoveNode(b); err != nil {
		t.Fatal(err)
	}
	sub, idmap := g.InducedSubgraph([]NodeID{a, a, b, 42})
	if sub.NumNodes() != 1 {
		t.Fatalf("|V| = %d, want 1", sub.NumNodes())
	}
	if _, ok := idmap[b]; ok {
		t.Fatalf("tombstone mapped")
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := New(nil)
	a := g.AddNodeNamed("A", Value{})
	b := g.AddNodeNamed("B", Value{})
	mustEdge(t, g, a, b)
	c := g.Clone()
	mustEdge(t, g, b, a)
	if c.HasEdge(b, a) {
		t.Fatalf("clone shares edge storage")
	}
	if c.NumEdges() != 1 || g.NumEdges() != 2 {
		t.Fatalf("edge counts diverged wrong: clone=%d orig=%d", c.NumEdges(), g.NumEdges())
	}
}

func TestInsertEdgeNode(t *testing.T) {
	g := New(nil)
	a := g.AddNodeNamed("A", Value{})
	b := g.AddNodeNamed("B", Value{})
	l := g.Interner().Intern("likes")
	d, err := g.InsertEdgeNode(a, b, l)
	if err != nil {
		t.Fatalf("InsertEdgeNode: %v", err)
	}
	if !g.HasEdge(a, d) || !g.HasEdge(d, b) {
		t.Fatalf("dummy wiring wrong")
	}
	if g.LabelOf(d) != l {
		t.Fatalf("dummy label wrong")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := New(nil)
	a := g.AddNodeNamed("movie", StringValue("Up"))
	b := g.AddNodeNamed("year", IntValue(2009))
	c := g.AddNodeNamed("award", Value{})
	mustEdge(t, g, a, b)
	mustEdge(t, g, a, c)

	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	g2, idmap, err := ReadJSON(&buf, nil)
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if g2.NumNodes() != 3 || g2.NumEdges() != 2 {
		t.Fatalf("round trip |V|=%d |E|=%d", g2.NumNodes(), g2.NumEdges())
	}
	if !g2.ValueOf(idmap[b]).Equal(IntValue(2009)) {
		t.Fatalf("int value lost: %v", g2.ValueOf(idmap[b]))
	}
	if !g2.ValueOf(idmap[a]).Equal(StringValue("Up")) {
		t.Fatalf("string value lost")
	}
	if !g2.HasEdge(idmap[a], idmap[c]) {
		t.Fatalf("edge lost")
	}
}

func TestReadJSONBadInput(t *testing.T) {
	if _, _, err := ReadJSON(bytes.NewBufferString("{nonsense"), nil); err == nil {
		t.Fatalf("want error on malformed JSON")
	}
	// Edge referencing unknown node.
	bad := `{"nodes":[{"id":0,"label":"A"}],"edges":[[0,5]]}`
	if _, _, err := ReadJSON(bytes.NewBufferString(bad), nil); err == nil {
		t.Fatalf("want error on dangling edge")
	}
	// Duplicate node id.
	dup := `{"nodes":[{"id":0,"label":"A"},{"id":0,"label":"B"}],"edges":[]}`
	if _, _, err := ReadJSON(bytes.NewBufferString(dup), nil); err == nil {
		t.Fatalf("want error on duplicate node id")
	}
}

func TestDeltaApply(t *testing.T) {
	g := New(nil)
	a := g.AddNodeNamed("A", Value{})
	b := g.AddNodeNamed("B", Value{})
	c := g.AddNodeNamed("C", Value{})
	mustEdge(t, g, a, b)
	mustEdge(t, g, b, c)

	lb, _ := g.Interner().Lookup("B")
	d := &Delta{
		AddNodes: []NodeSpec{{Label: lb, Value: IntValue(5)}},
		AddEdges: [][2]NodeID{{a, NewNodeRef(0)}},
		DelEdges: [][2]NodeID{{b, c}},
	}
	newIDs, err := d.Apply(g)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if len(newIDs) != 1 || !g.HasEdge(a, newIDs[0]) {
		t.Fatalf("delta node/edge not applied")
	}
	if g.HasEdge(b, c) {
		t.Fatalf("edge (b,c) should be deleted")
	}
}

func TestDeltaApplyErrors(t *testing.T) {
	g := New(nil)
	a := g.AddNodeNamed("A", Value{})
	d := &Delta{DelEdges: [][2]NodeID{{a, 77}}}
	if _, err := d.Apply(g); err == nil {
		t.Fatalf("want error deleting missing edge")
	}
	d2 := &Delta{DelNodes: []NodeID{99}}
	if _, err := d2.Apply(g); err == nil {
		t.Fatalf("want error deleting missing node")
	}
	d3 := &Delta{AddEdges: [][2]NodeID{{a, NewNodeRef(3)}}}
	if _, err := d3.Apply(g); err == nil {
		t.Fatalf("want error on out-of-range new-node ref")
	}
}

func TestComputeStats(t *testing.T) {
	g := New(nil)
	m := g.AddNodeNamed("movie", Value{})
	a1 := g.AddNodeNamed("actor", Value{})
	a2 := g.AddNodeNamed("actor", Value{})
	mustEdge(t, g, m, a1)
	mustEdge(t, g, m, a2)
	s := ComputeStats(g)
	lm, _ := g.Interner().Lookup("movie")
	la, _ := g.Interner().Lookup("actor")
	if s.NumNodes != 3 || s.NumEdges != 2 || s.NumLabels != 2 {
		t.Fatalf("stats basics wrong: %+v", s)
	}
	if s.LabelCounts[la] != 2 {
		t.Fatalf("LabelCounts[actor] = %d", s.LabelCounts[la])
	}
	if s.MaxLabelNeighbors[[2]Label{lm, la}] != 2 {
		t.Fatalf("MaxLabelNeighbors[movie,actor] = %d", s.MaxLabelNeighbors[[2]Label{lm, la}])
	}
	if s.MaxLabelNeighbors[[2]Label{la, lm}] != 1 {
		t.Fatalf("MaxLabelNeighbors[actor,movie] = %d", s.MaxLabelNeighbors[[2]Label{la, lm}])
	}
	if s.MaxDegreeByLabel[lm] != 2 {
		t.Fatalf("MaxDegreeByLabel[movie] = %d", s.MaxDegreeByLabel[lm])
	}
}

func TestDegreeHistogram(t *testing.T) {
	g := New(nil)
	a := g.AddNodeNamed("A", Value{})
	b := g.AddNodeNamed("B", Value{})
	c := g.AddNodeNamed("C", Value{})
	mustEdge(t, g, a, b)
	mustEdge(t, g, a, c)
	degs, counts := DegreeHistogram(g)
	if !reflect.DeepEqual(degs, []int{1, 2}) || !reflect.DeepEqual(counts, []int{2, 1}) {
		t.Fatalf("histogram = %v %v", degs, counts)
	}
}

func TestValueCompareAndEqual(t *testing.T) {
	cases := []struct {
		a, b   Value
		cmp    int
		cmpOK  bool
		equals bool
	}{
		{IntValue(1), IntValue(2), -1, true, false},
		{IntValue(2), IntValue(2), 0, true, true},
		{IntValue(3), IntValue(2), 1, true, false},
		{StringValue("a"), StringValue("b"), -1, true, false},
		{StringValue("b"), StringValue("b"), 0, true, true},
		{IntValue(1), StringValue("1"), 0, false, false},
		{NoValue(), NoValue(), 0, true, true},
		{NoValue(), IntValue(0), 0, false, false},
	}
	for i, c := range cases {
		cmp, ok := c.a.Compare(c.b)
		if ok != c.cmpOK || (ok && sign(cmp) != c.cmp) {
			t.Errorf("case %d: Compare(%v,%v) = %d,%v", i, c.a, c.b, cmp, ok)
		}
		if c.a.Equal(c.b) != c.equals {
			t.Errorf("case %d: Equal(%v,%v) = %v", i, c.a, c.b, c.a.Equal(c.b))
		}
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

func TestValueJSONRoundTrip(t *testing.T) {
	for _, v := range []Value{IntValue(-12), StringValue("héllo \"q\""), NoValue()} {
		b, err := v.MarshalJSON()
		if err != nil {
			t.Fatalf("marshal %v: %v", v, err)
		}
		var w Value
		if err := w.UnmarshalJSON(b); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if !v.Equal(w) {
			t.Fatalf("round trip %v -> %s -> %v", v, b, w)
		}
	}
	var w Value
	if err := w.UnmarshalJSON([]byte("1.5")); err == nil {
		t.Fatalf("want error for non-integral number")
	}
}

func TestInterner(t *testing.T) {
	in := NewInterner()
	a := in.Intern("x")
	b := in.Intern("y")
	if a == b {
		t.Fatalf("distinct names got same label")
	}
	if in.Intern("x") != a {
		t.Fatalf("re-intern changed label")
	}
	if got, ok := in.Lookup("y"); !ok || got != b {
		t.Fatalf("Lookup(y) = %v %v", got, ok)
	}
	if _, ok := in.Lookup("z"); ok {
		t.Fatalf("Lookup(z) should miss")
	}
	if in.Name(a) != "x" || in.Len() != 2 {
		t.Fatalf("Name/Len wrong")
	}
	if in.Name(99) == "" {
		t.Fatalf("unknown label should get placeholder")
	}
	names := in.Names()
	names[0] = "mutated"
	if in.Name(a) != "x" {
		t.Fatalf("Names() must return a copy")
	}
}

// randomGraph builds a random graph with nLabels labels and ~edgeFactor
// edges per node, for property tests.
func randomGraph(r *rand.Rand, n, nLabels int, edgeFactor float64) *Graph {
	g := New(nil)
	labels := make([]Label, nLabels)
	for i := range labels {
		labels[i] = g.Interner().Intern(string(rune('a' + i)))
	}
	for i := 0; i < n; i++ {
		g.AddNode(labels[r.Intn(nLabels)], IntValue(int64(r.Intn(10))))
	}
	m := int(float64(n) * edgeFactor)
	for i := 0; i < m; i++ {
		from := NodeID(r.Intn(n))
		to := NodeID(r.Intn(n))
		if from != to {
			_ = g.AddEdge(from, to) // ignore dups
		}
	}
	return g
}

// Property: CommonNeighbors agrees with a naive definition scan.
func TestCommonNeighborsMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	check := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		g := randomGraph(rr, 30, 4, 2.0)
		for trial := 0; trial < 5; trial++ {
			k := rr.Intn(3) + 1
			vs := make([]NodeID, k)
			for i := range vs {
				vs[i] = NodeID(rr.Intn(30))
			}
			l := Label(rr.Intn(4))
			got := g.CommonNeighbors(vs, l)
			var want []NodeID
			g.Nodes(func(w NodeID) bool {
				if g.LabelOf(w) != l {
					return true
				}
				for _, v := range vs {
					if !g.HasNeighbor(v, w) {
						return true
					}
				}
				want = append(want, w)
				return true
			})
			if !reflect.DeepEqual(got, sortedIDs(want)) {
				t.Logf("seed %d: got %v want %v", seed, got, want)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25, Rand: r}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: JSON round trip preserves node/edge counts and label multiset.
func TestJSONRoundTripProperty(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 20, 3, 1.5)
		var buf bytes.Buffer
		if err := g.WriteJSON(&buf); err != nil {
			return false
		}
		g2, _, err := ReadJSON(&buf, nil)
		if err != nil {
			return false
		}
		if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
			return false
		}
		for _, l := range g.Labels() {
			l2, ok := g2.Interner().Lookup(g.Interner().Name(l))
			if !ok || g2.CountLabel(l2) != g.CountLabel(l) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSetValue(t *testing.T) {
	g := New(nil)
	v := g.AddNodeNamed("A", IntValue(1))
	if err := g.SetValue(v, IntValue(2)); err != nil {
		t.Fatal(err)
	}
	if !g.ValueOf(v).Equal(IntValue(2)) {
		t.Fatalf("value not updated")
	}
	if err := g.SetValue(99, IntValue(3)); err != ErrNoSuchNode {
		t.Fatalf("err = %v", err)
	}
}

func TestGraphString(t *testing.T) {
	g := New(nil)
	g.AddNodeNamed("A", NoValue())
	if g.String() == "" {
		t.Fatalf("empty String()")
	}
}

func TestNodesEarlyStop(t *testing.T) {
	g := New(nil)
	for i := 0; i < 5; i++ {
		g.AddNodeNamed("A", NoValue())
	}
	count := 0
	g.Nodes(func(NodeID) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("early stop failed: %d", count)
	}
	a, b := NodeID(0), NodeID(1)
	g.MustAddEdge(a, b)
	g.MustAddEdge(b, a)
	edges := 0
	g.Edges(func(from, to NodeID) bool {
		edges++
		return false
	})
	if edges != 1 {
		t.Fatalf("edge early stop failed: %d", edges)
	}
}
