// Package workload generates the synthetic datasets and query loads used
// to reproduce the paper's evaluation (§VII). The paper measured three
// real datasets — IMDbG, DBpediaG and WebBG — none of which ship with this
// repository, so each generator builds a scaled synthetic graph with the
// same *label topology and cardinality semantics*:
// effective boundedness depends only on which access constraints hold, and
// the generators enforce every published constraint by construction.
//
// Key invariant: the "anchor" label populations (years, awards, small
// entity types, small hosts) are FIXED as the scale factor grows — exactly
// the property that makes bounded query plans independent of |G|.
package workload

import (
	"fmt"
	"math/rand"

	"boundedg/internal/access"
	"boundedg/internal/graph"
)

// Dataset bundles a generated graph with its curated access schema. The
// schema is ordered so that prefixes (Schema.Subset) remain useful for the
// ‖A‖-sweep experiment: type-1 anchors first, then the core structural
// constraints, then extras.
type Dataset struct {
	Name   string
	In     *graph.Interner
	G      *graph.Graph
	Schema *access.Schema
}

// capper enforces declared neighbor-cardinality caps during generation, so
// the emitted graph satisfies the dataset's schema by construction.
type capper struct {
	g *graph.Graph
	// caps[(nodeLabel, nbrLabel)] = max nbrLabel-labeled neighbors of any
	// nodeLabel-labeled node. Absent key = unlimited.
	caps map[[2]graph.Label]int
	// cnt[node][nbrLabel] = current count.
	cnt map[graph.NodeID]map[graph.Label]int
}

func newCapper(g *graph.Graph) *capper {
	return &capper{
		g:    g,
		caps: make(map[[2]graph.Label]int),
		cnt:  make(map[graph.NodeID]map[graph.Label]int),
	}
}

// cap declares that each `from`-labeled node may have at most n
// `to`-labeled neighbors.
func (c *capper) cap(from, to graph.Label, n int) { c.caps[[2]graph.Label{from, to}] = n }

func (c *capper) count(v graph.NodeID, l graph.Label) int { return c.cnt[v][l] }

func (c *capper) room(v graph.NodeID, nbr graph.Label) bool {
	lim, ok := c.caps[[2]graph.Label{c.g.LabelOf(v), nbr}]
	if !ok {
		return true
	}
	return c.cnt[v][nbr] < lim
}

func (c *capper) bump(v graph.NodeID, nbr graph.Label) {
	m, ok := c.cnt[v]
	if !ok {
		m = make(map[graph.Label]int, 4)
		c.cnt[v] = m
	}
	m[nbr]++
}

// tryEdge adds the directed edge (a, b) if both endpoints have room for
// each other's labels and the edge is new. It reports success.
func (c *capper) tryEdge(a, b graph.NodeID) bool {
	la, lb := c.g.LabelOf(a), c.g.LabelOf(b)
	if a == b || c.g.HasNeighbor(a, b) {
		return false
	}
	if !c.room(a, lb) || !c.room(b, la) {
		return false
	}
	if err := c.g.AddEdge(a, b); err != nil {
		return false
	}
	c.bump(a, lb)
	c.bump(b, la)
	return true
}

// scaled returns max(1, round(base*scale)).
func scaled(base int, scale float64) int {
	n := int(float64(base)*scale + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// pick returns a uniformly random element of s.
func pick[T any](r *rand.Rand, s []T) T { return s[r.Intn(len(s))] }

// validate panics if the generated graph violates its own schema — a
// generator bug, not a user error.
func (d *Dataset) validate() {
	if viols := access.Validate(d.G, d.Schema); viols != nil {
		panic(fmt.Sprintf("workload: %s generator emitted violations: %v", d.Name, viols[0]))
	}
}
