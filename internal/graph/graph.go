// Package graph provides the data-graph substrate of the reproduction of
// "Making Pattern Queries Bounded in Big Graphs" (Cao et al., ICDE 2015):
// node-labeled directed graphs G = (V, E, f, ν) with attribute values,
// label indexing, subgraph extraction, updates, and serialization.
//
// Per the paper's remark in §II, edges carry no labels; a labeled edge can
// be modeled by inserting a dummy node carrying the edge's label (see
// InsertEdgeNode).
package graph

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
)

// NodeID identifies a node of a Graph. IDs are dense indices assigned by
// AddNode in insertion order; removed nodes leave tombstones so IDs of live
// nodes remain stable.
type NodeID int

// InvalidNode is returned by lookups that find no node.
const InvalidNode NodeID = -1

// Errors returned by graph mutators and accessors.
var (
	ErrNoSuchNode    = errors.New("graph: no such node")
	ErrNoSuchEdge    = errors.New("graph: no such edge")
	ErrDupEdge       = errors.New("graph: duplicate edge")
	ErrNodeTombstone = errors.New("graph: node was removed")
)

// edgeKey packs a directed edge into one word so the edges map hashes and
// compares a single uint64 instead of a 16-byte struct — a measurable win
// on the HasEdge/AddEdge hot paths. Node IDs are dense indices, so 32 bits
// per endpoint is ample.
type edgeKey uint64

func packEdge(from, to NodeID) edgeKey {
	return edgeKey(uint64(uint32(from))<<32 | uint64(uint32(to)))
}

// PackEdge packs the ordered node pair (from, to) into one word, from in
// the high half: ascending packed keys list edges grouped by source, each
// group ascending by target. Other word-keyed tables (GQ's edge buffer,
// the pair-keyed constraint indexes) share this packing.
func PackEdge(from, to NodeID) uint64 { return uint64(packEdge(from, to)) }

// UnpackEdge inverts PackEdge.
func UnpackEdge(k uint64) (from, to NodeID) {
	return NodeID(uint32(k >> 32)), NodeID(uint32(k))
}

// Graph is a node-labeled directed graph G = (V, E, f, ν). The zero Graph
// is not ready to use; call New.
//
// Graph is not safe for concurrent mutation; concurrent readers are fine.
type Graph struct {
	interner *Interner

	labels []Label // f(v); NoLabel marks a tombstone
	values []Value // ν(v)

	out [][]NodeID
	in  [][]NodeID

	byLabel map[Label][]NodeID // live nodes per label, ascending ID order
	// edges indexes E for HasEdge. It is nil on a graph built by
	// FromSortedEdges, whose rows are sorted: HasEdge then binary-searches
	// the row, and the first mutation (thaw) builds the map.
	edges map[edgeKey]struct{}

	numNodes int // live nodes
	numEdges int
}

// New returns an empty graph sharing the given label interner. If in is
// nil a fresh interner is created.
func New(in *Interner) *Graph {
	return NewWithCapacity(in, 0)
}

// NewWithCapacity is New with room pre-reserved for nodeCap nodes, so
// builders that know the final size (subgraph extraction, generators)
// avoid repeated slice growth.
func NewWithCapacity(in *Interner, nodeCap int) *Graph {
	if in == nil {
		in = NewInterner()
	}
	g := &Graph{
		interner: in,
		byLabel:  make(map[Label][]NodeID),
		edges:    make(map[edgeKey]struct{}),
	}
	if nodeCap > 0 {
		g.labels = make([]Label, 0, nodeCap)
		g.values = make([]Value, 0, nodeCap)
		g.out = make([][]NodeID, 0, nodeCap)
		g.in = make([][]NodeID, 0, nodeCap)
	}
	return g
}

// Interner returns the label interner shared by this graph.
func (g *Graph) Interner() *Interner { return g.interner }

// AddNode inserts a node with label l and attribute value v, returning its
// ID.
func (g *Graph) AddNode(l Label, v Value) NodeID {
	id := NodeID(len(g.labels))
	g.labels = append(g.labels, l)
	g.values = append(g.values, v)
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	g.byLabel[l] = append(g.byLabel[l], id)
	g.numNodes++
	return id
}

// AddNodeNamed interns the label name and inserts a node.
func (g *Graph) AddNodeNamed(label string, v Value) NodeID {
	return g.AddNode(g.interner.Intern(label), v)
}

// AddEdge inserts the directed edge (from, to). It returns ErrDupEdge if
// the edge already exists and ErrNoSuchNode if either endpoint is invalid.
func (g *Graph) AddEdge(from, to NodeID) error {
	if !g.valid(from) || !g.valid(to) {
		return ErrNoSuchNode
	}
	g.thaw()
	k := packEdge(from, to)
	if _, ok := g.edges[k]; ok {
		return ErrDupEdge
	}
	g.edges[k] = struct{}{}
	g.out[from] = append(g.out[from], to)
	g.in[to] = append(g.in[to], from)
	g.numEdges++
	return nil
}

// thaw readies a graph built by FromSortedEdges for its first mutation by
// building the edge map. Its rows are capacity-capped runs of one backing
// array, so an append moves a row off it and a removal stays inside the
// row. On any other graph it is a no-op.
func (g *Graph) thaw() {
	if g.edges == nil {
		g.indexEdges()
	}
}

// indexEdges builds the edge map from the out-rows.
func (g *Graph) indexEdges() {
	g.edges = make(map[edgeKey]struct{}, g.numEdges)
	for from, outs := range g.out {
		for _, to := range outs {
			g.edges[packEdge(NodeID(from), to)] = struct{}{}
		}
	}
}

// MustAddEdge is AddEdge, panicking on error; for generators and tests.
func (g *Graph) MustAddEdge(from, to NodeID) {
	if err := g.AddEdge(from, to); err != nil {
		panic(fmt.Sprintf("graph: AddEdge(%d,%d): %v", from, to, err))
	}
}

// AddEdgeIfAbsent inserts the edge unless it exists; it reports whether an
// insertion happened.
func (g *Graph) AddEdgeIfAbsent(from, to NodeID) bool {
	err := g.AddEdge(from, to)
	return err == nil
}

// RemoveEdge deletes the directed edge (from, to).
func (g *Graph) RemoveEdge(from, to NodeID) error {
	g.thaw()
	k := packEdge(from, to)
	if _, ok := g.edges[k]; !ok {
		return ErrNoSuchEdge
	}
	delete(g.edges, k)
	g.out[from] = removeID(g.out[from], to)
	g.in[to] = removeID(g.in[to], from)
	g.numEdges--
	return nil
}

// RemoveNode deletes node v and all its incident edges. The ID becomes a
// tombstone and is never reused.
func (g *Graph) RemoveNode(v NodeID) error {
	if !g.valid(v) {
		return ErrNoSuchNode
	}
	for _, w := range append([]NodeID(nil), g.out[v]...) {
		_ = g.RemoveEdge(v, w)
	}
	for _, w := range append([]NodeID(nil), g.in[v]...) {
		_ = g.RemoveEdge(w, v)
	}
	l := g.labels[v]
	g.byLabel[l] = removeIDOrdered(g.byLabel[l], v)
	if len(g.byLabel[l]) == 0 {
		delete(g.byLabel, l)
	}
	g.labels[v] = NoLabel
	g.values[v] = Value{}
	g.out[v] = nil
	g.in[v] = nil
	g.numNodes--
	return nil
}

// AddNodeAt inserts a node under an explicit, caller-assigned ID — the
// sharded runtime's counterpart of AddNode: node IDs are assigned once,
// globally, and every shard graph that materializes the node (as owner or
// as a remote-endpoint stub) must file it under the same ID. An ID at or
// beyond the current cap extends the ID space, padding the gap with
// tombstones; an in-range tombstone ID revives the slot (shard graphs use
// tombstones for the IDs they do not hold, so a stub for an older node
// lands on one). Inserting over a live node is an error.
func (g *Graph) AddNodeAt(id NodeID, l Label, v Value) error {
	if id < 0 {
		return ErrNoSuchNode
	}
	if int(id) < len(g.labels) {
		if g.labels[id] != NoLabel {
			return fmt.Errorf("graph: AddNodeAt(%d): ID already live", id)
		}
		g.labels[id] = l
		g.values[id] = v
		g.byLabel[l] = insertIDSorted(g.byLabel[l], id)
		g.numNodes++
		return nil
	}
	for NodeID(len(g.labels)) < id {
		g.labels = append(g.labels, NoLabel)
		g.values = append(g.values, Value{})
		g.out = append(g.out, nil)
		g.in = append(g.in, nil)
	}
	g.labels = append(g.labels, l)
	g.values = append(g.values, v)
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	g.byLabel[l] = append(g.byLabel[l], id) // id is the new maximum: append keeps the row sorted
	g.numNodes++
	return nil
}

// retireRevivedNode re-tombstones a node revived by AddNodeAt. The node
// must be edge-free; it exists solely for Undo.Revert.
func (g *Graph) retireRevivedNode(v NodeID) {
	if !g.valid(v) {
		panic(fmt.Sprintf("graph: retireRevivedNode(%d): not a live node", v))
	}
	if len(g.out[v]) != 0 || len(g.in[v]) != 0 {
		panic(fmt.Sprintf("graph: retireRevivedNode(%d): node still has edges", v))
	}
	l := g.labels[v]
	g.byLabel[l] = removeIDOrdered(g.byLabel[l], v)
	if len(g.byLabel[l]) == 0 {
		delete(g.byLabel, l)
	}
	g.labels[v] = NoLabel
	g.values[v] = Value{}
	g.numNodes--
}

// truncateTo undoes an ID-space extension by AddNodeAt: v must be the
// topmost live node, preLen the cap before its insertion, and every slot
// in [preLen, v) a gap tombstone. It exists solely for Undo.Revert.
func (g *Graph) truncateTo(v NodeID, preLen int) {
	if int(v) != len(g.labels)-1 || !g.valid(v) {
		panic(fmt.Sprintf("graph: truncateTo(%d): not the topmost live node", v))
	}
	if len(g.out[v]) != 0 || len(g.in[v]) != 0 {
		panic(fmt.Sprintf("graph: truncateTo(%d): node still has edges", v))
	}
	for i := preLen; i < int(v); i++ {
		if g.labels[i] != NoLabel {
			panic(fmt.Sprintf("graph: truncateTo(%d): slot %d not a gap tombstone", v, i))
		}
	}
	l := g.labels[v]
	g.byLabel[l] = removeID(g.byLabel[l], v)
	if len(g.byLabel[l]) == 0 {
		delete(g.byLabel, l)
	}
	g.labels = g.labels[:preLen]
	g.values = g.values[:preLen]
	g.out = g.out[:preLen]
	g.in = g.in[:preLen]
	g.numNodes--
}

// restoreNode revives tombstone v with its original label and value. It is
// the inverse of RemoveNode minus the incident edges (the caller re-adds
// those) and exists solely for Undo.Revert.
func (g *Graph) restoreNode(v NodeID, l Label, val Value) {
	if g.valid(v) || v < 0 || int(v) >= len(g.labels) {
		panic(fmt.Sprintf("graph: restoreNode(%d): not a tombstone", v))
	}
	g.labels[v] = l
	g.values[v] = val
	g.byLabel[l] = insertIDSorted(g.byLabel[l], v)
	g.numNodes++
}

// dropLastNode removes the most recently added node, shrinking the ID
// space so a reverted insertion leaves no tombstone behind (future AddNode
// calls must assign the same IDs as if the insertion never happened). The
// node must be edge-free; it exists solely for Undo.Revert.
func (g *Graph) dropLastNode(v NodeID) {
	if int(v) != len(g.labels)-1 || !g.valid(v) {
		panic(fmt.Sprintf("graph: dropLastNode(%d): not the last live node", v))
	}
	if len(g.out[v]) != 0 || len(g.in[v]) != 0 {
		panic(fmt.Sprintf("graph: dropLastNode(%d): node still has edges", v))
	}
	l := g.labels[v]
	g.byLabel[l] = removeID(g.byLabel[l], v)
	if len(g.byLabel[l]) == 0 {
		delete(g.byLabel, l)
	}
	g.labels = g.labels[:v]
	g.values = g.values[:v]
	g.out = g.out[:v]
	g.in = g.in[:v]
	g.numNodes--
}

func removeID(s []NodeID, v NodeID) []NodeID {
	for i, x := range s {
		if x == v {
			s[i] = s[len(s)-1]
			return s[:len(s)-1]
		}
	}
	return s
}

// removeIDOrdered deletes v from s preserving element order. byLabel rows
// use it (not the swap-remove above) to keep their ascending-ID invariant:
// the WAL snapshot codec rebuilds byLabel in ascending order, so a
// recovered instance enumerates label candidates exactly like the live one
// only if live rows stay sorted through deletions.
func removeIDOrdered(s []NodeID, v NodeID) []NodeID {
	for i, x := range s {
		if x == v {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// insertIDSorted inserts v into ascending-sorted s. restoreNode uses it:
// a revived tombstone's ID is below later-added IDs, so a plain append
// would break the byLabel ordering invariant.
func insertIDSorted(s []NodeID, v NodeID) []NodeID {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func (g *Graph) valid(v NodeID) bool {
	return v >= 0 && int(v) < len(g.labels) && g.labels[v] != NoLabel
}

// Contains reports whether v is a live node of g.
func (g *Graph) Contains(v NodeID) bool { return g.valid(v) }

// HasEdge reports whether the directed edge (from, to) exists.
func (g *Graph) HasEdge(from, to NodeID) bool {
	if g.edges == nil {
		if from < 0 || int(from) >= len(g.out) {
			return false
		}
		_, ok := slices.BinarySearch(g.out[from], to)
		return ok
	}
	_, ok := g.edges[packEdge(from, to)]
	return ok
}

// HasNeighbor reports whether v and w are neighbors in either direction.
func (g *Graph) HasNeighbor(v, w NodeID) bool {
	return g.HasEdge(v, w) || g.HasEdge(w, v)
}

// LabelOf returns f(v). It returns NoLabel for tombstones and out-of-range
// IDs.
func (g *Graph) LabelOf(v NodeID) Label {
	if v < 0 || int(v) >= len(g.labels) {
		return NoLabel
	}
	return g.labels[v]
}

// ValueOf returns ν(v).
func (g *Graph) ValueOf(v NodeID) Value {
	if !g.valid(v) {
		return Value{}
	}
	return g.values[v]
}

// SetValue replaces ν(v).
func (g *Graph) SetValue(v NodeID, val Value) error {
	if !g.valid(v) {
		return ErrNoSuchNode
	}
	g.values[v] = val
	return nil
}

// Out returns the out-neighbors of v. The returned slice is shared; do not
// mutate it.
func (g *Graph) Out(v NodeID) []NodeID {
	if !g.valid(v) {
		return nil
	}
	return g.out[v]
}

// In returns the in-neighbors of v. The returned slice is shared; do not
// mutate it.
func (g *Graph) In(v NodeID) []NodeID {
	if !g.valid(v) {
		return nil
	}
	return g.in[v]
}

// Neighbors returns the deduplicated union of in- and out-neighbors of v
// (the paper's neighbor relation is undirected).
func (g *Graph) Neighbors(v NodeID) []NodeID {
	if !g.valid(v) {
		return nil
	}
	res := make([]NodeID, 0, len(g.out[v])+len(g.in[v]))
	res = append(res, g.out[v]...)
	for _, w := range g.in[v] {
		if !g.HasEdge(v, w) { // already included via out
			res = append(res, w)
		}
	}
	return res
}

// Degree returns the number of distinct neighbors of v.
func (g *Graph) Degree(v NodeID) int { return len(g.Neighbors(v)) }

// NodesByLabel returns the live nodes labeled l. The returned slice is
// shared; do not mutate it.
func (g *Graph) NodesByLabel(l Label) []NodeID { return g.byLabel[l] }

// CountLabel returns the number of live nodes labeled l.
func (g *Graph) CountLabel(l Label) int { return len(g.byLabel[l]) }

// Labels returns the distinct labels present in g, sorted.
func (g *Graph) Labels() []Label {
	out := make([]Label, 0, len(g.byLabel))
	for l := range g.byLabel {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NumNodes returns |V| (live nodes).
func (g *Graph) NumNodes() int { return g.numNodes }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return g.numEdges }

// Size returns |G| = |V| + |E|.
func (g *Graph) Size() int { return g.numNodes + g.numEdges }

// Nodes calls fn for every live node. Iteration stops if fn returns false.
func (g *Graph) Nodes(fn func(NodeID) bool) {
	for i := range g.labels {
		if g.labels[i] == NoLabel {
			continue
		}
		if !fn(NodeID(i)) {
			return
		}
	}
}

// NodeList returns all live node IDs in ascending order.
func (g *Graph) NodeList() []NodeID {
	out := make([]NodeID, 0, g.numNodes)
	g.Nodes(func(v NodeID) bool { out = append(out, v); return true })
	return out
}

// Edges calls fn for every edge (from, to). Iteration stops if fn returns
// false. Order is unspecified.
func (g *Graph) Edges(fn func(from, to NodeID) bool) {
	for i, outs := range g.out {
		if g.labels[i] == NoLabel {
			continue
		}
		for _, w := range outs {
			if !fn(NodeID(i), w) {
				return
			}
		}
	}
}

// CommonNeighbors returns the nodes labeled l that are neighbors (in either
// direction) of every node in vs. Per §II, when vs is empty every node
// labeled l qualifies. This is the brute-force reference used by tests and
// by index construction for small sets.
func (g *Graph) CommonNeighbors(vs []NodeID, l Label) []NodeID {
	if len(vs) == 0 {
		return append([]NodeID(nil), g.byLabel[l]...)
	}
	// Start from the neighbor set of the first node, filter by the rest.
	var res []NodeID
	for _, w := range g.Neighbors(vs[0]) {
		if g.LabelOf(w) != l {
			continue
		}
		all := true
		for _, v := range vs[1:] {
			if !g.HasNeighbor(v, w) {
				all = false
				break
			}
		}
		if all {
			res = append(res, w)
		}
	}
	sort.Slice(res, func(i, j int) bool { return res[i] < res[j] })
	return dedupSorted(res)
}

func dedupSorted(s []NodeID) []NodeID {
	if len(s) < 2 {
		return s
	}
	j := 1
	for i := 1; i < len(s); i++ {
		if s[i] != s[i-1] {
			s[j] = s[i]
			j++
		}
	}
	return s[:j]
}

// InducedSubgraph returns the subgraph of g induced by the given node set:
// the nodes keep their labels and values (fresh IDs are assigned), and every
// edge of g between two kept nodes is retained. The second return value maps
// g's IDs to the subgraph's IDs.
func (g *Graph) InducedSubgraph(nodes []NodeID) (*Graph, map[NodeID]NodeID) {
	sub := New(g.interner)
	idmap := make(map[NodeID]NodeID, len(nodes))
	for _, v := range nodes {
		if !g.valid(v) {
			continue
		}
		if _, dup := idmap[v]; dup {
			continue
		}
		idmap[v] = sub.AddNode(g.labels[v], g.values[v])
	}
	for v, sv := range idmap {
		for _, w := range g.out[v] {
			if sw, ok := idmap[w]; ok {
				_ = sub.AddEdge(sv, sw)
			}
		}
	}
	return sub, idmap
}

// Clone returns a deep copy of g sharing the interner.
func (g *Graph) Clone() *Graph {
	c := New(g.interner)
	c.labels = append([]Label(nil), g.labels...)
	c.values = append([]Value(nil), g.values...)
	c.out = make([][]NodeID, len(g.out))
	c.in = make([][]NodeID, len(g.in))
	for i := range g.out {
		c.out[i] = append([]NodeID(nil), g.out[i]...)
		c.in[i] = append([]NodeID(nil), g.in[i]...)
	}
	for l, ns := range g.byLabel {
		c.byLabel[l] = append([]NodeID(nil), ns...)
	}
	if g.edges == nil {
		c.indexEdges()
	} else {
		c.edges = maps.Clone(g.edges)
	}
	c.numNodes = g.numNodes
	c.numEdges = g.numEdges
	return c
}

// CloneFiltered returns a copy of g restricted to the nodes satisfying
// keepNode and the edges satisfying keepEdge, preserving the node-ID
// space: excluded nodes become tombstones under their original IDs, and
// an edge survives only if both endpoints are kept and keepEdge(from, to)
// holds. The shard partitioner uses it to carve per-shard graphs (owned
// nodes plus remote-endpoint stubs) out of one global graph without the
// O(n log n) byLabel churn of replaying node-by-node.
func (g *Graph) CloneFiltered(keepNode func(NodeID) bool, keepEdge func(from, to NodeID) bool) *Graph {
	c := New(g.interner)
	c.labels = make([]Label, len(g.labels))
	c.values = make([]Value, len(g.values))
	c.out = make([][]NodeID, len(g.out))
	c.in = make([][]NodeID, len(g.in))
	for i, l := range g.labels {
		v := NodeID(i)
		if l == NoLabel || !keepNode(v) {
			c.labels[i] = NoLabel
			continue
		}
		c.labels[i] = l
		c.values[i] = g.values[i]
		c.byLabel[l] = append(c.byLabel[l], v) // i ascends: rows stay sorted
		c.numNodes++
	}
	for i, outs := range g.out {
		if c.labels[i] == NoLabel {
			continue
		}
		from := NodeID(i)
		for _, to := range outs {
			if c.labels[to] == NoLabel || !keepEdge(from, to) {
				continue
			}
			c.out[from] = append(c.out[from], to)
			c.in[to] = append(c.in[to], from)
			c.edges[packEdge(from, to)] = struct{}{}
			c.numEdges++
		}
	}
	return c
}

// InsertEdgeNode models a labeled edge (from -label-> to) by inserting a
// dummy node carrying the label, per the paper's remark in §II. It returns
// the dummy node's ID.
func (g *Graph) InsertEdgeNode(from, to NodeID, l Label) (NodeID, error) {
	if !g.valid(from) || !g.valid(to) {
		return InvalidNode, ErrNoSuchNode
	}
	d := g.AddNode(l, Value{})
	if err := g.AddEdge(from, d); err != nil {
		return InvalidNode, err
	}
	if err := g.AddEdge(d, to); err != nil {
		return InvalidNode, err
	}
	return d, nil
}

// String summarizes the graph for diagnostics.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph(|V|=%d, |E|=%d, labels=%d)", g.numNodes, g.numEdges, len(g.byLabel))
}
