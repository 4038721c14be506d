package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"boundedg/internal/access"
	"boundedg/internal/graph"
	"boundedg/internal/pattern"
)

// ErrSchemaMismatch is returned when the index set was built for a schema
// other than the plan's.
var ErrSchemaMismatch = errors.New("core: index set does not serve the plan's schema")

// ExecStats accounts for the data a plan execution accessed — the
// |accessedQ| measurements of Fig 5(d,h,l). With the paper's accounting
// (Example 1), nodes accessed are all index-lookup results during the
// fetch phase (pre-predicate filtering), and edges accessed are all
// candidates returned during the edge-verification phase.
type ExecStats struct {
	// NodesAccessed counts nodes returned by index lookups in the fetch
	// phase.
	NodesAccessed int
	// EdgesAccessed counts edge candidates returned by index lookups in
	// the edge-verification phase.
	EdgesAccessed int
	// IndexLookups counts index probes across both phases.
	IndexLookups int
	// GQNodes and GQEdges are the size of the fetched subgraph.
	GQNodes, GQEdges int
}

// Accessed returns the total amount of data accessed (nodes + edges).
func (s *ExecStats) Accessed() int { return s.NodesAccessed + s.EdgesAccessed }

// BoundedGraph is the subgraph GQ identified by a plan, together with the
// per-pattern-node candidate sets (in GQ's node IDs) and the mapping back
// to the original graph's IDs.
type BoundedGraph struct {
	// G is the fetched subgraph GQ (fresh node IDs).
	G *graph.Graph
	// Fz is G's frozen snapshot, built in the same pass and sharing G's
	// adjacency arrays; matchers take it instead of re-freezing G.
	Fz *graph.Frozen
	// Cands[u] lists GQ nodes that are candidate matches for pattern node
	// u (maximally reduced cmat(u)).
	Cands [][]graph.NodeID
	// ToOrig maps GQ node IDs (dense, 0..NumNodes-1) back to the source
	// graph's IDs: ToOrig[gqID] is the original node.
	ToOrig []graph.NodeID
}

// ExecConfig tunes plan execution. The zero value (and a nil *ExecConfig)
// reproduces the defaults.
type ExecConfig struct {
	// Frozen, when non-nil, must be a snapshot of the graph being
	// queried; edge verification then intersects each probe part with
	// the fixed endpoint's sorted row instead of probing the graph's edge
	// map once per candidate. Long-lived callers (the runtime engine)
	// freeze once and amortize across queries.
	Frozen *graph.Frozen
	// Scratch, when non-nil, reuses per-execution buffers (dense sets
	// and the GQ remap table) across queries. A scratch serves one
	// execution at a time; without one, ExecWith borrows from a pool.
	Scratch *ExecScratch
	// Ctx, when non-nil, is polled at every plan operation and every
	// cancelStride enumerated tuples inside the fetch and
	// edge-verification loops. Once it is cancelled, ExecWith abandons
	// the evaluation, restores its scratch buffers, and returns the
	// context's error — so a dropped connection or an expired deadline
	// stops the work instead of letting it run to completion.
	Ctx context.Context
	// Shards, when non-empty, evaluates the plan scatter/gather over a
	// sharded store's pinned cut: every index probe looks up each
	// shard's row partition, whose ascending, disjoint parts together
	// are exactly the global entry. Edge verification consumes the parts
	// unmerged (its edge keys are sorted afterwards); the fetch phase,
	// whose candidate order numbers GQ, merges them into a reused
	// scratch buffer. Label, value and edge-direction checks route to
	// the node's owner shard — the answer is bit-identical to the
	// unsharded run. The g and idx arguments of ExecWith and Frozen are
	// ignored (g and idx may be nil); ShardOf must be set to the
	// router's node→shard map unless the cut has a single shard.
	Shards  []ShardView
	ShardOf func(graph.NodeID) int
	// Footprint, when non-nil, records the execution's read set — the
	// rows each plan op resolved to and the type-1 labels it consulted
	// (see Footprint for why that set determines the answer). Recording
	// happens once per op, on its final candidates, so a shared
	// ExecConfig prototype stays safe as long as the footprint itself
	// serves one execution at a time.
	Footprint *Footprint
}

// ShardView is one shard's pinned state inside a consistent cut: its
// graph, the optional frozen snapshot for direction checks, and its row
// partition of the index set.
type ShardView struct {
	G   *graph.Graph
	Fz  *graph.Frozen
	Idx *access.IndexSet
}

// ExecScratch holds the reusable buffers of one plan execution: the
// per-op dedup set, the per-pattern-node candidate lists and sets, the
// dense |V|-sized table mapping source node IDs to GQ IDs, and the packed
// GQ edge keys. All are restored to their empty state on every exit path
// of ExecWith, so reuse is O(touched) instead of O(|V|) per query, and a
// warm scratch makes the GQ build O(1) allocations whatever its size.
type ExecScratch struct {
	seen    *graph.DenseSet
	csets   []*graph.DenseSet
	remap   []int32           // source ID -> GQ ID + 1; 0 = unmapped
	cmat    [][]graph.NodeID  // cmat[u]: candidates of pattern node u
	cset    []*graph.DenseSet // cset[u]: cmat[u] as a set; nil until fetched
	fetched []bool            // fetched[u]: some op produced cmat[u]
	refetch []graph.NodeID    // an op's result for an already-fetched node
	tuple   []graph.NodeID    // the enumeration's reused tuple
	keys    []uint64          // verified GQ edges, PackEdge(from, to)
	common  []graph.NodeID    // one probe part's intersection with a row
	keyRows []uint64          // keys bucketed by source, for sortEdgeKeys
	rowEnd  []int32           // per-source bucket bounds, for sortEdgeKeys
	probe   probeBuf          // the probe buffers
}

// NewExecScratch returns an empty scratch; buffers are grown on first use.
func NewExecScratch() *ExecScratch { return &ExecScratch{} }

// execScratchPool serves executions whose caller supplied no scratch —
// the runtime engine's and the experiment loops' — so repeated executions
// amortize the dense buffers.
var execScratchPool = sync.Pool{New: func() any { return NewExecScratch() }}

func (s *ExecScratch) getSeen(idCap int) *graph.DenseSet {
	if s.seen == nil {
		s.seen = graph.NewDenseSet(idCap)
	}
	return s.seen
}

func (s *ExecScratch) getCset(i, idCap int) *graph.DenseSet {
	for len(s.csets) <= i {
		s.csets = append(s.csets, graph.NewDenseSet(idCap))
	}
	return s.csets[i]
}

func (s *ExecScratch) getRemap(idCap int) []int32 {
	if len(s.remap) < idCap {
		s.remap = make([]int32, idCap)
	}
	return s.remap
}

// sortEdgeKeys sorts and deduplicates keys, packed edges over GQ nodes
// 0..n-1, in place: the same array slices.Sort + slices.Compact would
// give, at O(len(keys) + n) instead of O(len(keys) log len(keys)). A
// counting sort on the source spreads the keys into per-source rows,
// then each row — a handful of targets — is sorted and compacted back
// into keys.
func (s *ExecScratch) sortEdgeKeys(keys []uint64, n int) []uint64 {
	if cap(s.rowEnd) < n+1 {
		s.rowEnd = make([]int32, n+1)
	}
	if cap(s.keyRows) < len(keys) {
		s.keyRows = make([]uint64, len(keys))
	}
	end, rows := s.rowEnd[:n+1], s.keyRows[:len(keys)]
	clear(end)
	for _, k := range keys {
		end[k>>32+1]++
	}
	for v := 1; v <= n; v++ {
		end[v] += end[v-1]
	}
	// end[v] is row v's start; placing advances it to the row's end.
	for _, k := range keys {
		rows[end[k>>32]] = k
		end[k>>32]++
	}
	out, lo := keys[:0], int32(0)
	for _, hi := range end[:n] {
		row := rows[lo:hi]
		slices.Sort(row)
		for i, k := range row {
			if i == 0 || k != row[i-1] {
				out = append(out, k)
			}
		}
		lo = hi
	}
	return out
}

// begin sizes the per-pattern-node tables for a pattern of n nodes; they
// are all empty on entry (release left them so).
func (s *ExecScratch) begin(n int) {
	for len(s.cmat) < n {
		s.cmat = append(s.cmat, nil)
		s.cset = append(s.cset, nil)
		s.fetched = append(s.fetched, false)
	}
}

// cancelStride is how many enumerated tuples pass between context polls
// in the fetch and edge-verification loops: coarse enough that polling is
// free, fine enough that cancellation lands within microseconds.
const cancelStride = 256

// strideChecker polls a context once every cancelStride calls. The zero
// ctx means "never cancelled". Each enumeration loop starts its own.
type strideChecker struct {
	ctx context.Context
	n   int
}

func (c *strideChecker) cancelled() bool {
	if c.ctx == nil {
		return false
	}
	if c.n++; c.n < cancelStride {
		return false
	}
	c.n = 0
	return c.ctx.Err() != nil
}

// Exec runs the plan against g using the pre-built index set, fetching the
// bounded subgraph GQ. It accesses g only through the constraint indices
// (plus a direction check per edge candidate the indexes return: with a
// frozen snapshot, one intersection of each probe part with the fixed
// endpoint's sorted row), so the work is determined by Q and A,
// independent of |G|.
func (p *Plan) Exec(g *graph.Graph, idx *access.IndexSet) (*BoundedGraph, *ExecStats, error) {
	return p.ExecWith(g, idx, nil)
}

// ExecWith is Exec with an execution configuration; see ExecConfig. It
// produces exactly the same BoundedGraph and stats as Exec whatever the
// configuration, over one graph or over a cut of any number of shards.
func (p *Plan) ExecWith(g *graph.Graph, idx *access.IndexSet, cfg *ExecConfig) (*BoundedGraph, *ExecStats, error) {
	var scratch *ExecScratch
	var ctx context.Context
	var fp *Footprint
	// All graph and index access below goes through rd, which reads every
	// input as a cut: an unsharded call is a 1-shard cut held here.
	one := [1]ShardView{{G: g, Idx: idx}}
	rd := reader{q: p.Q, shards: one[:]}
	if cfg != nil {
		scratch, ctx, fp = cfg.Scratch, cfg.Ctx, cfg.Footprint
		one[0].Fz = cfg.Frozen
		if len(cfg.Shards) > 0 {
			rd.shards, rd.shardOf = cfg.Shards, cfg.ShardOf
		}
	}
	idCap := 0
	for i := range rd.shards {
		sv := &rd.shards[i]
		if sv.Idx == nil || sv.Idx.Schema() != p.A {
			return nil, nil, ErrSchemaMismatch
		}
		idCap = max(idCap, sv.G.Cap())
	}
	// ctxErr reports the sticky cancellation state; nil ctx never cancels.
	ctxErr := func() error {
		if ctx == nil {
			return nil
		}
		return ctx.Err()
	}
	if err := ctxErr(); err != nil {
		return nil, nil, err
	}
	fromPool := scratch == nil
	if fromPool {
		scratch = execScratchPool.Get().(*ExecScratch)
	}

	n := p.Q.NumNodes()
	stats := &ExecStats{}

	// cmat[u]: candidate matches for u, as ordered slice + dense set.
	scratch.begin(n)
	cmat, cset, fetched := scratch.cmat[:n], scratch.cset[:n], scratch.fetched[:n]
	seen := scratch.getSeen(idCap) // per-op dedup, sparsely cleared

	// releaseCsets restores the scratch candidate lists and sets to empty;
	// every exit path must call it (the sets mirror cmat at all times). A
	// pool-owned scratch goes back only on clean release — a panic drops
	// it instead of poisoning the pool.
	releaseCsets := func() {
		for ui := 0; ui < n; ui++ {
			if cset[ui] != nil {
				cset[ui].ResetSparse(cmat[ui])
			}
			cmat[ui], cset[ui], fetched[ui] = cmat[ui][:0], nil, false
		}
		if fromPool {
			execScratchPool.Put(scratch)
		}
	}

	for _, op := range p.Ops {
		if err := ctxErr(); err != nil {
			releaseCsets()
			return nil, nil, err
		}
		// Every dependency must have been fetched by an earlier op.
		for _, d := range op.Deps {
			if !fetched[d] {
				releaseCsets()
				return nil, nil, fmt.Errorf("core: plan op for %s depends on unfetched node %s", p.Q.Name(op.U), p.Q.Name(d))
			}
		}
		// A first fetch of op.U collects straight into its scratch list; a
		// re-fetch collects aside and is intersected into it below.
		result := cmat[op.U][:0]
		if fetched[op.U] {
			result = scratch.refetch[:0]
		}
		// Union of lookups over the product of dependency candidates (one
		// empty tuple for a type-1 op). A probe counts as ONE index lookup
		// accessing the sum of its parts — the row partition sums back to
		// the global entry, so the stats do not depend on the cut. Each
		// entry is walked in ascending order, which fixes the candidates'
		// order and so GQ's numbering.
		chk := strideChecker{ctx: ctx}
		scratch.forEachTuple(cmat, op.Deps, func(tuple []graph.NodeID) bool {
			if chk.cancelled() {
				return false
			}
			vs := rd.lookup(op.CIdx, tuple, &scratch.probe)
			stats.IndexLookups++
			stats.NodesAccessed += len(vs)
			for _, v := range vs {
				if rd.matches(op.U, v) && seen.Add(v) {
					result = append(result, v)
				}
			}
			return true
		})
		seen.ResetSparse(result) // seen mirrors result, after an abort too
		if err := ctxErr(); err != nil {
			releaseCsets()
			return nil, nil, err
		}
		if fetched[op.U] {
			// Later ops reduce earlier candidate sets (§IV): intersect.
			scratch.refetch = result
			old := cset[op.U]
			reduced := result[:0]
			for _, v := range result {
				if old.Has(v) {
					reduced = append(reduced, v)
				}
			}
			old.ResetSparse(cmat[op.U])
			for _, v := range reduced {
				old.Add(v)
			}
			result = append(cmat[op.U][:0], reduced...)
		} else {
			set := scratch.getCset(int(op.U), idCap)
			for _, v := range result {
				set.Add(v)
			}
			cset[op.U] = set
		}
		cmat[op.U] = result
		fetched[op.U] = true
		if fp != nil {
			// The op's resolved rows enter the read set; tuple inputs of
			// later ops are drawn from these, so recording each op's final
			// candidates transitively covers every index key the plan
			// probes. Type-1 ops additionally pin the consulted label —
			// their entries shift on bare node inserts/deletes that touch
			// no recorded row.
			fp.addRows(result)
			if op.Deps == nil {
				fp.addLabel(p.A.At(op.CIdx).L)
			}
		}
	}
	for ui := 0; ui < n; ui++ {
		if !fetched[ui] {
			releaseCsets()
			return nil, nil, fmt.Errorf("core: plan fetched no candidates for node %s", p.Q.Name(pattern.Node(ui)))
		}
	}
	if err := ctxErr(); err != nil {
		releaseCsets()
		return nil, nil, err
	}

	// Build GQ's nodes: the union of candidate sets, numbered in
	// first-seen order. Count the distinct nodes first so every array is
	// allocated at its final size; seen doubles as the dedup set and is
	// drained again during the numbering.
	distinct, total := 0, 0
	for ui := 0; ui < n; ui++ {
		total += len(cmat[ui])
		for _, v := range cmat[ui] {
			if seen.Add(v) {
				distinct++
			}
		}
	}
	bg := &BoundedGraph{Cands: make([][]graph.NodeID, n), ToOrig: make([]graph.NodeID, 0, distinct)}
	labels := make([]graph.Label, 0, distinct)
	values := make([]graph.Value, 0, distinct)
	candIDs := make([]graph.NodeID, 0, total)
	remap := scratch.getRemap(idCap) // source ID -> GQ ID + 1; all zero here
	for ui := 0; ui < n; ui++ {
		lo := len(candIDs)
		for _, v := range cmat[ui] {
			rv := remap[v]
			if rv == 0 {
				rv = int32(len(bg.ToOrig)) + 1
				remap[v] = rv
				bg.ToOrig = append(bg.ToOrig, v)
				labels = append(labels, rd.labelOf(v))
				values = append(values, rd.valueOf(v))
				seen.Remove(v) // drain: each distinct node exactly once
			}
			candIDs = append(candIDs, graph.NodeID(rv-1))
		}
		bg.Cands[ui] = candIDs[lo:len(candIDs):len(candIDs)]
	}
	stats.GQNodes = distinct
	// release restores the remap table and candidate sets on every exit
	// from edge verification. seen is empty throughout this phase (it was
	// drained building GQ), so it needs no repair here.
	release := func() {
		for _, v := range bg.ToOrig {
			remap[v] = 0
		}
		releaseCsets()
	}

	// Edge verification through the covering constraints' indices. Every
	// verified edge appends its packed GQ key; sorting and compacting the
	// keys afterwards yields GQ's edge set in CSR order, so each entry's
	// parts are walked in place, unmerged. Within one tuple the other
	// endpoint vo is fixed, so when every shard carries a frozen snapshot
	// the direction check is one intersection per part with vo's sorted
	// row on its owner, which holds vo's full adjacency: Out(vo) when vo
	// is the edge's source, In(vo) when it is the target. Without one (a
	// mutable row is unsorted) each candidate is checked on its own.
	keys := scratch.keys[:0]
	rows := rd.frozen()
	for _, ec := range p.EdgeChecks {
		if err := ctxErr(); err != nil {
			release()
			return nil, nil, err
		}
		oi := slices.Index(ec.Deps, ec.Other()) // the other endpoint's position in a tuple
		if oi < 0 {
			release()
			return nil, nil, fmt.Errorf("core: edge check for (%s, %s) misses its endpoint dependency", p.Q.Name(ec.From), p.Q.Name(ec.To))
		}
		target := cset[ec.Target]
		chk := strideChecker{ctx: ctx}
		scratch.forEachTuple(cmat, ec.Deps, func(tuple []graph.NodeID) bool {
			if chk.cancelled() {
				return false
			}
			parts := rd.probe(ec.CIdx, tuple, scratch.probe.parts[:0])
			scratch.probe.parts = parts
			stats.IndexLookups++
			vo := tuple[oi]
			if rows {
				var row []graph.NodeID
				if fz := rd.home(vo).Fz; ec.Target == ec.To {
					row = fz.Out(vo)
				} else {
					row = fz.In(vo)
				}
				for _, cands := range parts {
					stats.EdgesAccessed += len(cands)
					common := appendCommon(scratch.common[:0], cands, row)
					scratch.common = common
					for _, vt := range common {
						if target.Has(vt) {
							if ec.Target == ec.To {
								keys = append(keys, graph.PackEdge(graph.NodeID(remap[vo]-1), graph.NodeID(remap[vt]-1)))
							} else {
								keys = append(keys, graph.PackEdge(graph.NodeID(remap[vt]-1), graph.NodeID(remap[vo]-1)))
							}
						}
					}
				}
				return true
			}
			for _, cands := range parts {
				stats.EdgesAccessed += len(cands)
				for _, vt := range cands {
					if !target.Has(vt) {
						continue
					}
					vf, vtto := vt, vo
					if ec.Target == ec.To {
						vf, vtto = vo, vt
					}
					// The index certifies neighborship; confirm direction
					// on the fetched pair.
					if rd.home(vf).G.HasEdge(vf, vtto) {
						keys = append(keys, graph.PackEdge(graph.NodeID(remap[vf]-1), graph.NodeID(remap[vtto]-1)))
					}
				}
			}
			return true
		})
		if err := ctxErr(); err != nil {
			release()
			return nil, nil, err
		}
	}
	keys = scratch.sortEdgeKeys(keys, distinct)
	scratch.keys = keys
	bg.G, bg.Fz = graph.FromSortedEdges(rd.shards[0].G.Interner(), labels, values, keys)
	stats.GQEdges = len(keys)
	release()
	return bg, stats, nil
}

// reader is ExecWith's access to the data: a cut of one or more shards,
// each holding a graph, an optional frozen snapshot and its row partition
// of the index set. An unsharded input is a 1-shard cut, so one type reads
// both.
type reader struct {
	q       *pattern.Pattern
	shards  []ShardView
	shardOf func(graph.NodeID) int // unused on a 1-shard cut
}

// home returns the shard owning v, which holds v's label, value and full
// adjacency.
func (rd *reader) home(v graph.NodeID) *ShardView {
	if len(rd.shards) == 1 {
		return &rd.shards[0]
	}
	return &rd.shards[rd.shardOf(v)]
}

// probe appends to dst the non-empty parts of tuple's entry under
// constraint ci: each shard's row partition of it. The parts are ascending
// and pairwise disjoint, and together they are exactly the global entry.
func (rd *reader) probe(ci int, tuple []graph.NodeID, dst [][]graph.NodeID) [][]graph.NodeID {
	for i := range rd.shards {
		if r := rd.shards[i].Idx.Index(ci).Lookup(tuple); len(r) > 0 {
			dst = append(dst, r)
		}
	}
	return dst
}

func (rd *reader) matches(u pattern.Node, v graph.NodeID) bool {
	return rd.q.MatchesNode(u, rd.home(v).G, v)
}

func (rd *reader) labelOf(v graph.NodeID) graph.Label { return rd.home(v).G.LabelOf(v) }

func (rd *reader) valueOf(v graph.NodeID) graph.Value { return rd.home(v).G.ValueOf(v) }

// frozen reports whether every shard carries a frozen snapshot, whose
// sorted rows edge verification intersects.
func (rd *reader) frozen() bool {
	for i := range rd.shards {
		if rd.shards[i].Fz == nil {
			return false
		}
	}
	return true
}

// appendCommon appends to dst the elements common to a and b, both
// ascending and duplicate-free, in ascending order. It walks the shorter
// slice and gallops through the longer one (an exponential probe, then a
// binary search inside the bracket), so the cost is O(s log(l/s)) for
// lengths s <= l: a merge when the sizes are close, a search per element
// when they are far apart. Galloping is leapfrog triejoin's seek
// (Veldhuizen, ICDT 2014).
func appendCommon(dst, a, b []graph.NodeID) []graph.NodeID {
	if len(a) > len(b) {
		a, b = b, a
	}
	for _, x := range a {
		if len(b) == 0 {
			break
		}
		if b[0] < x {
			// b[lo] < x; find the first element >= x in b[lo+1:hi].
			lo, hi := 0, 1
			for hi < len(b) && b[hi] < x {
				lo, hi = hi, 2*hi
			}
			hi = min(hi, len(b))
			for lo++; lo < hi; {
				if mid := int(uint(lo+hi) >> 1); b[mid] < x {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			b = b[lo:]
		}
		if len(b) > 0 && b[0] == x {
			dst = append(dst, x)
			b = b[1:]
		}
	}
	return dst
}

// probeBuf is the reusable probe buffers: the parts of the entry being
// probed and, when there are several, their merge.
type probeBuf struct {
	parts  [][]graph.NodeID
	merged []graph.NodeID
}

// lookup returns tuple's entry under constraint ci in ascending order. A
// single part is returned as-is (shared, not copied); several are merged
// into buf.merged, so the result is valid until buf's next use.
func (rd *reader) lookup(ci int, tuple []graph.NodeID, buf *probeBuf) []graph.NodeID {
	buf.parts = rd.probe(ci, tuple, buf.parts[:0])
	switch len(buf.parts) {
	case 0:
		return nil
	case 1:
		return buf.parts[0]
	}
	buf.merged = mergeAscending(buf.merged[:0], buf.parts)
	return buf.merged
}

// mergeAscending appends to dst the ascending merge of parts — ascending,
// pairwise-disjoint node-ID slices, reassembled into exactly the global
// entry they partition. It advances the part headers in place as it
// consumes them, so it needs no position array; the elements are never
// written.
func mergeAscending(dst []graph.NodeID, parts [][]graph.NodeID) []graph.NodeID {
	for {
		best, next := -1, -1 // the parts with the smallest and second-smallest heads
		for i, p := range parts {
			switch {
			case len(p) == 0:
			case best < 0 || p[0] < parts[best][0]:
				best, next = i, best
			case next < 0 || p[0] < parts[next][0]:
				next = i
			}
		}
		if best < 0 {
			return dst
		}
		// best's run below the next-smallest head goes in one piece.
		p, n := parts[best], len(parts[best])
		if next >= 0 {
			n = 1
			for n < len(p) && p[n] < parts[next][0] {
				n++
			}
		}
		dst = append(dst, p[:n]...)
		parts[best] = p[n:]
	}
}

// forEachTuple enumerates the cartesian product of the candidate sets of
// deps as an odometer, last dependency fastest, invoking fn with the
// scratch's reused tuple slice (one node per dep, in dep order); no deps
// make one empty tuple. fn returning false stops the enumeration.
func (s *ExecScratch) forEachTuple(cmat [][]graph.NodeID, deps []pattern.Node, fn func([]graph.NodeID) bool) {
	if len(deps) == 0 {
		fn(nil)
		return
	}
	if cap(s.tuple) < len(deps) {
		s.tuple = make([]graph.NodeID, len(deps))
	}
	tuple := s.tuple[:len(deps)]
	var odoBuf [8]int
	odo := odoBuf[:0]
	if len(deps) > len(odoBuf) {
		odo = make([]int, 0, len(deps))
	}
	for i, d := range deps {
		if len(cmat[d]) == 0 {
			return
		}
		odo = append(odo, 0)
		tuple[i] = cmat[d][0]
	}
	for fn(tuple) {
		i := len(deps) - 1
		for ; i >= 0; i-- {
			if odo[i]++; odo[i] < len(cmat[deps[i]]) {
				break
			}
			odo[i] = 0
			tuple[i] = cmat[deps[i]][0]
		}
		if i < 0 {
			return
		}
		tuple[i] = cmat[deps[i]][odo[i]]
	}
}
