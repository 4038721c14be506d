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
// reproduces the serial defaults.
type ExecConfig struct {
	// Workers > 1 shards tuple enumeration in the fetch and
	// edge-verification phases across that many goroutines. Results are
	// merged in enumeration order, so execution stays deterministic and
	// bit-identical to the serial run.
	Workers int
	// Frozen, when non-nil, must be a snapshot of the graph being
	// queried; edge-direction checks then binary-search its sorted
	// adjacency instead of probing the graph's edge map. Long-lived
	// callers (the runtime engine) freeze once and amortize across
	// queries.
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
	// unsharded run. The g and idx arguments of ExecWith are ignored
	// (and may be nil); ShardOf must be set to the router's node→shard
	// map.
	Shards  []ShardView
	ShardOf func(graph.NodeID) int
	// Footprint, when non-nil, records the execution's read set — the
	// rows each plan op resolved to and the type-1 labels it consulted
	// (see Footprint for why that set determines the answer). Recording
	// happens only on the calling goroutine, after each op's parallel
	// phase has merged, so a shared ExecConfig prototype stays safe as
	// long as the footprint itself serves one execution at a time.
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
	tuple   []graph.NodeID    // the serial enumeration's tuple
	keys    []uint64          // verified GQ edges, PackEdge(from, to)
	keyRows []uint64          // keys bucketed by source, for sortEdgeKeys
	rowEnd  []int32           // per-source bucket bounds, for sortEdgeKeys
	probe   probeBuf          // the calling goroutine's probe buffers
	outs    []shardOut        // per-shard outputs of the parallel branch
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

// minParallelTuples is the fetch/verification work (index probes or
// filtered candidates) below which sharding is not worth the goroutine
// handoff.
const minParallelTuples = 64

// cancelStride is how many enumerated tuples pass between context polls
// in the fetch and edge-verification loops: coarse enough that polling is
// free, fine enough that cancellation lands within microseconds.
const cancelStride = 256

// strideChecker polls a context once every cancelStride calls. The zero
// ctx means "never cancelled". Each goroutine owns its own checker.
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
// (plus O(1) direction checks on already-fetched edge candidates), so the
// work is determined by Q and A, independent of |G|.
func (p *Plan) Exec(g *graph.Graph, idx *access.IndexSet) (*BoundedGraph, *ExecStats, error) {
	return p.ExecWith(g, idx, nil)
}

// ExecWith is Exec with an execution configuration; see ExecConfig. It
// produces exactly the same BoundedGraph and stats as Exec for any worker
// count.
func (p *Plan) ExecWith(g *graph.Graph, idx *access.IndexSet, cfg *ExecConfig) (*BoundedGraph, *ExecStats, error) {
	workers := 1
	var fz *graph.Frozen
	var scratch *ExecScratch
	var ctx context.Context
	var shards []ShardView
	var shardOf func(graph.NodeID) int
	var fp *Footprint
	if cfg != nil {
		if cfg.Workers > 1 {
			workers = cfg.Workers
		}
		fz = cfg.Frozen
		scratch = cfg.Scratch
		ctx = cfg.Ctx
		fp = cfg.Footprint
		if len(cfg.Shards) > 0 {
			shards = cfg.Shards
			shardOf = cfg.ShardOf
		}
	}
	if len(shards) == 1 {
		// A single shard holds the entire graph and the whole index set,
		// so the scatter/gather accessors would add only closure
		// indirection and per-probe part collection. Collapse to the
		// unsharded path — trivially bit-identical.
		g, idx, fz = shards[0].G, shards[0].Idx, shards[0].Fz
		shards, shardOf = nil, nil
	}
	if shards == nil {
		if idx == nil || idx.Schema() != p.A {
			return nil, nil, ErrSchemaMismatch
		}
	} else {
		for i := range shards {
			if shards[i].Idx == nil || shards[i].Idx.Schema() != p.A {
				return nil, nil, ErrSchemaMismatch
			}
		}
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

	// All graph and index access below goes through these accessors, so
	// the serial and scattered paths share one evaluation loop. A scatter
	// probe counts as ONE index lookup accessing the sum of its parts —
	// the row partition sums back to the global entry, so the stats are
	// bit-identical to the unsharded run.
	var (
		rd       reader
		interner *graph.Interner
		idCap    int
	)
	if shards == nil {
		rd.probe = func(ci int, tuple []graph.NodeID, dst [][]graph.NodeID) [][]graph.NodeID {
			if r := idx.Index(ci).Lookup(tuple); len(r) > 0 {
				dst = append(dst, r)
			}
			return dst
		}
		rd.matches = func(u pattern.Node, v graph.NodeID) bool { return p.Q.MatchesNode(u, g, v) }
		rd.labelOf = g.LabelOf
		rd.valueOf = g.ValueOf
		rd.hasEdge = g.HasEdge
		if fz != nil {
			rd.hasEdge = fz.HasEdge
		}
		interner = g.Interner()
		idCap = g.Cap()
	} else {
		home := func(v graph.NodeID) *ShardView { return &shards[shardOf(v)] }
		rd.probe = func(ci int, tuple []graph.NodeID, dst [][]graph.NodeID) [][]graph.NodeID {
			for i := range shards {
				if r := shards[i].Idx.Index(ci).Lookup(tuple); len(r) > 0 {
					dst = append(dst, r)
				}
			}
			return dst
		}
		rd.matches = func(u pattern.Node, v graph.NodeID) bool { return p.Q.MatchesNode(u, home(v).G, v) }
		rd.labelOf = func(v graph.NodeID) graph.Label { return home(v).G.LabelOf(v) }
		rd.valueOf = func(v graph.NodeID) graph.Value { return home(v).G.ValueOf(v) }
		rd.hasEdge = func(from, to graph.NodeID) bool {
			sv := home(from)
			if sv.Fz != nil {
				return sv.Fz.HasEdge(from, to)
			}
			return sv.G.HasEdge(from, to)
		}
		interner = shards[0].G.Interner()
		for i := range shards {
			if c := shards[i].G.Cap(); c > idCap {
				idCap = c
			}
		}
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

	// cancelFetch abandons the evaluation mid-fetch-op: partial additions
	// to seen are restored (they mirror result at every cancellation
	// point), the candidate sets are released, and the context's sticky
	// error is returned.
	cancelFetch := func(result []graph.NodeID) error {
		seen.ResetSparse(result)
		releaseCsets()
		return ctxErr()
	}

	for _, op := range p.Ops {
		if err := ctxErr(); err != nil {
			releaseCsets()
			return nil, nil, err
		}
		// A first fetch of op.U collects straight into its scratch list; a
		// re-fetch collects aside and is intersected into it below.
		result := cmat[op.U][:0]
		if fetched[op.U] {
			result = scratch.refetch[:0]
		}
		if op.Deps == nil {
			vs := rd.lookup(op.CIdx, nil, &scratch.probe)
			stats.IndexLookups++
			stats.NodesAccessed += len(vs)
			chk := strideChecker{ctx: ctx}
			for _, v := range vs {
				if chk.cancelled() {
					return nil, nil, cancelFetch(result)
				}
				if rd.matches(op.U, v) && seen.Add(v) {
					result = append(result, v)
				}
			}
		} else {
			// Every dependency must have been fetched by an earlier op.
			for _, d := range op.Deps {
				if !fetched[d] {
					releaseCsets()
					return nil, nil, fmt.Errorf("core: plan op for %s depends on unfetched node %s", p.Q.Name(op.U), p.Q.Name(d))
				}
			}
			// Union of lookups over the product of dependency candidates,
			// sharded on the first dependency's candidates when large. One
			// tuple body serves both branches: serial dedups straight into
			// result, shards buffer and the in-order merge dedups.
			if nt := numTuples(cmat, op.Deps); workers > 1 && nt >= minParallelTuples {
				outs := scratch.shardTuples(ctx, cmat, op.Deps, workers, func(tuple []graph.NodeID, out *shardOut) {
					rd.fetchTuple(op, tuple, nil, out)
				})
				// Check before merging: cancelled shards stopped early, so
				// their outputs are partial and must be discarded whole.
				if err := ctxErr(); err != nil {
					releaseCsets()
					return nil, nil, err
				}
				for _, o := range outs {
					stats.IndexLookups += o.lookups
					stats.NodesAccessed += o.accessed
					for _, v := range o.nodes {
						if seen.Add(v) {
							result = append(result, v)
						}
					}
				}
			} else {
				out := shardOut{nodes: result, probeBuf: scratch.probe}
				chk := strideChecker{ctx: ctx}
				scratch.forEachTuple(cmat, op.Deps, func(tuple []graph.NodeID) bool {
					if chk.cancelled() {
						return false
					}
					rd.fetchTuple(op, tuple, seen, &out)
					return true
				})
				result, scratch.probe = out.nodes, out.probeBuf
				if err := ctxErr(); err != nil {
					return nil, nil, cancelFetch(result)
				}
				stats.IndexLookups += out.lookups
				stats.NodesAccessed += out.accessed
			}
		}
		seen.ResetSparse(result)
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
	releaseRemap := func() {
		for _, v := range bg.ToOrig {
			remap[v] = 0
		}
	}
	// cancelVerify abandons the evaluation during edge verification: the
	// verified edges are discarded, the remap table and candidate sets are
	// restored, and the context's sticky error is returned. seen is empty
	// throughout this phase (it was drained building GQ), so it needs no
	// repair here.
	cancelVerify := func() error {
		releaseRemap()
		releaseCsets()
		return ctxErr()
	}

	// Edge verification through the covering constraints' indices. Every
	// verified edge appends its packed GQ key; sorting and compacting the
	// keys afterwards yields GQ's edge set in CSR order.
	keys := scratch.keys[:0]
	for _, ec := range p.EdgeChecks {
		if err := ctxErr(); err != nil {
			return nil, nil, cancelVerify()
		}
		oi := -1
		for i, d := range ec.Deps {
			if d == ec.Other() {
				oi = i
				break
			}
		}
		if oi < 0 {
			releaseRemap()
			releaseCsets()
			return nil, nil, fmt.Errorf("core: edge check for (%s, %s) misses its endpoint dependency", p.Q.Name(ec.From), p.Q.Name(ec.To))
		}
		vc := verifyCheck{ec: ec, oi: oi, target: cset[ec.Target], remap: remap}
		// One tuple body serves both branches: serial appends to keys
		// directly, shards to their own buffers, concatenated afterwards.
		if nt := numTuples(cmat, ec.Deps); workers > 1 && nt >= minParallelTuples {
			shared := vc // the shards' own copy; vc stays on the stack
			outs := scratch.shardTuples(ctx, cmat, ec.Deps, workers, func(tuple []graph.NodeID, out *shardOut) {
				rd.verifyTuple(&shared, tuple, out)
			})
			if err := ctxErr(); err != nil {
				return nil, nil, cancelVerify()
			}
			for i := range outs {
				o := &outs[i]
				stats.IndexLookups += o.lookups
				stats.EdgesAccessed += o.accessed
				keys = append(keys, o.edges...)
			}
		} else {
			out := shardOut{edges: keys, probeBuf: scratch.probe}
			chk := strideChecker{ctx: ctx}
			scratch.forEachTuple(cmat, ec.Deps, func(tuple []graph.NodeID) bool {
				if chk.cancelled() {
					return false
				}
				rd.verifyTuple(&vc, tuple, &out)
				return true
			})
			keys, scratch.probe = out.edges, out.probeBuf
			if err := ctxErr(); err != nil {
				return nil, nil, cancelVerify()
			}
			stats.IndexLookups += out.lookups
			stats.EdgesAccessed += out.accessed
		}
	}
	keys = scratch.sortEdgeKeys(keys, distinct)
	scratch.keys = keys
	bg.G, bg.Fz = graph.FromSortedEdges(interner, labels, values, keys)
	stats.GQEdges = len(keys)
	releaseRemap()
	releaseCsets()
	return bg, stats, nil
}

// reader is ExecWith's access to the data. All graph and index reads go
// through it, so the serial and scattered paths share one evaluation loop.
// probe appends to dst the non-empty parts of tuple's entry under
// constraint ci: the entry itself unsharded, else each shard's row
// partition of it. The parts are ascending and pairwise disjoint, and
// together they are exactly the global entry.
type reader struct {
	probe   func(ci int, tuple []graph.NodeID, dst [][]graph.NodeID) [][]graph.NodeID
	matches func(u pattern.Node, v graph.NodeID) bool
	labelOf func(v graph.NodeID) graph.Label
	valueOf func(v graph.NodeID) graph.Value
	hasEdge func(from, to graph.NodeID) bool
}

// probeBuf is one goroutine's reusable probe buffers: the parts of the
// entry being probed and, when there are several, their merge.
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

// fetchTuple is one fetch-phase probe: the members of tuple's entry under
// op's constraint that match op's pattern node are appended to out.nodes —
// all of them, or, with seen non-nil, the ones seen admits. The entry is
// walked in ascending order, which fixes the candidates' order and so
// GQ's numbering.
func (rd *reader) fetchTuple(op FetchOp, tuple []graph.NodeID, seen *graph.DenseSet, out *shardOut) {
	vs := rd.lookup(op.CIdx, tuple, &out.probeBuf)
	out.lookups++
	out.accessed += len(vs)
	for _, v := range vs {
		if rd.matches(op.U, v) && (seen == nil || seen.Add(v)) {
			out.nodes = append(out.nodes, v)
		}
	}
}

// verifyCheck is one edge check's state during verification: oi is the
// position of the check's other endpoint in its dependency tuple, target
// the candidate set of its target endpoint, remap the source-to-GQ ID
// table.
type verifyCheck struct {
	ec     EdgeCheck
	oi     int
	target *graph.DenseSet
	remap  []int32
}

// verifyTuple is one verification-phase probe: every member of tuple's
// entry that is a target candidate and, with the tuple's other endpoint,
// forms a real edge in the check's direction has that edge's packed GQ
// key appended to out.edges. The keys are sorted and compacted after
// verification, so the entry's parts are walked in place, unmerged.
func (rd *reader) verifyTuple(vc *verifyCheck, tuple []graph.NodeID, out *shardOut) {
	out.parts = rd.probe(vc.ec.CIdx, tuple, out.parts[:0])
	out.lookups++
	vo := tuple[vc.oi]
	for _, cands := range out.parts {
		out.accessed += len(cands)
		for _, vt := range cands {
			if !vc.target.Has(vt) {
				continue
			}
			vf, vtto := vt, vo
			if vc.ec.Target == vc.ec.To {
				vf, vtto = vo, vt
			}
			// The index certifies neighborship; confirm direction on the
			// fetched pair (an O(1) check).
			if rd.hasEdge(vf, vtto) {
				out.edges = append(out.edges, graph.PackEdge(graph.NodeID(vc.remap[vf]-1), graph.NodeID(vc.remap[vtto]-1)))
			}
		}
	}
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

// numTuples returns the size of the cartesian product of the candidate
// sets of deps (capped to avoid overflow).
func numTuples(cmat [][]graph.NodeID, deps []pattern.Node) int {
	t := 1
	for _, d := range deps {
		t *= len(cmat[d])
		if t == 0 || t > 1<<30 {
			return t
		}
	}
	return t
}

// shardOut is one shard's contribution to a fetch or verification phase,
// in enumeration order, plus the probe buffers of the goroutine filling
// it. edges holds packed GQ edge keys.
type shardOut struct {
	nodes             []graph.NodeID
	edges             []uint64
	lookups, accessed int
	probeBuf
}

// shardTuples splits the cartesian product of deps' candidate sets into
// contiguous chunks of the first dependency's candidates, runs process on
// up to workers goroutines, and returns the per-chunk outputs in
// enumeration order — so concatenating them reproduces the serial order
// exactly. The outputs reuse the scratch's buffers and are valid until the
// next call. A non-nil ctx is polled inside every shard; cancelled shards
// stop early, leaving partial outputs the caller must discard (check the
// context after shardTuples returns).
func (s *ExecScratch) shardTuples(ctx context.Context, cmat [][]graph.NodeID, deps []pattern.Node, workers int, process func([]graph.NodeID, *shardOut)) []shardOut {
	first := cmat[deps[0]]
	nchunks := min(workers, len(first))
	for len(s.outs) < nchunks {
		s.outs = append(s.outs, shardOut{})
	}
	outs := s.outs[:nchunks]
	var wg sync.WaitGroup
	for c := 0; c < nchunks; c++ {
		lo, hi := c*len(first)/nchunks, (c+1)*len(first)/nchunks
		wg.Add(1)
		go func(c, lo, hi int) {
			defer wg.Done()
			// Accumulate locally; one store at the end keeps shards off
			// each other's cache lines.
			local := shardOut{nodes: outs[c].nodes[:0], edges: outs[c].edges[:0], probeBuf: outs[c].probeBuf}
			chk := strideChecker{ctx: ctx}
			forEachTupleRange(cmat, deps, lo, hi, make([]graph.NodeID, len(deps)), func(tuple []graph.NodeID) bool {
				if chk.cancelled() {
					return false
				}
				process(tuple, &local)
				return true
			})
			outs[c] = local
		}(c, lo, hi)
	}
	wg.Wait()
	return outs
}

// forEachTuple enumerates the cartesian product of the candidate sets of
// deps, invoking fn with the scratch's reused tuple slice (one node per
// dep, in dep order). fn returning false stops the enumeration.
func (s *ExecScratch) forEachTuple(cmat [][]graph.NodeID, deps []pattern.Node, fn func([]graph.NodeID) bool) {
	if len(deps) == 0 {
		fn(nil)
		return
	}
	if cap(s.tuple) < len(deps) {
		s.tuple = make([]graph.NodeID, len(deps))
	}
	forEachTupleRange(cmat, deps, 0, len(cmat[deps[0]]), s.tuple[:len(deps)], fn)
}

// forEachTupleRange is forEachTuple with the first dependency's candidates
// restricted to the index range [lo, hi), filling the caller's tuple
// buffer (len(deps) long). It walks the product as an odometer, last
// dependency fastest.
func forEachTupleRange(cmat [][]graph.NodeID, deps []pattern.Node, lo, hi int, tuple []graph.NodeID, fn func([]graph.NodeID) bool) {
	if lo >= hi {
		return
	}
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
	odo[0], tuple[0] = lo, cmat[deps[0]][lo]
	for fn(tuple) {
		i := len(deps) - 1
		for ; i > 0; i-- {
			if odo[i]++; odo[i] < len(cmat[deps[i]]) {
				break
			}
			odo[i] = 0
			tuple[i] = cmat[deps[i]][0]
		}
		if i == 0 {
			if odo[0]++; odo[0] >= hi {
				return
			}
		}
		tuple[i] = cmat[deps[i]][odo[i]]
	}
}
