package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"boundedg/internal/access"
	"boundedg/internal/graph"
	"boundedg/internal/match"
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

// BoundedGraph is what a plan fetched: the per-pattern-node candidate sets
// (in GQ's node IDs), the mapping back to the original graph's IDs, and
// what the edge checks verified, as a candidate space. ExecWith also
// materializes the space as the subgraph GQ.
type BoundedGraph struct {
	// G is the fetched subgraph GQ (fresh node IDs); nil from Fetch.
	G *graph.Graph
	// Space is the candidate space over GQ's node IDs: Cands, and for
	// every pattern edge the verified runs between its endpoints'
	// candidates. GQ's edges are exactly the union of its runs.
	Space *match.Space
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
	// execution at a time; without one, Fetch borrows from a pool.
	Scratch *ExecScratch
	// Ctx, when non-nil, is polled at every plan operation and every
	// cancelStride enumerated tuples inside the fetch and
	// edge-verification loops. Once it is cancelled, Fetch abandons
	// the evaluation, restores its scratch buffers, and returns the
	// context's error — so a dropped connection or an expired deadline
	// stops the work instead of letting it run to completion.
	Ctx context.Context
	// Shards, when non-empty, evaluates the plan scatter/gather over a
	// sharded store's pinned cut: every index probe looks up each
	// shard's row partition, whose ascending, disjoint parts together
	// are exactly the global entry. Edge verification consumes the parts
	// unmerged (the space's layout puts every run in candidate order
	// afterwards); the fetch phase, whose candidate order numbers GQ,
	// merges them into a reused scratch buffer. Value reads and
	// edge-direction checks route to the node's owner shard — the answer
	// is bit-identical to the unsharded run. The g and idx arguments of
	// Fetch and ExecWith and Frozen are ignored (g and idx may be nil);
	// ShardOf must be set to the router's node→shard map unless the cut
	// has a single shard.
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
// dense |V|-sized table mapping source node IDs to GQ IDs and the
// candidate space's staging buffers. All are restored to their empty
// state on every exit path of Fetch, so reuse is O(touched) instead of
// O(|V|) per query, and a warm scratch makes the space's build O(1)
// allocations whatever its size.
type ExecScratch struct {
	seen    *graph.DenseSet
	csets   []*graph.DenseSet
	remap   []int32           // source ID -> GQ ID + 1; 0 = unmapped
	cmat    [][]graph.NodeID  // cmat[u]: candidates of pattern node u
	cset    []*graph.DenseSet // cset[u]: cmat[u] as a set; nil until fetched
	fetched []bool            // fetched[u]: some op produced cmat[u]
	refetch []graph.NodeID    // an op's result for an already-fetched node
	tuple   []graph.NodeID    // the enumeration's reused tuple
	common  []graph.NodeID    // one probe part's intersection with a row
	probe   probeBuf          // the probe buffers

	// The candidate space's build (see Fetch and fillSpace).
	arrive   []graph.NodeID // every check's runs, as verified
	checkEnd []int32        // per check: the end of its runs in arrive
	cursor   []int32        // per GQ node: a transpose's write position
	order    []pattern.Node // an |S| >= 2 check's deps, fixed endpoint first
	perm     []int          // order's positions in the check's deps
	key      []graph.NodeID // the probe key rebuilt from a reordered tuple
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
// independent of |G|. It is ExecWith with no configuration.
func (p *Plan) Exec(g *graph.Graph, idx *access.IndexSet) (*BoundedGraph, *ExecStats, error) {
	return p.ExecWith(g, idx, nil)
}

// ExecWith is Fetch followed by GQ's materialization from the candidate
// space (see materialize): the returned BoundedGraph carries G as well as
// the space. It produces exactly the same BoundedGraph and stats whatever
// the configuration, over one graph or over a cut of any number of
// shards. The serving path does not build GQ; the matchers run on the
// space.
func (p *Plan) ExecWith(g *graph.Graph, idx *access.IndexSet, cfg *ExecConfig) (*BoundedGraph, *ExecStats, error) {
	bg, stats, err := p.Fetch(g, idx, cfg)
	if err != nil {
		return nil, nil, err
	}
	var one [1]ShardView
	rd := readerOf(g, idx, cfg, &one)
	bg.G = p.materialize(&rd, bg)
	return bg, stats, nil
}

// Fetch fetches the candidates and verifies the pattern edges through the
// indices, and returns them as a candidate space (BoundedGraph.Space)
// with Cands and ToOrig set and G nil. Its stats count GQEdges without
// building GQ. The matchers run on the space directly (match.VF2InSpace,
// match.GSimInSpace), which is how the runtime engine and
// EvalSubgraphWith / EvalSimWith evaluate.
func (p *Plan) Fetch(g *graph.Graph, idx *access.IndexSet, cfg *ExecConfig) (*BoundedGraph, *ExecStats, error) {
	var scratch *ExecScratch
	var ctx context.Context
	var fp *Footprint
	// All graph and index access below goes through rd, which reads every
	// input as a cut: an unsharded call is a 1-shard cut held here.
	var one [1]ShardView
	rd := readerOf(g, idx, cfg, &one)
	if cfg != nil {
		scratch, ctx, fp = cfg.Scratch, cfg.Ctx, cfg.Footprint
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
		// The op's constraint fixes op.U's label (its l is fQ(op.U)), so
		// every entry member carries it: the filter is the predicate
		// alone, and a node without one keeps every member.
		pred := p.Q.PredOf(op.U)
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
				if (pred.IsTrue() || pred.Eval(rd.valueOf(v))) && seen.Add(v) {
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

	// Number GQ's nodes: the union of candidate sets, in first-seen
	// order. Count the distinct nodes first so every array is allocated
	// at its final size; seen doubles as the dedup set and is drained
	// again during the numbering.
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
				seen.Remove(v) // drain: each distinct node exactly once
			}
			candIDs = append(candIDs, graph.NodeID(rv-1))
		}
		bg.Cands[ui] = candIDs[lo:len(candIDs):len(candIDs)]
	}
	stats.GQNodes = distinct
	// release restores the remap table and candidate sets on every exit
	// from edge verification. seen is empty on every such exit (it was
	// drained above, and each run's dedup drains it again), so it needs no
	// repair here.
	release := func() {
		for _, v := range bg.ToOrig {
			remap[v] = 0
		}
		releaseCsets()
	}

	// Edge verification through the covering constraints' indices, one
	// check per pattern edge, recorded as the candidate space: check ci
	// owns slot ci, and its loop writes, for each candidate vo of the
	// fixed endpoint ec.Other(), the run of verified target candidates as
	// they come (scratch.arrive, GQ IDs). Each entry's parts are walked in
	// place, unmerged. Within one tuple vo is fixed, so when every shard
	// carries a frozen snapshot the direction check is one intersection
	// per part with vo's sorted row on its owner, which holds vo's full
	// adjacency: Out(vo) when vo is the edge's source, In(vo) when it is
	// the target. Without one (a mutable row is unsorted) each candidate
	// is checked on its own.
	//
	// off receives each run's length at its row (see spaceRows); it
	// becomes the space's offsets.
	nc := len(p.EdgeChecks)
	off := make([]int32, 2*nc*(distinct+1))
	arrive := scratch.arrive[:0]
	if cap(scratch.checkEnd) < nc+1 {
		scratch.checkEnd = make([]int32, nc+1)
	}
	checkEnd := scratch.checkEnd[:nc+1] // check ci's runs are arrive[checkEnd[ci]:checkEnd[ci+1]]
	checkEnd[0] = 0
	rows := rd.frozen()
	for ci, ec := range p.EdgeChecks {
		if err := ctxErr(); err != nil {
			scratch.arrive = arrive
			release()
			return nil, nil, err
		}
		oi := slices.Index(ec.Deps, ec.Other()) // the other endpoint's position in a tuple
		if oi < 0 {
			scratch.arrive = arrive
			release()
			return nil, nil, fmt.Errorf("core: edge check for (%s, %s) misses its endpoint dependency", p.Q.Name(ec.From), p.Q.Name(ec.To))
		}
		// The runs go from ec.Other()'s candidates to ec.Target's: out-runs
		// of the edge when the target is its head, in-runs otherwise. The
		// loop records each run's length at its row's offset slot; the
		// prefix sums come after (fillSpace).
		counts := off[spaceRows(ci, ec, false, distinct):][:distinct+1]
		target := cset[ec.Target]
		out := ec.Target == ec.To
		// An |S| = 1 check probes once per vo, so each run is complete
		// when written. With |S| >= 2 a vo recurs in several tuples: the
		// enumeration puts vo slowest, so its tuples are consecutive, and
		// seen dedups the union of their runs.
		deps, key := scratch.otherFirst(ec.Deps, oi)
		multi := len(deps) > 1
		cur, curID, runLo := graph.InvalidNode, 0, 0
		endRun := func() {
			if cur == graph.InvalidNode {
				return
			}
			counts[curID+1] = int32(len(arrive) - runLo)
			if multi {
				for _, w := range arrive[runLo:] {
					seen.Remove(bg.ToOrig[w])
				}
			}
			cur = graph.InvalidNode
		}
		chk := strideChecker{ctx: ctx}
		scratch.forEachTuple(cmat, deps, func(tuple []graph.NodeID) bool {
			if chk.cancelled() {
				return false
			}
			if vo := tuple[0]; vo != cur {
				endRun()
				cur, curID, runLo = vo, int(remap[vo]-1), len(arrive)
			}
			if multi {
				for i, j := range scratch.perm {
					key[j] = tuple[i]
				}
			} else {
				key = tuple
			}
			parts := rd.probe(ec.CIdx, key, scratch.probe.parts[:0])
			scratch.probe.parts = parts
			stats.IndexLookups++
			vo := cur
			if rows {
				var row []graph.NodeID
				if fz := rd.home(vo).Fz; out {
					row = fz.Out(vo)
				} else {
					row = fz.In(vo)
				}
				for _, cands := range parts {
					stats.EdgesAccessed += len(cands)
					common := appendCommon(scratch.common[:0], cands, row)
					scratch.common = common
					for _, vt := range common {
						if target.Has(vt) && (!multi || seen.Add(vt)) {
							arrive = append(arrive, graph.NodeID(remap[vt]-1))
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
					if out {
						vf, vtto = vo, vt
					}
					// The index certifies neighborship; confirm direction
					// on the fetched pair.
					if rd.home(vf).G.HasEdge(vf, vtto) && (!multi || seen.Add(vt)) {
						arrive = append(arrive, graph.NodeID(remap[vt]-1))
					}
				}
			}
			return true
		})
		endRun()
		checkEnd[ci+1] = int32(len(arrive))
		if err := ctxErr(); err != nil {
			scratch.arrive = arrive
			release()
			return nil, nil, err
		}
	}
	scratch.arrive = arrive
	// The space's runs: each check's runs as they arrived, and their
	// transpose (see fillSpace). The array is never empty, so the
	// allocation count does not depend on whether GQ has edges.
	sp := &match.Space{N: distinct, Cands: bg.Cands, Edges: make([][2]pattern.Node, nc), Off: off}
	for ci, ec := range p.EdgeChecks {
		sp.Edges[ci] = [2]pattern.Node{ec.From, ec.To}
	}
	sp.Adj = make([]graph.NodeID, 2*len(arrive), 2*len(arrive)+1)
	scratch.fillSpace(p, sp, checkEnd)
	bg.Space = sp
	stats.GQEdges = len(arrive) - scratch.sharedEdges(p, sp)
	release()
	return bg, stats, nil
}

// spaceRows returns the offset in Space.Off of check ci's rows over n
// nodes: those of ec.Other()'s candidates when back is false (its runs as
// the check verifies them), those of ec.Target's when back is true.
func spaceRows(ci int, ec EdgeCheck, back bool, n int) int {
	d := 2 * ci // the out-rows: ec.From's candidates
	if (ec.Target == ec.From) != back {
		d++
	}
	return d * (n + 1)
}

// otherFirst returns deps reordered so that the one at position oi comes
// first, and a buffer for the probe key. When there are several deps, the
// key is rebuilt in deps' order from each enumerated tuple through
// s.perm (key[s.perm[i]] = tuple[i]); a single dep is its own key.
func (s *ExecScratch) otherFirst(deps []pattern.Node, oi int) ([]pattern.Node, []graph.NodeID) {
	if len(deps) == 1 {
		return deps, nil
	}
	s.order = append(s.order[:0], deps[oi])
	s.perm = append(s.perm[:0], oi)
	for i, d := range deps {
		if i != oi {
			s.order = append(s.order, d)
			s.perm = append(s.perm, i)
		}
	}
	if cap(s.key) < len(deps) {
		s.key = make([]graph.NodeID, len(deps))
	}
	return s.order, s.key[:len(deps)]
}

// fillSpace lays each check's runs out as the two CSRs of its slot, with
// counting passes and no sort. On entry sp.Off holds, at the rows of each
// check's fixed endpoint, each run's length, and s.arrive the runs in the
// order of that endpoint's candidates (the verification loop's order). On
// return both row sets hold absolute offsets into sp.Adj — per check, the
// verified direction's runs and then their transpose. The transpose is
// filled walking the fixed endpoint's candidates in order, and the
// verified direction is then refilled from it walking the target's
// candidates in order, so every run lists its nodes in the order of their
// pattern node's candidates: the space does not depend on how a cut split
// the index entries it was verified from.
func (s *ExecScratch) fillSpace(p *Plan, sp *match.Space, checkEnd []int32) {
	nn := sp.N
	if cap(s.cursor) < nn {
		s.cursor = make([]int32, nn)
	}
	cursor := s.cursor[:nn]
	for ci, ec := range p.EdgeChecks {
		fwd := sp.Off[spaceRows(ci, ec, false, nn):][:nn+1]
		back := sp.Off[spaceRows(ci, ec, true, nn):][:nn+1]
		runs := s.arrive[checkEnd[ci]:checkEnd[ci+1]]
		for _, w := range runs {
			back[w+1]++
		}
		fwd[0] = 2 * checkEnd[ci]
		back[0] = fwd[0] + int32(len(runs))
		for v := 0; v < nn; v++ {
			fwd[v+1] += fwd[v]
			back[v+1] += back[v]
		}
		copy(cursor, back[:nn])
		for _, a := range sp.Cands[ec.Other()] {
			run := runs[:fwd[a+1]-fwd[a]]
			runs = runs[len(run):]
			for _, w := range run {
				sp.Adj[cursor[w]] = a
				cursor[w]++
			}
		}
		copy(cursor, fwd[:nn])
		for _, w := range sp.Cands[ec.Target] {
			for _, a := range sp.Adj[back[w]:back[w+1]] {
				sp.Adj[cursor[a]] = w
				cursor[a]++
			}
		}
	}
}

// sharedEdges counts the data edges that more than one check verified,
// once per extra check: GQ holds each edge once. Every candidate of a
// pattern node carries its label, so two checks can verify the same data
// edge only when their edges join the same pair of labels, in the same
// direction (a check dedups its own runs). For each group of such checks
// the members' out-runs are walked node by node; a stamp per target marks
// the edges the node already has.
func (s *ExecScratch) sharedEdges(p *Plan, sp *match.Space) int {
	q, nn := p.Q, sp.N
	pair := func(ec EdgeCheck) [2]graph.Label { return [2]graph.Label{q.LabelOf(ec.From), q.LabelOf(ec.To)} }
	shared := 0
	var buf [8][]int32
	for ci, ec := range p.EdgeChecks {
		if slices.ContainsFunc(p.EdgeChecks[:ci], func(ek EdgeCheck) bool { return pair(ek) == pair(ec) }) {
			continue // counted with the group's first check
		}
		group := buf[:0] // the members' out-row offsets
		for cj := ci; cj < len(p.EdgeChecks); cj++ {
			if pair(p.EdgeChecks[cj]) == pair(ec) {
				group = append(group, sp.Off[2*cj*(nn+1):][:nn+1])
			}
		}
		if len(group) < 2 {
			continue
		}
		stamp := s.cursor[:nn]
		clear(stamp)
		for v := int32(1); v <= int32(nn); v++ {
			for _, off := range group {
				for _, w := range sp.Adj[off[v-1]:off[v]] {
					if stamp[w] == v {
						shared++
					}
					stamp[w] = v
				}
			}
		}
	}
	return shared
}

// materialize builds GQ from bg's candidate space: node i is the source
// node bg.ToOrig[i], labeled with the label of the pattern nodes it is a
// candidate of (every candidate carries its pattern node's label) and
// valued from its owner shard, and its out-row is the sorted,
// deduplicated union of its out-runs over every slot (a data edge that
// two checks verified lies in both their runs).
func (p *Plan) materialize(rd *reader, bg *BoundedGraph) *graph.Graph {
	sp := bg.Space
	labels := make([]graph.Label, sp.N)
	for u, cands := range sp.Cands {
		l := p.Q.LabelOf(pattern.Node(u))
		for _, v := range cands {
			labels[v] = l
		}
	}
	values := make([]graph.Value, sp.N)
	for i, v := range bg.ToOrig {
		values[i] = rd.valueOf(v)
	}
	// Never empty, so the allocation count does not depend on whether GQ
	// has edges.
	keys := make([]uint64, 0, len(sp.Adj)/2+1)
	for v := range graph.NodeID(sp.N) {
		lo := len(keys)
		for e := range sp.Edges {
			for _, w := range sp.Run(e, 0, v) {
				keys = append(keys, graph.PackEdge(v, w))
			}
		}
		slices.Sort(keys[lo:])
		keys = keys[:lo+len(slices.Compact(keys[lo:]))]
	}
	return graph.FromSortedEdges(rd.shards[0].G.Interner(), labels, values, keys)
}

// reader is Fetch's access to the data: a cut of one or more shards, each
// holding a graph, an optional frozen snapshot and its row partition of
// the index set. An unsharded input is a 1-shard cut, so one type reads
// both.
type reader struct {
	shards  []ShardView
	shardOf func(graph.NodeID) int // unused on a 1-shard cut
}

// readerOf returns the cut a call reads: cfg's shards when it has any,
// else g, idx and cfg's Frozen as a 1-shard cut held in one.
func readerOf(g *graph.Graph, idx *access.IndexSet, cfg *ExecConfig, one *[1]ShardView) reader {
	one[0] = ShardView{G: g, Idx: idx}
	if cfg == nil {
		return reader{shards: one[:]}
	}
	if len(cfg.Shards) > 0 {
		return reader{shards: cfg.Shards, shardOf: cfg.ShardOf}
	}
	one[0].Fz = cfg.Frozen
	return reader{shards: one[:]}
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
