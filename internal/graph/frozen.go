package graph

import "slices"

// Frozen is a read-only CSR-style snapshot of a Graph: adjacency lives in
// two flat arrays (out- and in-edges) with per-node offsets, and each
// node's neighbor run is sorted so HasEdge is a binary search instead of a
// probe of the Graph's edges map. A Frozen is immutable and therefore safe
// for unlimited concurrent readers; mutations to the source Graph after
// Freeze are not reflected.
//
// Freeze costs O(|V| + |E| log d) and the snapshot holds 2|E| node IDs, so
// long-running read paths (the bounded-evaluation runtime, batch servers)
// freeze once and amortize across queries.
//
// Under live updates, Refresh derives the next snapshot from the previous
// one in time proportional to the rows that changed (|NbG(ΔG)|, not |G|):
// changed rows live in small per-epoch patch maps chained onto the shared
// base arrays, and lookups consult the chain newest-first. The chain is
// flattened when it grows deep and fully re-frozen when the patched
// fraction of the ID space gets large, so lookup overhead and amortized
// refresh cost both stay bounded.
type Frozen struct {
	// Base CSR arrays; populated only on the chain root.
	outStart []int32
	outAdj   []NodeID
	inStart  []int32
	inAdj    []NodeID

	// Patch layer; nil on a root built by Freeze. Rows present in a patch
	// override every older layer and the base (a nil run marks a row
	// emptied by deletion). Out- and in-runs share one map: a refreshed
	// row always patches both, so the key sets coincide and a lookup
	// walks half the probes two maps would cost.
	parent *Frozen
	patch  map[NodeID]patchRow

	capN     int // dense ID space of the snapshot (grows with inserts)
	numEdges int
	depth    int // chain length above the root
	patched  int // cumulative patched-row count across the chain
}

// patchRow is one patched row's adjacency: the out- and in-neighbor runs
// re-read (sorted) from the live graph at refresh time.
type patchRow struct {
	out, in []NodeID
}

// maxPatchDepth bounds the lookup chain: at this depth Refresh merges all
// patch layers into one, so Out/In never probe more than maxPatchDepth
// maps before reaching the base arrays.
const maxPatchDepth = 8

// refreezeMinRows is the patched-row floor below which Refresh never falls
// back to a full Freeze, keeping small graphs incremental too.
const refreezeMinRows = 1024

// Freeze builds a CSR snapshot of g's current adjacency.
func (g *Graph) Freeze() *Frozen {
	f := &Frozen{capN: g.Cap(), numEdges: g.NumEdges()}
	f.outStart, f.outAdj = buildCSR(g.out)
	f.inStart, f.inAdj = buildCSR(g.in)
	return f
}

func buildCSR(adj [][]NodeID) ([]int32, []NodeID) {
	start := make([]int32, len(adj)+1)
	total := 0
	for _, ns := range adj {
		total += len(ns)
	}
	flat := make([]NodeID, 0, total)
	for i, ns := range adj {
		start[i] = int32(len(flat))
		flat = append(flat, ns...)
		slices.Sort(flat[start[i]:])
	}
	start[len(adj)] = int32(len(flat))
	return start, flat
}

// FromSortedEdges builds the graph over nodes 0..len(labels)-1 — node v
// labeled labels[v] (never NoLabel) and valued values[v] — whose edge set
// is keys, PackEdge keys in strictly ascending order. It takes ownership
// of labels and values and returns the graph together with its Frozen
// snapshot. Both read the same CSR arrays, and every node-ID run — label
// rows, out-rows, in-rows — is carved from one backing array, so the
// build costs the same few allocations whatever |E| is. The graph's rows
// stay sorted and it carries no edge map until its first AddEdge or
// RemoveEdge (see thaw); the snapshot never changes.
func FromSortedEdges(in *Interner, labels []Label, values []Value, keys []uint64) (*Graph, *Frozen) {
	if in == nil {
		in = NewInterner()
	}
	n, m := len(labels), len(keys)
	ids := make([]NodeID, n+2*m)
	starts := make([]int32, 2*n+3)
	rows := make([][]NodeID, 2*n)
	g := &Graph{
		interner: in,
		labels:   labels,
		values:   values,
		out:      rows[:n:n],
		in:       rows[n:],
		byLabel:  labelRows(labels, ids[:n:n]),
		numNodes: n,
		numEdges: m,
	}
	f := &Frozen{
		outStart: starts[: n+1 : n+1],
		outAdj:   ids[n : n+m : n+m],
		inStart:  starts[n+1:],
		inAdj:    ids[n+m:],
		capN:     n,
		numEdges: m,
	}
	// keys ascend by (from, to): outAdj is their targets in order. The
	// in-rows are a counting sort on the target (inStart has one spare
	// slot for it); visiting keys in order keeps each in-row ascending by
	// source.
	for i, k := range keys {
		from, to := UnpackEdge(k)
		f.outAdj[i] = to
		f.outStart[from+1]++
		f.inStart[to+2]++
	}
	for v := 0; v < n; v++ {
		f.outStart[v+1] += f.outStart[v]
		f.inStart[v+2] += f.inStart[v+1]
	}
	for _, k := range keys {
		from, to := UnpackEdge(k)
		f.inAdj[f.inStart[to+1]] = from
		f.inStart[to+1]++
	}
	f.inStart = f.inStart[:n+1]
	for v := 0; v < n; v++ {
		lo, hi := f.outStart[v], f.outStart[v+1]
		g.out[v] = f.outAdj[lo:hi:hi]
		lo, hi = f.inStart[v], f.inStart[v+1]
		g.in[v] = f.inAdj[lo:hi:hi]
	}
	return g, f
}

// labelRows builds the byLabel table of nodes 0..len(labels)-1, carving
// every row, capacity-capped, out of backing (len(labels) long).
func labelRows(labels []Label, backing []NodeID) map[Label][]NodeID {
	var maxL Label
	for _, l := range labels {
		maxL = max(maxL, l)
	}
	count := make([]int, maxL+1)
	distinct := 0
	for _, l := range labels {
		if count[l] == 0 {
			distinct++
		}
		count[l]++
	}
	rows := make(map[Label][]NodeID, distinct)
	off := 0
	for l, c := range count {
		if c > 0 {
			rows[Label(l)] = backing[off : off : off+c]
			off += c
		}
	}
	for v, l := range labels {
		rows[l] = append(rows[l], NodeID(v))
	}
	return rows
}

// Refresh returns a snapshot of g sharing everything with f except the
// given rows, whose adjacency is re-read from g (sorted). rows must cover
// every node whose neighborhood changed since f was taken — for a
// graph.Delta that is ΔG ∪ NbG(ΔG): endpoints of inserted/deleted edges,
// inserted and deleted nodes, and neighbors of deleted nodes. Duplicate
// and negative entries are ignored.
//
// Cost is O(Σ degree(rows)) plus amortized LSM-style compaction of the
// patch chain (O(log patched) re-copies per row). When the cumulative patched rows exceed
// a quarter of the ID space the refresh amortizes into a full Freeze —
// by then Ω(|V|/4) row-work has been paid in, so the O(|G|) rebuild stays
// proportional to the update work that provoked it. f is not modified;
// snapshots already handed out keep their view.
func (f *Frozen) Refresh(g *Graph, rows []NodeID) *Frozen {
	capN := g.Cap()
	if f.patched+len(rows) > refreezeMinRows && (f.patched+len(rows))*4 > capN {
		return g.Freeze()
	}
	nf := &Frozen{
		parent:   f,
		patch:    make(map[NodeID]patchRow, len(rows)),
		capN:     capN,
		numEdges: g.NumEdges(),
		depth:    f.depth + 1,
	}
	for _, v := range rows {
		if v < 0 || int(v) >= capN {
			continue
		}
		if _, dup := nf.patch[v]; dup {
			continue
		}
		nf.patch[v] = patchRow{out: sortedCopy(g.Out(v)), in: sortedCopy(g.In(v))}
	}
	nf.patched = f.patched + len(nf.patch)
	if nf.depth >= maxPatchDepth {
		nf.flatten()
	}
	return nf
}

// flatten compacts the patch chain into nf, LSM-style: walking newest to
// oldest, a layer joins the merge while it holds no more than twice the
// rows merged so far (so a row settled in a big layer is re-copied only
// once comparably many newer rows have accumulated — O(log patched)
// copies per row over its lifetime, where merging the whole chain every
// flatten re-copied every live row each time), except that layers deeper
// than half the depth budget merge unconditionally, keeping the probe
// chain short. Newer layers win on overlap.
func (nf *Frozen) flatten() {
	p := nf.parent
	for p.parent != nil && (len(p.patch) <= 2*len(nf.patch) || p.depth > maxPatchDepth/2) {
		for v, row := range p.patch {
			if _, ok := nf.patch[v]; !ok {
				nf.patch[v] = row
			}
		}
		p = p.parent
	}
	nf.parent = p
	if p.parent == nil {
		nf.depth, nf.patched = 1, len(nf.patch)
	} else {
		// patched sums layer sizes, over-counting rows patched in two
		// layers — conservative: it only brings the full re-freeze
		// forward, never past it.
		nf.depth, nf.patched = p.depth+1, p.patched+len(nf.patch)
	}
}

func sortedCopy(run []NodeID) []NodeID {
	if len(run) == 0 {
		return nil
	}
	out := append([]NodeID(nil), run...)
	slices.Sort(out)
	return out
}

// Cap returns the size of the snapshot's dense ID space.
func (f *Frozen) Cap() int { return f.capN }

// Out returns the sorted out-neighbors of v. The slice aliases the
// snapshot; do not mutate it.
func (f *Frozen) Out(v NodeID) []NodeID {
	if v < 0 || int(v) >= f.capN {
		return nil
	}
	p := f
	for p.parent != nil {
		if row, ok := p.patch[v]; ok {
			return row.out
		}
		p = p.parent
	}
	if int(v) >= len(p.outStart)-1 {
		return nil // inserted after the base was frozen, never patched
	}
	return p.outAdj[p.outStart[v]:p.outStart[v+1]]
}

// In returns the sorted in-neighbors of v. The slice aliases the snapshot;
// do not mutate it.
func (f *Frozen) In(v NodeID) []NodeID {
	if v < 0 || int(v) >= f.capN {
		return nil
	}
	p := f
	for p.parent != nil {
		if row, ok := p.patch[v]; ok {
			return row.in
		}
		p = p.parent
	}
	if int(v) >= len(p.inStart)-1 {
		return nil
	}
	return p.inAdj[p.inStart[v]:p.inStart[v+1]]
}

// HasEdge reports whether the directed edge (from, to) exists, by binary
// search in from's sorted out-run.
func (f *Frozen) HasEdge(from, to NodeID) bool {
	run := f.Out(from)
	lo, hi := 0, len(run)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if run[mid] < to {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(run) && run[lo] == to
}

// OutDegree returns the number of out-edges of v.
func (f *Frozen) OutDegree(v NodeID) int { return len(f.Out(v)) }

// InDegree returns the number of in-edges of v.
func (f *Frozen) InDegree(v NodeID) int { return len(f.In(v)) }

// NumEdges returns |E| of the snapshot.
func (f *Frozen) NumEdges() int { return f.numEdges }

// Depth returns the patch-chain length above the base CSR (0 for a fresh
// Freeze); it is exposed for tests and stats.
func (f *Frozen) Depth() int { return f.depth }
