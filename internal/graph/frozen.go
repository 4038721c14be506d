package graph

import (
	"slices"
	"sync/atomic"
)

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
// base arrays. A bitset shared by the whole chain marks every base row any
// layer has patched; a lookup of an unmarked row reads the base arrays
// directly, so rows no write touched cost what they cost before the first
// write, and only marked rows (and rows inserted past the base) consult
// the chain newest-first. The chain is flattened when it grows deep and
// fully re-frozen when the patched fraction of the ID space gets large, so
// lookup overhead and amortized refresh cost both stay bounded.
type Frozen struct {
	// Base CSR arrays: the chain root's, shared by every layer above it,
	// so a row no layer patched is read from f's own fields.
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

	// dirty is the bitset of base rows that some layer descended from the
	// root has patched: shared by every layer, allocated by the first
	// Refresh from the root, nil on a root. Bits are only ever set, and
	// set before the layer that patches the row is returned, so a clear
	// bit proves that no layer of this snapshot's chain holds the row. A
	// bit set by a newer layer merely sends an older snapshot down its own
	// chain, which still answers correctly.
	dirty []atomic.Uint64

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
// maps before reaching the base arrays, and probe none for a row no layer
// patched.
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
// patch chain (O(log patched) re-copies per row), plus, on the first
// refresh from a freshly frozen root, one |V|/64-word allocation for the
// chain's patched-row bitset. When the cumulative patched rows exceed
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
		outStart: f.outStart,
		outAdj:   f.outAdj,
		inStart:  f.inStart,
		inAdj:    f.inAdj,
		parent:   f,
		patch:    make(map[NodeID]patchRow, len(rows)),
		dirty:    f.dirty,
		capN:     capN,
		numEdges: g.NumEdges(),
		depth:    f.depth + 1,
	}
	if f.parent == nil {
		nf.dirty = make([]atomic.Uint64, (len(f.outStart)-1+63)/64)
	}
	for _, v := range rows {
		if v < 0 || int(v) >= capN {
			continue
		}
		if _, dup := nf.patch[v]; dup {
			continue
		}
		nf.patch[v] = patchRow{out: sortedCopy(g.Out(v)), in: sortedCopy(g.In(v))}
		if w := int(v) >> 6; w < len(nf.dirty) {
			nf.dirty[w].Or(1 << (v & 63))
		}
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
// snapshot; do not mutate it. A row no layer patched is one slice of the
// base arrays, whatever the chain's depth; only a marked row walks the
// chain newest-first.
func (f *Frozen) Out(v NodeID) []NodeID {
	if f.parent != nil && f.marked(v) {
		for p := f; p.parent != nil; p = p.parent {
			if row, ok := p.patch[v]; ok {
				return row.out
			}
		}
	}
	if uint(v) >= uint(len(f.outStart)-1) {
		return nil // out of range, or inserted after the base was frozen and never patched
	}
	return f.outAdj[f.outStart[v]:f.outStart[v+1]]
}

// In returns the sorted in-neighbors of v, found as Out finds v's
// out-neighbors. The slice aliases the snapshot; do not mutate it.
func (f *Frozen) In(v NodeID) []NodeID {
	if f.parent != nil && f.marked(v) {
		for p := f; p.parent != nil; p = p.parent {
			if row, ok := p.patch[v]; ok {
				return row.in
			}
		}
	}
	if uint(v) >= uint(len(f.inStart)-1) {
		return nil
	}
	return f.inAdj[f.inStart[v]:f.inStart[v+1]]
}

// marked reports whether a layer of f's chain may hold row v: v's bit is
// set, or v lies past the bitset (inserted after the base, or out of
// range — a layer's map holds only IDs below its capN, so the walk then
// finds nothing and the base bound answers).
func (f *Frozen) marked(v NodeID) bool {
	w := uint(v) >> 6
	return w >= uint(len(f.dirty)) || f.dirty[w].Load()&(1<<(uint(v)&63)) != 0
}

// HasEdge reports whether the directed edge (from, to) exists, by binary
// search in from's sorted out-run. Out's base-row path is spelled out
// here, so a direction check on a row no layer patched makes no call.
func (f *Frozen) HasEdge(from, to NodeID) bool {
	var run []NodeID
	if f.parent != nil && f.marked(from) {
		run = f.Out(from)
	} else if uint(from) < uint(len(f.outStart)-1) {
		run = f.outAdj[f.outStart[from]:f.outStart[from+1]]
	}
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
