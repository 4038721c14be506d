package graph

// FromSortedEdges builds the graph over nodes 0..len(labels)-1 — node v
// labeled labels[v] (never NoLabel) and valued values[v] — whose edge set
// is keys, PackEdge keys in strictly ascending order. It takes ownership
// of labels and values. Every node-ID run — label rows, out-rows,
// in-rows — is carved, capacity-capped, from one backing array, so the
// build costs the same few allocations whatever |E| is. The graph's rows
// stay sorted and it carries no edge map until its first AddEdge or
// RemoveEdge (see thaw).
func FromSortedEdges(in *Interner, labels []Label, values []Value, keys []uint64) *Graph {
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
	outStart, outAdj := starts[:n+1:n+1], ids[n:n+m:n+m]
	inStart, inAdj := starts[n+1:], ids[n+m:]
	// keys ascend by (from, to): outAdj is their targets in order. The
	// in-rows are a counting sort on the target (inStart has one spare
	// slot for it); visiting keys in order keeps each in-row ascending by
	// source.
	for i, k := range keys {
		from, to := UnpackEdge(k)
		outAdj[i] = to
		outStart[from+1]++
		inStart[to+2]++
	}
	for v := 0; v < n; v++ {
		outStart[v+1] += outStart[v]
		inStart[v+2] += inStart[v+1]
	}
	for _, k := range keys {
		from, to := UnpackEdge(k)
		inAdj[inStart[to+1]] = from
		inStart[to+1]++
	}
	for v := 0; v < n; v++ {
		lo, hi := outStart[v], outStart[v+1]
		g.out[v] = outAdj[lo:hi:hi]
		lo, hi = inStart[v], inStart[v+1]
		g.in[v] = inAdj[lo:hi:hi]
	}
	return g
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
