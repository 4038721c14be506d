package access

import "boundedg/internal/graph"

// StagedDelta is an applied-but-undecided delta: the graph and indexes
// reflect d, and the stage holds everything needed to either keep that
// state or roll it back exactly. ApplyDeltaTx stages, checks bounds and
// decides locally; the shard router stages one sub-delta per shard and
// decides globally (aggregating entry sizes across the row partition)
// before committing or rolling back every shard — the all-or-nothing
// cross-shard verdict.
//
// A stage is only valid while the graph and index are otherwise
// untouched: stage the next delta only after Violations/Rollback settled
// this one.
type StagedDelta struct {
	s    *IndexSet
	g    *graph.Graph
	undo *graph.Undo
	res  *DeltaResult

	rows  []graph.NodeID // maintained rows: direct ∪ new IDs
	extra []graph.NodeID // changed − direct: deleted nodes' neighbors
}

func containsID(s []graph.NodeID, v graph.NodeID) bool {
	for _, w := range s {
		if w == v {
			return true
		}
	}
	return false
}

// StageDelta applies d to g and incrementally maintains the indexes, but
// defers the accept/reject decision: call Violations to evaluate the
// bounds locally, then either keep the stage or Rollback. A structural
// error (bad node or edge reference) reverts everything and returns the
// error; the graph and indexes are then exactly untouched.
func (s *IndexSet) StageDelta(g *graph.Graph, d *graph.Delta) (*StagedDelta, error) {
	// rows seeds with the rows whose index derivations must re-run — the
	// pre-existing nodes the delta names explicitly (graph.Delta's
	// "direct" set, evaluated before Apply); newly inserted IDs join
	// after Apply. extra holds the rest of the changed set — deleted
	// nodes' neighbors, whose adjacency shrinks but whose derivations the
	// entry purge covers — needed only by Refresh (via Touched) and
	// Rollback. Without DelNodes the two sets coincide and extra stays
	// nil, so the hot edge-churn path builds one small deduplicated
	// slice and no maps.
	rows := make([]graph.NodeID, 0, 2*len(d.AddEdges)+2*len(d.DelEdges)+len(d.DelNodes)+len(d.AddNodes))
	direct := func(v graph.NodeID) {
		if v >= 0 && g.Contains(v) && !containsID(rows, v) {
			rows = append(rows, v)
		}
	}
	for _, e := range d.AddEdges {
		direct(e[0])
		direct(e[1])
	}
	for _, e := range d.DelEdges {
		direct(e[0])
		direct(e[1])
	}
	var deleted, extra []graph.NodeID
	for _, v := range d.DelNodes {
		if v < 0 || !g.Contains(v) {
			continue
		}
		direct(v)
		deleted = append(deleted, v)
		for _, w := range g.Neighbors(v) {
			if !containsID(rows, w) && !containsID(extra, w) {
				extra = append(extra, w)
			}
		}
	}
	if len(deleted) > 0 {
		// A deleted node may itself neighbor another deleted node and
		// land in extra before its own DelNode entry moved it to rows.
		kept := extra[:0]
		for _, w := range extra {
			if !containsID(rows, w) {
				kept = append(kept, w)
			}
		}
		extra = kept
	}
	newIDs, undo, err := d.ApplyLogged(g)
	if err != nil {
		undo.Revert(g)
		return nil, err
	}
	rows = append(rows, newIDs...)
	for _, x := range s.indexes {
		for _, c := range deleted {
			x.purgeVSNode(c)
		}
	}
	s.maintainRows(g, rows)
	s.refresh()
	touched := rows // Touched = changed ∪ new = rows ∪ extra; both read-only once staged
	if len(extra) > 0 {
		touched = make([]graph.NodeID, 0, len(rows)+len(extra))
		touched = append(append(touched, rows...), extra...)
	}
	return &StagedDelta{
		s:     s,
		g:     g,
		undo:  undo,
		res:   &DeltaResult{NewIDs: newIDs, Touched: touched},
		rows:  rows,
		extra: extra,
	}, nil
}

// Result reports the staged delta's outcome (valid only while the stage
// is kept).
func (sd *StagedDelta) Result() *DeltaResult { return sd.res }

// Violations evaluates the cardinality bounds against the staged state,
// scoped to the entries this delta could have grown. The pre-stage state
// must have satisfied the bounds.
func (sd *StagedDelta) Violations() []Violation {
	return sd.s.checkRows(sd.rows)
}

// TouchedEntry names one index entry whose membership the staged delta
// may have changed on this instance: the CIdx-th constraint's entry for
// Key. The router unions these across shards to know which global
// entries need a cross-shard size check.
type TouchedEntry struct {
	CIdx int
	// Key is the entry's key, the same on every shard for |S| <= 2. An
	// |S| > 2 key is a per-instance intern ID, so there Key is 0 and the
	// entry is named by its encoded tuple instead.
	Key   uint64
	tuple string
}

// TouchedEntries lists the entries the maintained rows currently belong
// to, per constraint — the sharded counterpart of the checkRows scope.
func (sd *StagedDelta) TouchedEntries() []TouchedEntry {
	return sd.AppendTouchedEntries(nil)
}

// AppendTouchedEntries appends the touched entries to dst (deduplicated
// against everything already in it) and returns the extended slice — the
// allocation-light form the router's per-delta cross-shard size check
// uses with a reusable scratch slice. Touched-entry sets are small, so
// deduplication is a linear scan rather than a map.
func (sd *StagedDelta) AppendTouchedEntries(dst []TouchedEntry) []TouchedEntry {
	for ci, x := range sd.s.indexes {
		for _, v := range sd.rows {
		keys:
			for key := range x.memberKeys[v] {
				te := TouchedEntry{CIdx: ci, Key: key}
				if x.tupleIDs != nil {
					te = TouchedEntry{CIdx: ci, tuple: x.entries[key].tuple}
				}
				for i := range dst {
					if dst[i] == te {
						continue keys
					}
				}
				dst = append(dst, te)
			}
		}
	}
	return dst
}

// Rollback restores the graph and the indexes to their exact pre-stage
// state, including the node-ID space.
func (sd *StagedDelta) Rollback() {
	sd.undo.Revert(sd.g)
	// Re-derive the FULL changed set (rows ∪ extra) against the restored
	// graph: that rebuilds the purged entries too, since every member of
	// a purged entry neighbored a deleted node and is therefore in the
	// changed set, and membership is a pure function of the graph's
	// current neighborhoods.
	rollback := sd.rows
	if len(sd.extra) > 0 {
		rollback = make([]graph.NodeID, 0, len(sd.rows)+len(sd.extra))
		rollback = append(append(rollback, sd.rows...), sd.extra...)
	}
	sd.s.maintainRows(sd.g, rollback)
	sd.s.refresh()
}
