package graph

import "fmt"

// Delta is a batch of updates ΔG to a graph: node insertions, edge
// insertions, edge deletions, and node deletions (which also delete
// incident edges). It is the unit of change used by the access-schema
// incremental maintenance of §II ("Maintaining access constraints").
type Delta struct {
	// AddNodes lists nodes to insert.
	AddNodes []NodeSpec
	// AddEdges and DelEdges list directed edges to insert / remove. For
	// AddEdges, negative indices -1-k refer to AddNodes[k], so a delta can
	// wire up nodes it inserts itself.
	AddEdges [][2]NodeID
	DelEdges [][2]NodeID
	// DelNodes lists nodes to remove (with their incident edges).
	DelNodes []NodeID

	// AddNodeIDs, when non-nil, pins an explicit ID for each AddNodes entry
	// (same length, applied via AddNodeAt). The sharded runtime uses it to
	// replay globally assigned IDs into per-shard sub-deltas; it is an
	// in-memory field only and deliberately absent from the JSON codec, so
	// external clients cannot pick their own IDs.
	AddNodeIDs []NodeID

	// stagedNames holds label names the delta references that are not yet
	// in the shared interner. ReadDeltaJSON must not intern at decode time
	// — interning is permanent, so a well-formed delta that is later
	// rejected would leak its novel labels forever. Instead, AddNodes
	// entries with a novel label carry the sentinel stagedLabel(k)
	// pointing at stagedNames[k], and the write path calls ResolveLabels
	// at its serialized commit point, interning only on acceptance.
	stagedNames []string
}

// NodeSpec describes a node inserted by a Delta.
type NodeSpec struct {
	Label Label
	Value Value
}

// stagedLabel encodes a reference to the k-th entry of Delta.stagedNames:
// a label the delta introduces that the interner does not hold yet. The
// encoding starts at -2 so it can never collide with NoLabel (-1), and a
// staged delta is unmistakable anywhere a real Label is expected —
// applying one without ResolveLabels fails loudly instead of inserting
// garbage labels.
func stagedLabel(k int) Label { return Label(-2 - k) }

// isStagedLabel reports whether l encodes a staged-name reference, and if
// so which index.
func isStagedLabel(l Label) (k int, ok bool) {
	if l <= -2 {
		return int(-l) - 2, true
	}
	return 0, false
}

// internOrStage resolves a label name against in without growing it:
// known names resolve to their Label, novel ones are staged on the delta
// (deduplicated) and referenced through a stagedLabel sentinel.
func (d *Delta) internOrStage(name string, in *Interner) Label {
	if l, ok := in.Lookup(name); ok {
		return l
	}
	for k, s := range d.stagedNames {
		if s == name {
			return stagedLabel(k)
		}
	}
	d.stagedNames = append(d.stagedNames, name)
	return stagedLabel(len(d.stagedNames) - 1)
}

// ResolveLabels rewrites every staged label reference to the final Label
// it will have once committed, predicting the values the interner will
// assign. It MUST run under the serialization that guards all interner
// growth (the store's writer lock / the router's leader) — the
// prediction assumes no concurrent Intern of a novel name. The caller
// then decides the delta's fate: commit interns the novel names
// (panicking if any prediction was violated — an invariant breach, not
// an input error), rollback restores the staged sentinels so the delta
// can be resolved again later. Exactly one of the two must be called
// before the serialization is released. A delta with nothing staged
// returns no-op funcs.
func (d *Delta) ResolveLabels(in *Interner) (commit, rollback func(), err error) {
	if len(d.stagedNames) == 0 {
		// Still guard against dangling sentinels: a sentinel without a
		// staged name cannot ever resolve.
		for i := range d.AddNodes {
			if k, ok := isStagedLabel(d.AddNodes[i].Label); ok {
				return nil, nil, fmt.Errorf("graph: delta references staged label %d but stages no names", k)
			}
		}
		nop := func() {}
		return nop, nop, nil
	}
	base := Label(in.Len())
	resolved := make([]Label, len(d.stagedNames))
	var novel []string
	for k, name := range d.stagedNames {
		if l, ok := in.Lookup(name); ok {
			// Another accepted delta committed this name since decode.
			resolved[k] = l
			continue
		}
		resolved[k] = base + Label(len(novel))
		novel = append(novel, name)
	}
	var idxs []int
	var olds []Label
	for i := range d.AddNodes {
		k, ok := isStagedLabel(d.AddNodes[i].Label)
		if !ok {
			continue
		}
		if k >= len(resolved) {
			for j, pi := range idxs { // undo partial rewrite
				d.AddNodes[pi].Label = olds[j]
			}
			return nil, nil, fmt.Errorf("graph: staged label reference %d out of range (%d staged)", k, len(d.stagedNames))
		}
		idxs = append(idxs, i)
		olds = append(olds, d.AddNodes[i].Label)
		d.AddNodes[i].Label = resolved[k]
	}
	staged := d.stagedNames
	d.stagedNames = nil
	commit = func() {
		for j, name := range novel {
			if got, want := in.Intern(name), base+Label(j); got != want {
				panic(fmt.Sprintf("graph: staged label %q interned as %d, predicted %d (interner grew outside the commit serialization)", name, got, want))
			}
		}
	}
	rollback = func() {
		for j, i := range idxs {
			d.AddNodes[i].Label = olds[j]
		}
		d.stagedNames = staged
	}
	return commit, rollback, nil
}

// NewNodeRef returns the AddEdges endpoint encoding for the k-th node of
// Delta.AddNodes.
func NewNodeRef(k int) NodeID { return NodeID(-1 - k) }

// IsNewNodeRef reports whether id encodes a reference to a delta-inserted
// node, and if so which index.
func IsNewNodeRef(id NodeID) (k int, ok bool) {
	if id < 0 {
		return int(-id) - 1, true
	}
	return 0, false
}

// ChangedRows returns two views of the pre-existing nodes the delta
// affects, computed in one pass against the graph state *before* Apply
// (nodes the delta itself inserts are reported by Apply):
//
//   - changed: every node whose adjacency is modified — endpoints of
//     inserted/deleted edges, deleted nodes, and the neighbors of deleted
//     nodes (which lose the incident edges). It does NOT include
//     neighbors of edge endpoints, whose adjacency is unchanged.
//   - direct ⊆ changed: the nodes the delta names explicitly — edge
//     endpoints and deleted nodes, without the deleted nodes' neighbors.
//     Index maintenance re-derives only these (a deleted node's neighbors
//     are covered by the entry purge instead).
func (d *Delta) ChangedRows(g *Graph) (changed, direct map[NodeID]struct{}) {
	changed = make(map[NodeID]struct{})
	direct = make(map[NodeID]struct{})
	add := func(v NodeID) {
		if v >= 0 && g.Contains(v) {
			changed[v] = struct{}{}
			direct[v] = struct{}{}
		}
	}
	for _, e := range d.AddEdges {
		add(e[0])
		add(e[1])
	}
	for _, e := range d.DelEdges {
		add(e[0])
		add(e[1])
	}
	for _, v := range d.DelNodes {
		if v < 0 || !g.Contains(v) {
			continue
		}
		add(v)
		for _, w := range g.Neighbors(v) {
			changed[w] = struct{}{}
		}
	}
	return changed, direct
}

// Clone returns an independent copy of the delta (all operation slices
// are copied; the elements are values).
func (d *Delta) Clone() *Delta {
	return &Delta{
		AddNodes:    append([]NodeSpec(nil), d.AddNodes...),
		AddEdges:    append([][2]NodeID(nil), d.AddEdges...),
		DelEdges:    append([][2]NodeID(nil), d.DelEdges...),
		DelNodes:    append([]NodeID(nil), d.DelNodes...),
		AddNodeIDs:  append([]NodeID(nil), d.AddNodeIDs...),
		stagedNames: append([]string(nil), d.stagedNames...),
	}
}

// Empty reports whether the delta carries no operations.
func (d *Delta) Empty() bool {
	return len(d.AddNodes) == 0 && len(d.AddEdges) == 0 &&
		len(d.DelEdges) == 0 && len(d.DelNodes) == 0
}

// Size returns the number of operations in the delta (|ΔG|).
func (d *Delta) Size() int {
	return len(d.AddNodes) + len(d.AddEdges) + len(d.DelEdges) + len(d.DelNodes)
}

// Apply applies the delta to g in the order: node inserts, edge inserts,
// edge deletes, node deletes. It returns the IDs assigned to AddNodes and
// the first error encountered (the graph may be partially updated on
// error; use ApplyLogged when that must not happen).
func (d *Delta) Apply(g *Graph) ([]NodeID, error) {
	ids, _, err := d.apply(g, nil)
	return ids, err
}

// ApplyLogged is Apply with an undo log: every mutation performed on g is
// recorded in the returned Undo, whose Revert restores g to its exact
// pre-Apply state — including the node-ID space, so a reverted delta
// leaves no tombstones and does not shift future AddNode IDs. The Undo is
// valid (and must be used, if at all) before any further mutation of g.
// On error the caller decides: Revert for all-or-nothing semantics, or
// keep the partial application.
func (d *Delta) ApplyLogged(g *Graph) ([]NodeID, *Undo, error) {
	u := &Undo{}
	ids, _, err := d.apply(g, u)
	return ids, u, err
}

func (d *Delta) apply(g *Graph, u *Undo) ([]NodeID, *Undo, error) {
	if d.AddNodeIDs != nil && len(d.AddNodeIDs) != len(d.AddNodes) {
		return nil, u, fmt.Errorf("graph: delta has %d AddNodeIDs for %d AddNodes", len(d.AddNodeIDs), len(d.AddNodes))
	}
	newIDs := make([]NodeID, len(d.AddNodes))
	for i, spec := range d.AddNodes {
		if spec.Label < 0 {
			return nil, u, fmt.Errorf("graph: AddNodes[%d] has unresolved label %d (ResolveLabels not run)", i, spec.Label)
		}
		if d.AddNodeIDs == nil {
			newIDs[i] = g.AddNode(spec.Label, spec.Value)
			if u != nil {
				u.log = append(u.log, undoOp{kind: undoAddNode, v: newIDs[i]})
			}
			continue
		}
		id := d.AddNodeIDs[i]
		preLen := len(g.labels)
		if err := g.AddNodeAt(id, spec.Label, spec.Value); err != nil {
			return newIDs, u, err
		}
		newIDs[i] = id
		if u != nil {
			if int(id) < preLen {
				u.log = append(u.log, undoOp{kind: undoReviveNode, v: id})
			} else {
				u.log = append(u.log, undoOp{kind: undoAddNodeAt, v: id, preLen: preLen})
			}
		}
	}
	resolve := func(id NodeID) NodeID {
		if k, ok := IsNewNodeRef(id); ok {
			if k < len(newIDs) {
				return newIDs[k]
			}
			return InvalidNode
		}
		return id
	}
	for _, e := range d.AddEdges {
		from, to := resolve(e[0]), resolve(e[1])
		if err := g.AddEdge(from, to); err != nil {
			if err == ErrDupEdge {
				continue // not logged: the edge was not inserted by us
			}
			return newIDs, u, err
		}
		if u != nil {
			u.log = append(u.log, undoOp{kind: undoAddEdge, v: from, w: to})
		}
	}
	for _, e := range d.DelEdges {
		if err := g.RemoveEdge(e[0], e[1]); err != nil {
			return newIDs, u, err
		}
		if u != nil {
			u.log = append(u.log, undoOp{kind: undoDelEdge, v: e[0], w: e[1]})
		}
	}
	for _, v := range d.DelNodes {
		var op undoOp
		if u != nil {
			// Capture the node at deletion time: label, value, and the
			// adjacency RemoveNode is about to tear down.
			op = undoOp{
				kind:  undoDelNode,
				v:     v,
				label: g.LabelOf(v),
				value: g.ValueOf(v),
				out:   append([]NodeID(nil), g.Out(v)...),
				in:    append([]NodeID(nil), g.In(v)...),
			}
		}
		if err := g.RemoveNode(v); err != nil {
			return newIDs, u, err
		}
		if u != nil {
			u.log = append(u.log, op)
		}
	}
	return newIDs, u, nil
}

type undoKind uint8

const (
	undoAddNode undoKind = iota
	undoAddEdge
	undoDelEdge
	undoDelNode
	undoReviveNode // AddNodeAt revived an in-range tombstone
	undoAddNodeAt  // AddNodeAt extended the ID space (preLen = cap before)
)

type undoOp struct {
	kind   undoKind
	v, w   NodeID
	preLen int
	label  Label
	value  Value
	out    []NodeID
	in     []NodeID
}

// Undo is the mutation log of one ApplyLogged call. Revert replays it
// backwards, restoring the graph bit-for-bit: deleted nodes are revived
// under their original IDs with their captured adjacency, and inserted
// nodes are dropped from the end of the ID space (no tombstones), so the
// graph's future ID assignment is unaffected by the reverted delta.
type Undo struct {
	log []undoOp
}

// Revert undoes every logged mutation, newest first. The graph must not
// have been mutated since the ApplyLogged that produced this Undo; any
// failure to restore indicates such outside interference and panics.
func (u *Undo) Revert(g *Graph) {
	for i := len(u.log) - 1; i >= 0; i-- {
		op := u.log[i]
		switch op.kind {
		case undoAddNode:
			// All edges touching the node were logged after its insertion
			// and are already reverted, so it is edge-free by now.
			g.dropLastNode(op.v)
		case undoReviveNode:
			g.retireRevivedNode(op.v)
		case undoAddNodeAt:
			g.truncateTo(op.v, op.preLen)
		case undoAddEdge:
			if err := g.RemoveEdge(op.v, op.w); err != nil {
				panic(fmt.Sprintf("graph: revert add-edge (%d,%d): %v", op.v, op.w, err))
			}
		case undoDelEdge:
			if err := g.AddEdge(op.v, op.w); err != nil {
				panic(fmt.Sprintf("graph: revert del-edge (%d,%d): %v", op.v, op.w, err))
			}
		case undoDelNode:
			g.restoreNode(op.v, op.label, op.value)
			// Shared edges between two deleted nodes are captured on both
			// sides; the duplicate re-insertion is skipped.
			for _, w := range op.out {
				if err := g.AddEdge(op.v, w); err != nil && err != ErrDupEdge {
					panic(fmt.Sprintf("graph: revert del-node %d out-edge to %d: %v", op.v, w, err))
				}
			}
			for _, w := range op.in {
				if err := g.AddEdge(w, op.v); err != nil && err != ErrDupEdge {
					panic(fmt.Sprintf("graph: revert del-node %d in-edge from %d: %v", op.v, w, err))
				}
			}
		}
	}
	u.log = nil
}
