package access

import (
	"encoding/binary"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sort"
	"sync"

	"boundedg/internal/graph"
)

// Index is the index component of one access constraint φ = S -> (l, N):
// it maps every S-labeled node set VS of G that has at least one common
// neighbor labeled l to the list of those common neighbors. Lookup cost is
// O(answer) — meeting the paper's requirement of O(N) time independent of
// |G|. This replaces the MySQL tables the paper's prototype used.
//
// An index has two forms. The maps below are the writer's: maintenance
// reads and edits them. Lookup reads only rf, the pointer-free read form
// (see readForm), which every constructor builds and every mutating call
// (StageDelta, Rollback, ApplyDeltaTx) refreshes before it returns, from
// the entries its maintenance changed. ReplayDelta is the exception: the
// lag replay arrives at a state whose form the paired instance already
// holds, so the store adopts that one (ShareReadForms).
type Index struct {
	c Constraint

	// rf is the read form of the entries below as of the last refresh or
	// ShareReadForms.
	rf *readForm
	// dirty and dirtyTuples record the entries maintenance changed since
	// rf was built: map keys, or for |S| > 2 the entries' encoded tuples
	// (an intern ID does not outlive its entry). Recording starts once rf
	// exists, so building an index records nothing.
	dirty       []uint64
	dirtyTuples []string

	// entries maps the key of VS (see keyOf) to the entry holding the
	// common l-labeled neighbors of VS. For type-1 constraints the single
	// key is 0 and the entry lists all l-labeled nodes. Entries live behind
	// a pointer so the maintenance hot path can grow a member list without
	// re-assigning the map slot.
	entries map[uint64]*indexEntry

	// memberKeys is the reverse map: for each l-labeled node, the entry
	// keys it appears in. It powers incremental maintenance.
	memberKeys map[graph.NodeID]map[uint64]struct{}

	// vsKeys is the reverse map on the key side: for each S-labeled node,
	// the entry keys whose VS tuple contains it. It lets a node deletion
	// purge exactly the entries keyed through the node — O(affected
	// entries) instead of re-deriving every neighbor's full row.
	vsKeys map[graph.NodeID]map[uint64]struct{}

	// tupleIDs interns the varint-encoded sorted VS tuples of an index
	// with |S| > 2, whose tuples do not pack into one word; nil otherwise.
	// nextTuple is the last ID handed out (IDs are never reused, so a
	// stale ID can never alias a live tuple).
	tupleIDs  map[string]uint64
	nextTuple uint64

	// addRow scratch, reused across calls. Index maintenance is
	// single-writer (it runs under the store's writer lock) and readers
	// never touch these; clone deliberately leaves them zero.
	scrGroups  [][]graph.NodeID
	scrOdo     []int
	scrCombo   []graph.NodeID
	scrTuple   []graph.NodeID
	scrEmptied []uint64
}

// indexEntry is one materialized entry: the ascending member list, plus,
// on an index with |S| > 2, the interned tuple its key stands for.
type indexEntry struct {
	members []graph.NodeID
	tuple   string
}

// Constraint returns the constraint this index serves.
func (x *Index) Constraint() Constraint { return x.c }

// keyOf maps the VS tuple vs (any order, len(vs) == |S|) to its entry key,
// interning a fresh |S| > 2 tuple. For |S| <= 2 the key is the read form's
// (formKey: 0, the node ID, or the sorted pair packed like a graph edge);
// for |S| > 2 it is the tuple's intern ID, and the returned string is the
// interned encoding when this call created it, else empty.
func (x *Index) keyOf(vs []graph.NodeID) (key uint64, fresh string) {
	if len(x.c.S) <= 2 {
		key, _ = formKey(vs, nil)
		return key, ""
	}
	var buf [8 * binary.MaxVarintLen64]byte
	enc := appendTuple(buf[:0], vs)
	if key, ok := x.tupleIDs[string(enc)]; ok {
		return key, ""
	}
	x.nextTuple++
	fresh = string(enc)
	x.tupleIDs[fresh] = x.nextTuple
	return x.nextTuple, fresh
}

// tupleOf inverts keyOf for a materialized entry's key, appending the
// entry's VS tuple (ascending) to dst.
func (x *Index) tupleOf(key uint64, dst []graph.NodeID) []graph.NodeID {
	switch len(x.c.S) {
	case 0:
		return dst
	case 1:
		return append(dst, graph.NodeID(key))
	case 2:
		a, b := graph.UnpackEdge(key)
		return append(dst, a, b)
	}
	return decodeTuple(x.entries[key].tuple, dst)
}

// appendTuple appends the canonical encoding of vs — its node IDs sorted
// ascending, each as a uvarint — to buf. It is the on-disk order of index
// entries and the intern key of |S| > 2 tuples.
func appendTuple(buf []byte, vs []graph.NodeID) []byte {
	var tuple [8]graph.NodeID
	sorted := tuple[:0]
	if len(vs) > len(tuple) {
		sorted = make([]graph.NodeID, 0, len(vs))
	}
	sorted = append(sorted, vs...)
	slices.Sort(sorted)
	for _, v := range sorted {
		buf = binary.AppendUvarint(buf, uint64(v))
	}
	return buf
}

// decodeTuple inverts appendTuple, appending the node IDs to dst.
func decodeTuple(enc string, dst []graph.NodeID) []graph.NodeID {
	var v uint64
	var shift uint
	for i := 0; i < len(enc); i++ {
		c := enc[i]
		v |= uint64(c&0x7f) << shift
		shift += 7
		if c < 0x80 {
			dst = append(dst, graph.NodeID(v))
			v, shift = 0, 0
		}
	}
	return dst
}

// BuildIndex constructs the index of constraint c over g. It does not
// check the cardinality bound; see Violations.
func BuildIndex(g *graph.Graph, c Constraint) *Index {
	x := newIndex(c)
	for _, v := range g.NodesByLabel(c.L) {
		x.addRow(g, v)
	}
	x.rf = x.freeze()
	return x
}

func newIndex(c Constraint) *Index {
	x := &Index{
		c:          c,
		entries:    make(map[uint64]*indexEntry),
		memberKeys: make(map[graph.NodeID]map[uint64]struct{}),
		vsKeys:     make(map[graph.NodeID]map[uint64]struct{}),
	}
	if len(c.S) > 2 {
		x.tupleIDs = make(map[string]uint64)
	}
	return x
}

// addRow inserts node v (labeled c.L) into every entry whose VS is an
// S-labeled subset of v's neighborhood. It allocates only when an entry
// or a member is seen for the first time — the steady-state path of the
// live update loop (remove a row, re-derive it) reuses the index's
// scratch buffers and the entries' existing storage.
func (x *Index) addRow(g *graph.Graph, v graph.NodeID) {
	if x.c.Type1() {
		x.insert(nil, v)
		return
	}
	// Group v's neighbors by the labels of S.
	k := len(x.c.S)
	if cap(x.scrGroups) < k {
		x.scrGroups = make([][]graph.NodeID, k)
		x.scrOdo = make([]int, k)
		x.scrCombo = make([]graph.NodeID, k)
	}
	groups := x.scrGroups[:k]
	for i := range groups {
		groups[i] = groups[i][:0]
	}
	for _, w := range g.Neighbors(v) {
		wl := g.LabelOf(w)
		for i, sl := range x.c.S {
			if wl == sl {
				groups[i] = append(groups[i], w)
				break
			}
		}
	}
	for _, grp := range groups {
		if len(grp) == 0 {
			return // no S-labeled set exists in v's neighborhood
		}
	}
	// Enumerate the cartesian product of the groups (odometer order).
	odo, combo := x.scrOdo[:k], x.scrCombo[:k]
	for i := range odo {
		odo[i] = 0
		combo[i] = groups[i][0]
	}
	for {
		x.insert(combo, v)
		i := k - 1
		for ; i >= 0; i-- {
			if odo[i]++; odo[i] < len(groups[i]) {
				combo[i] = groups[i][odo[i]]
				break
			}
			odo[i] = 0
			combo[i] = groups[i][0]
		}
		if i < 0 {
			return
		}
	}
}

// insert adds v to the entry of the VS tuple vs (any order; nil for
// type-1), creating the entry — and registering its key under the tuple's
// nodes — when it does not exist yet.
//
// Entries are kept in ascending node-ID order. That canonical order is
// what makes sharded execution bit-identical to unsharded: a shard holds
// the subsequence of each entry whose members it owns, and an ascending
// k-way merge of the shard subsequences reproduces the unsharded entry
// exactly, for any shard count. (The on-disk snapshot codec already
// writes members sorted, so this changes no persisted state.)
func (x *Index) insert(vs []graph.NodeID, v graph.NodeID) {
	key, fresh := x.keyOf(vs)
	e, existed := x.entries[key]
	if !existed {
		e = &indexEntry{tuple: fresh}
		x.entries[key] = e
		for _, u := range vs {
			addKey(x.vsKeys, u, key)
		}
	}
	e.add(v)
	addKey(x.memberKeys, v, key)
}

// touchChanged records the entries a row's re-derivation changed, given
// the row's entry keys before (old) and after (cur): the entries it left
// and the ones it joined. It takes the row out of every entry and puts it
// back into most of them, and an entry the row left and rejoined is as it
// was. Entries still hold their tuples here: dropIfEmpty runs after.
func (x *Index) touchChanged(old, cur map[uint64]struct{}) {
	if x.rf == nil {
		return
	}
	for key := range old {
		if _, ok := cur[key]; !ok {
			x.touch(key, x.entries[key])
		}
	}
	for key := range cur {
		if _, ok := old[key]; !ok {
			x.touch(key, x.entries[key])
		}
	}
}

// touch records that the entry e under key changed, for the next refresh
// of the read form.
func (x *Index) touch(key uint64, e *indexEntry) {
	switch {
	case x.rf == nil:
	case x.tupleIDs != nil:
		x.dirtyTuples = append(x.dirtyTuples, e.tuple)
	default:
		x.dirty = append(x.dirty, key)
	}
}

// refresh brings the read form up to date with the entries maintenance
// changed since it was built.
func (x *Index) refresh() {
	if len(x.dirty) > 0 || len(x.dirtyTuples) > 0 {
		x.rf = x.rf.refresh(x)
		x.dirty, x.dirtyTuples = x.dirty[:0], x.dirtyTuples[:0]
	}
}

// addKey registers key under node v in a reverse map.
func addKey(m map[graph.NodeID]map[uint64]struct{}, v graph.NodeID, key uint64) {
	ks, ok := m[v]
	if !ok {
		ks = make(map[uint64]struct{})
		m[v] = ks
	}
	ks[key] = struct{}{}
}

// dropKey unregisters key under node v in a reverse map.
func dropKey(m map[graph.NodeID]map[uint64]struct{}, v graph.NodeID, key uint64) {
	if ks := m[v]; ks != nil {
		delete(ks, key)
		if len(ks) == 0 {
			delete(m, v)
		}
	}
}

// add inserts v into the entry's ascending member list.
func (e *indexEntry) add(v graph.NodeID) {
	m := e.members
	if n := len(m); n > 0 && m[n-1] > v {
		i := sort.Search(n, func(i int) bool { return m[i] >= v })
		m = append(m, 0)
		copy(m[i+1:], m[i:])
		m[i] = v
		e.members = m
	} else {
		e.members = append(m, v)
	}
}

// dropEntryKey forgets an emptied/purged entry and its key registrations
// on the VS side.
func (x *Index) dropEntryKey(key uint64) {
	x.scrTuple = x.tupleOf(key, x.scrTuple[:0])
	for _, u := range x.scrTuple {
		dropKey(x.vsKeys, u, key)
	}
	if x.tupleIDs != nil {
		delete(x.tupleIDs, x.entries[key].tuple)
	}
	delete(x.entries, key)
}

// removeRowKeep removes v from every entry it appears in but defers
// dropping the entries this empties, appending their keys to dst. The
// maintenance path re-derives the row right after the removal, and a
// singleton entry that survives the update keeps its entry struct and
// reverse-map registrations instead of being dropped and re-allocated on
// every touch. The caller must settle the returned keys with dropIfEmpty
// once the row is re-derived.
func (x *Index) removeRowKeep(v graph.NodeID, dst []uint64) []uint64 {
	for key := range x.memberKeys[v] {
		e := x.entries[key]
		for i, w := range e.members {
			if w == v {
				e.members = append(e.members[:i], e.members[i+1:]...)
				break
			}
		}
		if len(e.members) == 0 {
			dst = append(dst, key)
		}
	}
	delete(x.memberKeys, v)
	return dst
}

// dropIfEmpty drops the entries of the given keys that are still empty.
func (x *Index) dropIfEmpty(keys []uint64) {
	for _, key := range keys {
		if e := x.entries[key]; e != nil && len(e.members) == 0 {
			x.dropEntryKey(key)
		}
	}
}

// purgeVSNode deletes every entry whose VS tuple contains c (a node being
// removed from the graph): the S-labeled set no longer exists, so its
// common-neighbor list must go regardless of the members' own
// neighborhoods. Cost is proportional to the affected entries.
func (x *Index) purgeVSNode(c graph.NodeID) {
	keys := x.vsKeys[c]
	if len(keys) == 0 {
		return
	}
	for key := range keys {
		e := x.entries[key]
		x.touch(key, e)
		for _, w := range e.members {
			dropKey(x.memberKeys, w, key)
		}
		x.dropEntryKey(key)
	}
	delete(x.vsKeys, c)
}

// Lookup returns the common l-labeled neighbors of the S-labeled set vs.
// The order of vs does not matter. The returned slice is shared; do not
// mutate it. Lookup reads only the read form and never allocates: for
// |S| <= 1 the probe is an array index, for |S| >= 2 a probe of a static
// open-addressing table, and an entry a refresh patched walks at most
// maxFormDepth small tables before the root.
func (x *Index) Lookup(vs []graph.NodeID) []graph.NodeID {
	if x.c.Type1() {
		return x.rf.lookup(0, nil)
	}
	if len(vs) != len(x.c.S) {
		return nil
	}
	var buf [8]graph.NodeID
	key, tuple := formKey(vs, buf[:0])
	return x.rf.lookup(key, tuple)
}

// membersOrNil is the nil-safe member accessor for lookup paths probing
// possibly-absent entries.
func (e *indexEntry) membersOrNil() []graph.NodeID {
	if e == nil {
		return nil
	}
	return e.members
}

// MaxEntry returns the size of the largest entry (0 for an empty index) —
// the actual maximum common-neighbor count realized in G.
func (x *Index) MaxEntry() int {
	m := 0
	for _, e := range x.entries {
		if len(e.members) > m {
			m = len(e.members)
		}
	}
	return m
}

// NumEntries returns the number of materialized entries.
func (x *Index) NumEntries() int { return len(x.entries) }

// SizeNodes returns the total number of node references stored — the
// |index| figure reported in Fig 5(d,h,l) of the paper.
func (x *Index) SizeNodes() int {
	t := 0
	for _, e := range x.entries {
		t += len(e.members)
	}
	return t
}

// Violation records an entry exceeding its constraint's bound.
type Violation struct {
	Constraint Constraint
	// Count is the offending common-neighbor count (> Constraint.N).
	Count int
}

// Error renders the violation.
func (v Violation) Error() string {
	return fmt.Sprintf("access: constraint %v violated: %d common neighbors (bound %d)", v.Constraint, v.Count, v.Constraint.N)
}

// check returns a violation if any entry exceeds the bound.
func (x *Index) check() *Violation {
	if m := x.MaxEntry(); m > x.c.N {
		return &Violation{Constraint: x.c, Count: m}
	}
	return nil
}

// IndexSet bundles one Index per constraint of a schema — the runtime form
// of "G |= A with indices in place".
type IndexSet struct {
	schema  *Schema
	indexes []*Index

	// rowOwner, when set, restricts maintenance to the rows this instance
	// owns: maintainRows re-derives a node's memberships only if
	// rowOwner(v) holds. A shard's set thereby stays the exact row
	// partition of the global index — remote-endpoint stubs living in the
	// shard graph never grow local rows. Entry purges are NOT filtered
	// (a deleted VS node kills its entries on every shard holding them).
	rowOwner func(graph.NodeID) bool
}

// SetRowOwner installs the row-ownership filter (nil accepts every row).
// The shard runtime calls it right after Split or snapshot recovery.
func (s *IndexSet) SetRowOwner(f func(graph.NodeID) bool) { s.rowOwner = f }

func (s *IndexSet) ownsRow(v graph.NodeID) bool {
	return s.rowOwner == nil || s.rowOwner(v)
}

// Build constructs indices for every constraint of A over g and verifies
// that g satisfies the cardinality bounds; it returns the violations (and
// a nil IndexSet) if not.
func Build(g *graph.Graph, a *Schema) (*IndexSet, []Violation) {
	s := BuildUnchecked(g, a)
	var viols []Violation
	for _, x := range s.indexes {
		if v := x.check(); v != nil {
			viols = append(viols, *v)
		}
	}
	if len(viols) > 0 {
		return nil, viols
	}
	return s, nil
}

// BuildUnchecked constructs indices without checking cardinality bounds.
// Per-constraint indices are independent, so they are built in parallel
// (the graph is only read); this is the offline preprocessing step the
// bounded-evaluation approach amortizes across queries.
func BuildUnchecked(g *graph.Graph, a *Schema) *IndexSet {
	s := &IndexSet{schema: a, indexes: make([]*Index, a.Count())}
	perConstraint(a.Count(), func(i int) { s.indexes[i] = BuildIndex(g, a.At(i)) })
	return s
}

// perConstraint calls fn(i) for every constraint index i < n on up to
// GOMAXPROCS goroutines. The calls must be independent of each other:
// each touches only constraint i's indexes.
func perConstraint(n int, fn func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := range n {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := range n {
		next <- i
	}
	close(next)
	wg.Wait()
}

// Validate reports whether g satisfies the cardinality constraints of A,
// returning the violations found.
func Validate(g *graph.Graph, a *Schema) []Violation {
	_, viols := Build(g, a)
	return viols
}

// Schema returns the schema this set serves.
func (s *IndexSet) Schema() *Schema { return s.schema }

// Index returns the index of the i-th constraint (in schema order).
func (s *IndexSet) Index(i int) *Index { return s.indexes[i] }

// SizeNodes returns the total stored node references across all indices.
func (s *IndexSet) SizeNodes() int {
	t := 0
	for _, x := range s.indexes {
		t += x.SizeNodes()
	}
	return t
}

// clone deep-copies the index.
func (x *Index) clone() *Index {
	c := &Index{
		c:          x.c,
		entries:    make(map[uint64]*indexEntry, len(x.entries)),
		memberKeys: make(map[graph.NodeID]map[uint64]struct{}, len(x.memberKeys)),
		vsKeys:     make(map[graph.NodeID]map[uint64]struct{}, len(x.vsKeys)),
		tupleIDs:   maps.Clone(x.tupleIDs),
		nextTuple:  x.nextTuple,
		rf:         x.rf, // immutable, so the copies share it
	}
	for k, e := range x.entries {
		c.entries[k] = &indexEntry{members: slices.Clone(e.members), tuple: e.tuple}
	}
	for v, ks := range x.memberKeys {
		c.memberKeys[v] = maps.Clone(ks)
	}
	for v, ks := range x.vsKeys {
		c.vsKeys[v] = maps.Clone(ks)
	}
	return c
}

// Clone returns a deep copy of the set (sharing the schema, which is
// immutable). The copy can be maintained independently — the versioned
// store uses this for its second copy-on-write instance.
func (s *IndexSet) Clone() *IndexSet {
	c := &IndexSet{schema: s.schema, indexes: make([]*Index, len(s.indexes)), rowOwner: s.rowOwner}
	for i, x := range s.indexes {
		c.indexes[i] = x.clone()
	}
	return c
}

// maintainRows re-derives the index rows of the given nodes from g's
// current state: each node is removed from every entry it appears in and,
// if live and matching the constraint's l, re-inserted against its current
// neighborhood. Cost is O(Σ degree(rows)), independent of |G|.
func (s *IndexSet) maintainRows(g *graph.Graph, rows []graph.NodeID) {
	for _, v := range rows {
		live := g.Contains(v)
		var l graph.Label
		own := false
		if live {
			l = g.LabelOf(v)
			own = s.ownsRow(v)
		}
		for _, x := range s.indexes {
			if live && x.c.L != l {
				// Labels are immutable, so a live node is only ever a
				// member of indexes over its own label; nothing to remove
				// or re-derive elsewhere. (A deleted node's label is gone
				// — every index must be checked for stale membership.)
				continue
			}
			old := x.memberKeys[v]
			x.scrEmptied = x.removeRowKeep(v, x.scrEmptied[:0])
			if live && own {
				x.addRow(g, v)
			}
			x.touchChanged(old, x.memberKeys[v])
			x.dropIfEmpty(x.scrEmptied)
		}
	}
}

// EntryLen returns the current size of the entry te names (0 if absent).
// The shard router sums it across shards to evaluate cardinality bounds
// against the global entry a row partition splits up.
func (s *IndexSet) EntryLen(te TouchedEntry) int {
	x := s.indexes[te.CIdx]
	if te.tuple != "" {
		return len(x.tupleEntry(te.tuple).membersOrNil())
	}
	return len(x.entries[te.Key].membersOrNil())
}

// RebindSchema swaps the set's schema for an equivalent one. Recovery
// needs it: each shard's snapshot decode builds a private *Schema, but
// plan compilation compares schemas by pointer, so all shards must share
// one. The schemas must agree constraint-for-constraint.
func (s *IndexSet) RebindSchema(a *Schema) error {
	if a.Count() != len(s.indexes) {
		return fmt.Errorf("access: cannot rebind schema: %d constraints, set has %d", a.Count(), len(s.indexes))
	}
	for i, x := range s.indexes {
		c := a.At(i)
		if c.Key() != x.c.Key() || c.N != x.c.N {
			return fmt.Errorf("access: cannot rebind schema: constraint %d differs (%v vs %v)", i, c, x.c)
		}
	}
	s.schema = a
	return nil
}

// Split row-partitions the set: member v of every entry goes to shard
// owner(v), under the same VS tuple (tuples carry global node IDs). Entry
// subsequences inherit the ascending order, so a k-way merge of the shard
// entries reproduces the global entry exactly. Entries with no members on
// a shard are simply absent there. The schema pointer is shared; callers
// install the matching row-ownership filter on each part afterwards.
func (s *IndexSet) Split(n int, owner func(graph.NodeID) int) []*IndexSet {
	parts := make([]*IndexSet, n)
	for p := range parts {
		parts[p] = &IndexSet{schema: s.schema, indexes: make([]*Index, len(s.indexes))}
		for i, x := range s.indexes {
			parts[p].indexes[i] = newIndex(x.c)
		}
	}
	// Each constraint's parts are filled and frozen from its own entry
	// alone, so the constraints run in parallel, as BuildUnchecked's do.
	perConstraint(len(s.indexes), func(i int) {
		x := s.indexes[i]
		var vs []graph.NodeID
		for key, entry := range x.entries {
			vs = x.tupleOf(key, vs[:0])
			for _, v := range entry.members {
				parts[owner(v)].indexes[i].insert(vs, v)
			}
		}
		for _, p := range parts {
			p.indexes[i].rf = p.indexes[i].freeze()
		}
	})
	return parts
}

// checkRows returns the cardinality violations among entries containing
// any of the given nodes (at most one per constraint, carrying the worst
// count). Because an entry's membership only changes through maintainRows
// of a node it contains, checking the just-maintained rows finds every
// violation an update introduced — in O(Σ |memberKeys(rows)|) instead of
// the full-index scan of check() — provided the pre-update state held no
// violations.
func (s *IndexSet) checkRows(rows []graph.NodeID) []Violation {
	var viols []Violation
	for _, x := range s.indexes {
		worst := 0
		for _, v := range rows {
			for key := range x.memberKeys[v] {
				if n := len(x.entries[key].members); n > x.c.N && n > worst {
					worst = n
				}
			}
		}
		if worst > 0 {
			viols = append(viols, Violation{Constraint: x.c, Count: worst})
		}
	}
	return viols
}

// ReplayDelta applies an already-accepted delta to the paired
// copy-on-write instance — the lag catch-up of the epoch-versioned
// store. d was validated and accepted on the other instance while both
// instances were identical, so the transactional machinery is skipped:
// no undo log, no violation re-check, and the maintained row set is the
// accepted stage's Touched set (changed rows plus new IDs) instead of a
// re-derivation. Touched can strictly contain the rows whose index
// derivations had to re-run; re-deriving the extras is harmless —
// membership is a pure function of the graph's current neighborhoods.
//
// The read form is not refreshed: once the lag is replayed, the caller
// adopts the published instance's forms with ShareReadForms. Without
// that, the next mutating call refreshes from every change recorded,
// the replayed ones included.
func (s *IndexSet) ReplayDelta(g *graph.Graph, d *graph.Delta, rows []graph.NodeID) error {
	var deleted []graph.NodeID
	for _, v := range d.DelNodes {
		if g.Contains(v) {
			deleted = append(deleted, v)
		}
	}
	if _, err := d.Apply(g); err != nil {
		return err
	}
	for _, x := range s.indexes {
		for _, c := range deleted {
			x.purgeVSNode(c)
		}
	}
	s.maintainRows(g, rows)
	return nil
}

// ShareReadForms makes s read through src's read forms. s's entries must
// equal src's, as a copy-on-write instance's do once ReplayDelta has
// caught it up with the published one; the forms are immutable, so the
// two instances then share one refresh chain, and the next mutation of s
// layers on top of src's form.
func (s *IndexSet) ShareReadForms(src *IndexSet) {
	for i, x := range s.indexes {
		x.rf = src.indexes[i].rf
		x.dirty, x.dirtyTuples = x.dirty[:0], x.dirtyTuples[:0]
	}
}

// refresh brings every index's read form up to date with its maps.
func (s *IndexSet) refresh() {
	for _, x := range s.indexes {
		x.refresh()
	}
}

// ViolationError is the error ApplyDeltaTx returns for a delta rejected
// because it would break a cardinality bound.
type ViolationError struct {
	Violations []Violation
}

// Error renders the first violation (there is at least one).
func (e *ViolationError) Error() string {
	return fmt.Sprintf("access: delta rejected: %s", e.Violations[0].Error())
}

// DeltaResult reports an accepted ApplyDeltaTx: the IDs assigned to the
// delta's inserted nodes, and every node whose adjacency actually changed
// (edge endpoints, deleted nodes and their neighbors, plus the new IDs) —
// exactly the rows an incremental Frozen.Refresh must re-read.
type DeltaResult struct {
	NewIDs  []graph.NodeID
	Touched []graph.NodeID
}

// ApplyDeltaTx applies d to g and incrementally maintains every index,
// touching only ΔG ∪ NbG(ΔG) per §II of the paper. A delta that fails
// structurally (bad node or edge reference) or breaks a cardinality bound
// leaves both the graph and the indexes exactly untouched — including the
// graph's node-ID space, so a rejected insert does not shift future IDs.
// Violations surface as a *ViolationError; g must satisfy the schema's
// bounds on entry (the scoped violation check relies on it).
//
// Maintenance work is proportional to the affected index rows, not |G|:
// full row re-derivation happens only for nodes whose memberships may
// change outside dying entries — explicit edge endpoints, the deleted
// nodes themselves, and the inserted nodes. A deleted node's neighbors
// are NOT re-derived: their own memberships change only in entries keyed
// through the dead node (an entry's membership is a pure function of the
// member's unchanged-elsewhere neighborhood plus the liveness of its VS
// tuple), and purgeVSNode drops exactly those entries via the VS-side
// reverse map. Deleting a node next to a hub therefore costs the
// affected entries, not a re-derivation of the hub's whole row.
func (s *IndexSet) ApplyDeltaTx(g *graph.Graph, d *graph.Delta) (*DeltaResult, error) {
	sd, err := s.StageDelta(g, d)
	if err != nil {
		return nil, err
	}
	if viols := sd.Violations(); len(viols) > 0 {
		sd.Rollback()
		return nil, &ViolationError{Violations: viols}
	}
	return sd.Result(), nil
}
