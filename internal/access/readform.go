package access

import (
	"math/bits"
	"slices"
	"sync/atomic"

	"boundedg/internal/graph"
)

// readForm is an index's read form: the pointer-free arrays Lookup reads,
// so a probe is an array index or a short linear probe, never a Go map
// access or a pointer chase. The writer's maps (entries, memberKeys,
// vsKeys, tupleIDs) are never read on the query path.
//
// A root is built from the maps in O(entries + members + max key):
//
//   - |S| <= 1 is direct-addressed by its key (0, or the VS node's ID):
//     key k's members are members[start[k]:start[k+1]];
//   - |S| >= 2 is a static open-addressing table of slots keyed by the
//     packed pair (|S| = 2) or by a hash of the sorted tuple (|S| > 2,
//     whose tuple is stored right before its members and compared on a
//     hit, since intern IDs are private to one instance).
//
// Under maintenance, refresh derives the next form from the previous one
// in time proportional to the entries that changed, exactly as
// graph.Frozen.Refresh does for adjacency rows: a layer shares the root's
// arrays and holds an open-addressing table of copies of only the entries
// its mutations changed. A bitset shared by the chain marks every key
// position some layer patched (the key itself for |S| <= 1, its home slot
// in the root table otherwise), so an unmarked key reads the root arrays
// directly; a marked one (or a key past a direct root) walks the layers
// newest-first. The chain is flattened when deep and rebuilt from the maps
// once the patched entries pass a quarter of the root's, so lookup cost
// and amortized refresh cost both stay bounded.
type readForm struct {
	arity int // |S|

	// Root arrays, shared by every layer above the root.
	start   []uint32       // |S| <= 1: per-key run bounds into members
	table   []slot         // |S| >= 2: open-addressing table into members
	members []graph.NodeID // the runs (each preceded by its tuple if |S| > 2)
	entries int            // the root's entry count

	// Layer fields; parent is nil on a root.
	parent   *readForm
	patch    []slot // this layer's entries; a slot with n == 0 is a deleted entry
	pmembers []graph.NodeID
	npatch   int // occupied slots of patch
	// dirty marks the key positions some layer of the chain patched: shared
	// by every layer, allocated by the first refresh from the root. Bits
	// are set before the layer that patches them is returned and never
	// cleared, so a clear bit proves that no layer holds the key.
	dirty   []atomic.Uint64
	depth   int // chain length above the root
	patched int // cumulative patched entries across the chain
}

// slot is one open-addressing table slot. off is 1 + the offset of the
// slot's run (or, for |S| > 2, of the tuple preceding it) in the table's
// member array; 0 marks an empty slot. n is the run's length.
type slot struct {
	key uint64
	off uint32
	n   uint32
}

// maxFormDepth bounds the layer chain a marked key walks, as
// graph.Frozen's maxPatchDepth does.
const maxFormDepth = 8

// refreezeMinEntries is the patched-entry floor below which refresh never
// rebuilds the root, keeping small indexes incremental too.
const refreezeMinEntries = 1024

// slotOf returns key's home slot in a table of n slots, n a power of two
// (Fibonacci hashing: the top bits of key times 2^64/φ).
func slotOf(key uint64, n int) int {
	return int((key * 0x9E3779B97F4A7C15) >> (64 - bits.TrailingZeros(uint(n))))
}

// tableSize returns the slot count for count entries: a power of two at
// least twice count, so a probe always meets an empty slot.
func tableSize(count int) int {
	return 1 << bits.Len(uint(2*count))
}

// tupleHash is the form key of an |S| > 2 entry: a hash of its ascending
// tuple. Collisions are resolved by comparing the stored tuple.
func tupleHash(tuple []graph.NodeID) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range tuple {
		h = (h ^ uint64(v)) * 1099511628211
	}
	return h ^ h>>29
}

// find returns the run held for key (and tuple, when |S| > 2) in the
// open-addressing table t over mem, and whether t holds the key at all.
func find(t []slot, mem []graph.NodeID, key uint64, tuple []graph.NodeID) ([]graph.NodeID, bool) {
	if len(t) == 0 {
		return nil, false
	}
	mask := len(t) - 1
	for i := slotOf(key, len(t)); ; i = (i + 1) & mask {
		s := &t[i]
		if s.off == 0 {
			return nil, false
		}
		if s.key != key {
			continue
		}
		lo := int(s.off) - 1
		if len(tuple) > 0 {
			if !slices.Equal(mem[lo:lo+len(tuple)], tuple) {
				continue
			}
			lo += len(tuple)
		}
		if s.n == 0 {
			return nil, true
		}
		return mem[lo : lo+int(s.n) : lo+int(s.n)], true
	}
}

// tableBuilder fills one open-addressing table and its member array.
type tableBuilder struct {
	t   []slot
	mem []graph.NodeID
	n   int
}

func newTableBuilder(count, memHint int) tableBuilder {
	return tableBuilder{t: make([]slot, tableSize(count)), mem: make([]graph.NodeID, 0, memHint)}
}

// add stores run under key (and tuple); a key already held keeps its run,
// so adding newest-first lets newer layers win. It reports whether the
// key was new.
func (b *tableBuilder) add(key uint64, tuple, run []graph.NodeID) bool {
	mask := len(b.t) - 1
	for i := slotOf(key, len(b.t)); ; i = (i + 1) & mask {
		s := &b.t[i]
		if s.off == 0 {
			s.key, s.off, s.n = key, uint32(len(b.mem))+1, uint32(len(run))
			b.mem = append(append(b.mem, tuple...), run...)
			b.n++
			return true
		}
		if lo := int(s.off) - 1; s.key == key && (len(tuple) == 0 || slices.Equal(b.mem[lo:lo+len(tuple)], tuple)) {
			return false
		}
	}
}

// formKey returns the form key of the VS tuple vs (len(vs) == |S|, any
// order) and, for |S| > 2, the ascending tuple (in buf) that a hit must
// match.
func formKey(vs []graph.NodeID, buf []graph.NodeID) (uint64, []graph.NodeID) {
	switch len(vs) {
	case 0:
		return 0, nil
	case 1:
		return uint64(vs[0]), nil
	case 2:
		a, b := vs[0], vs[1]
		if a > b {
			a, b = b, a
		}
		return graph.PackEdge(a, b), nil
	}
	tuple := append(buf[:0], vs...)
	slices.Sort(tuple)
	return tupleHash(tuple), tuple
}

// lookup returns the members of the entry with form key key (and tuple).
func (f *readForm) lookup(key uint64, tuple []graph.NodeID) []graph.NodeID {
	if f.parent != nil && f.marked(f.pos(key)) {
		for p := f; p.parent != nil; p = p.parent {
			if run, ok := find(p.patch, p.pmembers, key, tuple); ok {
				return run
			}
		}
	}
	if f.arity > 1 {
		run, _ := find(f.table, f.members, key, tuple)
		return run
	}
	if key >= uint64(len(f.start)-1) || f.start[key] == f.start[key+1] {
		return nil // past the root, or no entry
	}
	return f.members[f.start[key]:f.start[key+1]:f.start[key+1]]
}

// pos returns key's position in the chain's dirty bitset.
func (f *readForm) pos(key uint64) uint64 {
	if f.arity > 1 {
		return uint64(slotOf(key, len(f.table)))
	}
	return key
}

// marked reports whether a layer of f's chain may hold the key at pos: its
// bit is set, or it lies past the bitset (a direct key past the root).
func (f *readForm) marked(pos uint64) bool {
	w := pos >> 6
	return w >= uint64(len(f.dirty)) || f.dirty[w].Load()&(1<<(pos&63)) != 0
}

// mark sets key's bit in the chain's dirty bitset, if its position lies
// inside it (one past it reads as marked anyway).
func (f *readForm) mark(key uint64) {
	if pos := f.pos(key); pos>>6 < uint64(len(f.dirty)) {
		f.dirty[pos>>6].Or(1 << (pos & 63))
	}
}

// freeze builds x's root read form from its maps: three passes over the
// entries for a direct form, two for a table, and no sort.
func (x *Index) freeze() *readForm {
	f := &readForm{arity: len(x.c.S), entries: len(x.entries)}
	total, maxKey := 0, uint64(0)
	for key, e := range x.entries {
		total += len(e.members)
		maxKey = max(maxKey, key)
	}
	if f.arity <= 1 {
		if len(x.entries) == 0 {
			f.start = make([]uint32, 1)
			return f
		}
		f.start = make([]uint32, maxKey+2)
		for key, e := range x.entries {
			f.start[key+1] = uint32(len(e.members))
		}
		for k := 1; k < len(f.start); k++ {
			f.start[k] += f.start[k-1]
		}
		f.members = make([]graph.NodeID, total)
		for key, e := range x.entries {
			copy(f.members[f.start[key]:], e.members)
		}
		return f
	}
	if f.arity > 2 {
		total += f.arity * len(x.entries)
	}
	b := newTableBuilder(len(x.entries), total)
	var buf [8]graph.NodeID
	for key, e := range x.entries {
		fk, tuple := x.formKeyOf(key, e, buf[:0])
		b.add(fk, tuple, e.members)
	}
	f.table, f.members = b.t, b.mem
	return f
}

// tupleEntry returns the entry of the encoded |S| > 2 tuple enc, or nil.
func (x *Index) tupleEntry(enc string) *indexEntry {
	if id, ok := x.tupleIDs[enc]; ok {
		return x.entries[id]
	}
	return nil
}

// formKeyOf returns the form key (and, for |S| > 2, the tuple) of the
// entry e stored under map key key.
func (x *Index) formKeyOf(key uint64, e *indexEntry, buf []graph.NodeID) (uint64, []graph.NodeID) {
	if len(x.c.S) <= 2 {
		return key, nil
	}
	tuple := decodeTuple(e.tuple, buf[:0])
	return tupleHash(tuple), tuple
}

// refresh returns the read form of x's current entries, given that f was
// the read form of x before the mutations x.dirty and x.dirtyTuples
// record. Cost is proportional to those entries' sizes, plus amortized
// compaction of the chain; once the cumulative patched entries pass a
// quarter of the root's, it rebuilds the root from the maps instead. f
// is not modified; forms already handed out keep their view.
func (f *readForm) refresh(x *Index) *readForm {
	n := len(x.dirty) + len(x.dirtyTuples)
	if f.patched+n > refreezeMinEntries && (f.patched+n)*4 > f.entries {
		return x.freeze()
	}
	nf := &readForm{
		arity:   f.arity,
		start:   f.start,
		table:   f.table,
		members: f.members,
		entries: f.entries,
		parent:  f,
		dirty:   f.dirty,
		depth:   f.depth + 1,
	}
	if f.parent == nil {
		bitsN := len(f.table)
		if f.arity <= 1 {
			bitsN = len(f.start) - 1
		}
		nf.dirty = make([]atomic.Uint64, (bitsN+63)/64)
	}
	b := newTableBuilder(n, 0)
	for _, key := range x.dirty {
		if b.add(key, nil, x.entries[key].membersOrNil()) {
			nf.mark(key)
		}
	}
	var buf [8]graph.NodeID
	for _, enc := range x.dirtyTuples {
		tuple := decodeTuple(enc, buf[:0])
		if key := tupleHash(tuple); b.add(key, tuple, x.tupleEntry(enc).membersOrNil()) {
			nf.mark(key)
		}
	}
	nf.patch, nf.pmembers, nf.npatch = b.t, b.mem, b.n
	nf.patched = f.patched + nf.npatch
	if nf.depth >= maxFormDepth {
		nf.flatten()
	}
	return nf
}

// flatten compacts the layer chain into nf with graph.Frozen's LSM policy:
// walking newest to oldest, a layer joins the merge while it holds no more
// than twice the entries merged so far, and layers deeper than half the
// depth budget merge unconditionally. Newer layers win on overlap.
func (nf *readForm) flatten() {
	p, count := nf.parent, nf.npatch
	for ; p.parent != nil && (p.npatch <= 2*count || p.depth > maxFormDepth/2); p = p.parent {
		count += p.npatch
	}
	b := newTableBuilder(count, 0)
	for l := nf; l != p; l = l.parent {
		for _, s := range l.patch {
			if s.off == 0 {
				continue
			}
			lo := int(s.off) - 1
			var tuple []graph.NodeID
			if nf.arity > 2 {
				tuple = l.pmembers[lo : lo+nf.arity]
				lo += nf.arity
			}
			b.add(s.key, tuple, l.pmembers[lo:lo+int(s.n)])
		}
	}
	nf.patch, nf.pmembers, nf.npatch, nf.parent = b.t, b.mem, b.n, p
	if p.parent == nil {
		nf.depth, nf.patched = 1, nf.npatch
	} else {
		// patched sums layer sizes, over-counting entries patched in two
		// layers: it only brings the rebuild forward, never past it.
		nf.depth, nf.patched = p.depth+1, p.patched+nf.npatch
	}
}
