package store

import (
	"fmt"

	"boundedg/internal/access"
	"boundedg/internal/graph"
)

// Replica apply paths. A follower store is an ordinary Store (same
// double-instance copy-on-write, same indexes, same change ring, so the
// whole read path — queries, cache, revalidation — works unmodified) that
// is never driven by Apply. Instead the replication client feeds it whole
// primary epochs through ApplyReplicated, and re-anchors it on a primary
// checkpoint through ResetReplicated after a log rotation it could not
// ride across.

// ApplyReplicated applies one streamed epoch: every delta of the
// primary's group commit for that epoch, in record order, published as a
// single snapshot — exactly the atomicity the primary gave them. epoch
// must be the successor of the published epoch (chunks arrive in order
// from a cursor; a gap means the stream protocol was violated).
//
// The deltas were accepted by the primary, so any rejection here means
// the replica has diverged from the primary's history: the store wedges
// (writes barred, readers keep the last consistent epoch) and the error
// is returned for the caller to surface. Callers hand over the deltas —
// they must not be reused afterwards.
func (st *Store) ApplyReplicated(epoch uint64, deltas []*graph.Delta) error {
	t, err := st.BeginTxn()
	if err != nil {
		return err
	}
	defer t.guard()
	if epoch != t.cur.Epoch+1 {
		t.Abort()
		return fmt.Errorf("store: replicated epoch %d does not follow published epoch %d", epoch, t.cur.Epoch)
	}
	for i, d := range deltas {
		if _, err := t.stageLocal(d); err != nil {
			// The primary committed this delta; a reject here means the two
			// histories no longer agree. Wedge rather than serve a state
			// that silently drifted.
			_ = t.Wedge()
			return fmt.Errorf("store: replica diverged from primary at epoch %d delta %d: %w", epoch, i, err)
		}
	}
	t.Commit(epoch)
	return nil
}

// ResetReplicated re-anchors the store on a checkpoint state: a follower
// whose stream cursor a log rotation invalidated re-bootstraps from the
// primary's latest checkpoint, which is at or ahead of everything the
// follower has published. The store takes ownership of g and idx (built
// over g), publishes them as epoch, and discards both copy-on-write
// instances of the old lineage — the next ApplyReplicated re-clones.
// The change ring is emptied: its epochs are contiguous by construction
// and the jump is not, so revalidation across it degrades to
// recomputation.
func (st *Store) ResetReplicated(epoch uint64, g *graph.Graph, idx *access.IndexSet) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.refuse(); err != nil {
		return err
	}
	cur := st.cur.Load()
	if epoch < cur.Epoch {
		return fmt.Errorf("store: reset to epoch %d would rewind published epoch %d", epoch, cur.Epoch)
	}
	s := &state{g: g, idx: idx}
	next := &Snapshot{G: g, Fz: g.Freeze(), Idx: idx, Epoch: epoch, st: s}
	st.cur.Store(next)
	st.pub.Fire()
	cur.retired.Store(true)
	// Both old instances are of the abandoned lineage: neither can serve
	// as the next shadow. Readers still pinning them drain on their own.
	st.prev = nil
	st.shadow = nil
	st.lag = nil
	if st.clog != nil {
		st.clog.Reset()
	}
	return nil
}
