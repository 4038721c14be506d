package store

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"boundedg/internal/access"
	"boundedg/internal/graph"
	"boundedg/internal/wal"
)

// ErrClosed is returned by every writer entrance after Close.
var ErrClosed = errors.New("store: closed")

// ErrNotDurable is returned by Checkpoint on a store without a WAL.
var ErrNotDurable = errors.New("store: no WAL attached")

// ErrWedged is the error of a batch whose WAL append or fsync failed —
// the epoch was never published and the store closed itself to further
// writes (readers keep the last durable state) — and of every writer
// entrance from then on. It wraps ErrClosed so callers that map "store
// not accepting writes" (e.g. the server's 503) catch both with one
// errors.Is.
var ErrWedged = fmt.Errorf("%w: write-ahead log failed", ErrClosed)

// state is one of the two copy-on-write (graph, indexes) instances.
type state struct {
	g   *graph.Graph
	idx *access.IndexSet
}

// Snapshot is one immutable published epoch. Acquire pins it; every
// Acquire must be paired with exactly one Release, after which none of
// the snapshot's fields may be touched — the backing instance is recycled
// for a future epoch once its readers drain.
type Snapshot struct {
	G     *graph.Graph
	Fz    *graph.Frozen
	Idx   *access.IndexSet
	Epoch uint64

	st      *state
	refs    atomic.Int64
	retired atomic.Bool
}

// Release unpins the snapshot.
func (s *Snapshot) Release() { s.refs.Add(-1) }

// Cut is a pinned consistent view of a whole source: one snapshot per
// shard, all published by the same commit boundary. A single store's cut
// is its one snapshot with a nil Vector; a shard router's carries the
// epoch vector and the node→shard map (see shard.Router.AcquireCut).
// Release it when done.
type Cut struct {
	Snaps []*Snapshot
	// Epoch is the version the cut pins: the store epoch, or the router's
	// global sequence number.
	Epoch uint64
	// Vector holds the per-shard epochs of a router's cut; nil on a store.
	Vector []uint64
	// ShardOf routes a node to the index of its owner in Snaps; nil when
	// there is a single snapshot.
	ShardOf func(graph.NodeID) int
}

// Release unpins every snapshot of the cut.
func (c *Cut) Release() {
	for _, s := range c.Snaps {
		s.Release()
	}
}

// Stats is a point-in-time observation of a source: a store's cumulative
// update counters, or a shard router's — which fills the same counters at
// the router level plus the fields marked router-only.
type Stats struct {
	// Epoch is the currently published epoch (the base epoch when nothing
	// has been applied); a router's global sequence number.
	Epoch uint64
	// Vector is the per-shard epoch vector (router only).
	Vector []uint64
	// Nodes and Edges are the live counts at Epoch (on a router the global
	// ones, each edge counted once, not per replica).
	Nodes, Edges int64
	// Applied counts accepted deltas; Batches counts the group commits
	// that published them. Batches == Applied means no coalescing
	// happened (serial writers); under concurrent bursts Batches drops
	// below Applied — the per-delta share of the fixed epoch costs.
	Applied uint64
	Batches uint64
	// RejectedViolation counts deltas rejected for breaking an access
	// constraint; RejectedError counts structural rejections (bad node or
	// edge references). Both leave the published state untouched.
	RejectedViolation uint64
	RejectedError     uint64
	// TouchedRows accumulates, over accepted deltas, the rows whose
	// adjacency each delta changed — the per-update maintenance work,
	// bounded by the paper's |ΔG ∪ NbG(ΔG)|.
	TouchedRows uint64
	// LastApplyNS is the wall time of the most recent group commit
	// (replay + apply + log + refresh + publish, for the whole batch).
	LastApplyNS int64
	// QueueDepth is the number of Apply calls waiting in the group-commit
	// queue at observation time.
	QueueDepth int
	// Wedged reports that a WAL failure (or a diverged replica, or a
	// panicked commit) barred writes for good; readers keep the last
	// published epoch. A router is wedged when any shard is.
	Wedged bool
	// ShardTxns counts shard write transactions begun (router only): a
	// batch touching k shards opens k, so ShardTxns/Batches is the mean
	// commit fan-out — the observable for the participant-only fast path.
	ShardTxns uint64
	// Shards holds each shard store's own stats (router only).
	Shards []Stats

	// Durable reports whether a WAL is attached; the remaining fields are
	// zero without one. WALOffset is the committed log offset, WALRecords
	// and WALSyncs the records appended and fsyncs issued on the current
	// log (both reset at checkpoints, which rotate the log), and
	// LastCheckpointEpoch the epoch of the newest checkpoint snapshot.
	Durable             bool
	WALOffset           int64
	WALRecords          uint64
	WALSyncs            uint64
	LastCheckpointEpoch uint64
}

// lagEntry is one delta the published instance has absorbed but the
// shadow has not, plus the row set its accepted stage maintained — the
// inputs of access.IndexSet.ReplayDelta, which catches the shadow up
// without re-running the transactional accept/reject machinery.
type lagEntry struct {
	d    *graph.Delta
	rows []graph.NodeID
}

// lagRows derives a lag entry's replay row set from the accepted
// stage's Touched set. With an ownership filter installed the non-owned
// rows are dropped: index maintenance is owner-gated on both instances,
// so a stub row's replay would be a no-op probe of empty structures on
// every index — the instances stay identical without it.
func (st *Store) lagRows(touched []graph.NodeID) []graph.NodeID {
	if st.ownRow == nil {
		return touched
	}
	n := 0
	for _, v := range touched {
		if st.ownRow(v) {
			n++
		}
	}
	if n == len(touched) {
		return touched
	}
	kept := make([]graph.NodeID, 0, n)
	for _, v := range touched {
		if st.ownRow(v) {
			kept = append(kept, v)
		}
	}
	return kept
}

// Store is the epoch-versioned graph store. Construct with New, read with
// Acquire/Release, write with Apply. Any number of concurrent readers;
// concurrent writers are grouped into batches (see the package comment).
type Store struct {
	cur atomic.Pointer[Snapshot]

	queue Queue

	mu     sync.Mutex // serializes batch leaders, checkpoint commits and Close
	ckptMu sync.Mutex // serializes whole Checkpoint calls (writers keep running)
	closed bool
	wedged atomic.Bool // writes barred for good (see Txn.Wedge); set under mu
	shadow *state      // instance not backing cur; nil until first Apply
	prev   *Snapshot   // last snapshot that exposed shadow; drained before reuse
	lag    []lagEntry  // deltas cur's instance has seen but shadow has not

	dur   *wal.Dir // nil on a non-durable store
	fsync bool

	// ownRow, when set, scopes Frozen refreshes to the rows it accepts
	// (see WithRefreshFilter).
	ownRow func(graph.NodeID) bool

	// clog is the recent-deltas ring behind ChangedSince; nil when
	// disabled (see WithChangeLog).
	clog *ChangeLog

	// hookAppend, when non-nil, runs before the i-th accepted delta's WAL
	// append; a returned error takes the append-failure path. Tests use
	// it to exercise the wedge/rewind machinery.
	hookAppend func(i int) error

	// pub fires each time a new snapshot is published; see PublishSignal.
	pub Signal

	applied, batches, rejViol, rejErr, touched atomic.Uint64
	lastApplyNS                                atomic.Int64
	lastCheckpoint                             atomic.Uint64
}

// Option configures New.
type Option func(*Store)

// WithWAL attaches an initialized WAL directory (wal.OpenDir followed by
// Init or Recover, so d.Log() is non-nil): every accepted delta is
// appended to d's log before the epoch containing it is published, and
// fsync selects whether each group commit ends with one fsync (true) or
// leaves flushing to the OS (false — faster, but a host crash can lose
// the most recent commits; a process crash alone loses nothing).
func WithWAL(d *wal.Dir, fsync bool) Option {
	return func(st *Store) {
		st.dur = d
		st.fsync = fsync
		st.lastCheckpoint.Store(d.LastCheckpointEpoch())
	}
}

// WithRefreshFilter restricts which touched rows each commit re-reads
// into the CSR snapshot (Frozen). The sharded router serves every
// frozen-adjacency read for a row from the row's owner shard, so a
// non-owner replica (a stub node holding its copy of a cross-shard
// edge) never has its frozen run consulted and need not pay the
// per-commit patch for it. Only the Frozen refresh scope is affected —
// the live graph and the indexes are always fully maintained.
func WithRefreshFilter(own func(graph.NodeID) bool) Option {
	return func(st *Store) {
		st.ownRow = own
	}
}

// WithChangeLog sizes the recent-deltas ring behind ChangedSince: the
// store keeps the changed-row/changed-label record of the last `slots`
// published epochs. slots == 0 keeps the default (256 epochs); negative
// disables the ring entirely — ChangedSince then only vouches for the
// no-op span (e == current). The sharded router disables its shard
// stores' rings and keeps one of its own, keyed by global sequence
// number.
func WithChangeLog(slots int) Option {
	return func(st *Store) {
		switch {
		case slots < 0:
			st.clog = nil
		case slots == 0:
			st.clog = NewChangeLog(defaultChangeLogSlots)
		default:
			st.clog = NewChangeLog(slots)
		}
	}
}

// WithBaseEpoch makes the store publish its initial state as the given
// epoch instead of 0 — after WAL recovery, the epoch replay ended on, so
// epoch numbering (the replication cursor) survives restarts.
func WithBaseEpoch(epoch uint64) Option {
	return func(st *Store) {
		s0 := st.cur.Load()
		st.cur.Store(&Snapshot{G: s0.G, Fz: s0.Fz, Idx: s0.Idx, Epoch: epoch, st: s0.st})
	}
}

// New returns a store serving g with its index set idx (which must have
// been built over g and satisfy its schema's bounds). The store takes
// ownership: g and idx must not be read or mutated directly afterwards —
// all access goes through Acquire and Apply.
func New(g *graph.Graph, idx *access.IndexSet, opts ...Option) *Store {
	st := &Store{clog: NewChangeLog(defaultChangeLogSlots)}
	s0 := &state{g: g, idx: idx}
	st.cur.Store(&Snapshot{G: g, Fz: g.Freeze(), Idx: idx, Epoch: 0, st: s0})
	for _, opt := range opts {
		opt(st)
	}
	return st
}

// Acquire pins and returns the current snapshot. The caller must Release
// it when done; holding a snapshot blocks the writer from recycling its
// backing instance (two epochs later), so release promptly.
func (st *Store) Acquire() *Snapshot {
	for {
		s := st.cur.Load()
		s.refs.Add(1)
		if !s.retired.Load() {
			return s
		}
		// The writer retired s between our load and pin and may already be
		// waiting to mutate its instance; back out and take the newer one.
		s.refs.Add(-1)
	}
}

// AcquireCut pins the current snapshot as a one-shard cut.
func (st *Store) AcquireCut() *Cut {
	s := st.Acquire()
	return &Cut{Snaps: []*Snapshot{s}, Epoch: s.Epoch}
}

// Epoch returns the current epoch without pinning.
func (st *Store) Epoch() uint64 { return st.cur.Load().Epoch }

// PublishSignal returns a channel that is closed the next time an epoch
// is published (commit, replicated apply, or checkpoint re-anchor), with
// Signal's protocol: grab the channel BEFORE reading Epoch, then block;
// re-read Epoch after each wake.
func (st *Store) PublishSignal() <-chan struct{} { return st.pub.Wait() }

// Schema returns the access schema (immutable across epochs).
func (st *Store) Schema() *access.Schema { return st.cur.Load().Idx.Schema() }

// Result reports one accepted Apply, through a store or a shard router.
type Result struct {
	// Epoch is the epoch the delta published (a router's global sequence
	// number). Concurrently accepted deltas may share it (one group commit
	// = one epoch).
	Epoch uint64
	// Vector is the per-shard epoch vector after the commit (router only).
	// A shard the batch did not touch keeps its previous epoch — entries
	// are the epochs a consistent cut at Epoch pins.
	Vector []uint64
	// NewIDs are the node IDs assigned to the delta's AddNodes.
	NewIDs []graph.NodeID
	// TouchedRows counts the rows whose adjacency the delta changed
	// (edge endpoints, deleted nodes and their neighbors, inserted
	// nodes) — the incrementally maintained work.
	TouchedRows int
	// LogOffset is the WAL offset the delta's record ends at — the
	// update is durable once the log is synced through it. Zero on a
	// store without a WAL, and through a router.
	LogOffset int64
	// ShardLogOffsets holds, per shard, the WAL offset this delta's
	// envelope record ends at (router only; 0 for shards the delta did
	// not touch, and everywhere on an in-memory router).
	ShardLogOffsets []int64
}

// Apply applies d atomically and publishes it in the next epoch. On
// success the returned Result names that epoch; the snapshot containing
// the delta is visible to Acquire before Apply returns. A delta that
// fails structurally or breaks an access constraint (a
// *access.ViolationError) is rejected with the published state untouched.
//
// Concurrent Apply calls are group-committed: whichever caller takes the
// writer lock first commits every delta queued by then as one epoch, in
// queue order, and the rest return as soon as the batch publishes. The
// accepted-path cost per batch is O(Σ|ΔG ∪ NbG(ΔG)|) per instance plus
// waiting out readers still pinning the epoch before last. The first
// Apply also pays a one-off O(|G|) clone of the second instance.
func (st *Store) Apply(d *graph.Delta) (Result, error) {
	req := st.queue.Push(d)
	st.lead()
	return req.Wait()
}

// lead runs the leader election: every queued caller contends for the
// writer lock; the winner commits the whole queue (possibly including
// requests that arrived after its own). Losers find an empty queue and
// just wait.
func (st *Store) lead() {
	st.mu.Lock()
	batch := st.queue.Take()
	if len(batch) == 0 {
		st.mu.Unlock()
		return
	}
	st.commitBatch(&Txn{st: st}, batch)
}

// commitBatch runs one group commit through t, whose writer lock the
// leader already holds: every request staged with its own accept/reject
// verdict, then one log step, one published epoch. Every request is
// settled before returning, and t has ended.
func (st *Store) commitBatch(t *Txn, batch []*Request) {
	defer func() {
		if p := recover(); p != nil {
			// The epoch never published: wedge (rewinding what the batch
			// appended and releasing the lock) and fail the waiters instead
			// of stranding them, then let the panic propagate.
			_ = t.Wedge()
			Settle(batch, fmt.Errorf("store: commit panicked: %v", p))
			panic(p)
		}
	}()
	if err := t.begin(); err != nil {
		Settle(batch, err)
		return
	}
	epoch := t.cur.Epoch + 1
	var accepted []*Request
	for _, req := range batch {
		res, err := t.stageLocal(req.Delta)
		if err != nil {
			var verr *access.ViolationError
			if errors.As(err, &verr) {
				st.rejViol.Add(1)
			} else {
				st.rejErr.Add(1)
			}
			req.Err = err
			continue
		}
		req.Res = Result{Epoch: epoch, NewIDs: res.NewIDs, TouchedRows: len(res.Touched)}
		accepted = append(accepted, req)
	}
	if len(accepted) == 0 {
		// Nothing survived: no epoch, no log records, published state
		// untouched. The shadow is still clean (every reject reverted).
		t.Abort()
		Settle(batch, nil)
		return
	}
	// Durability point: only after the log has the batch may the epoch
	// become visible — crash recovery replays exactly these records.
	offs, err := t.Log(epoch)
	if err != nil {
		Settle(batch, WedgeError(err, t.Wedge()))
		return
	}
	for i, req := range accepted {
		req.Res.LogOffset = offs[i]
	}
	t.Commit(epoch)
	Settle(batch, nil)
}

// refuse reports why the store takes no writes — ErrWedged once wedged,
// ErrClosed after Close, nil while open. Every writer entrance (Apply,
// BeginTxn, ApplyReplicated, ResetReplicated) asks it under st.mu.
func (st *Store) refuse() error {
	switch {
	case st.wedged.Load():
		return ErrWedged
	case st.closed:
		return ErrClosed
	}
	return nil
}

// waitDrained blocks until no reader pins s. s is already retired, so no
// new pins can land (Acquire backs out of retired snapshots).
func (st *Store) waitDrained(s *Snapshot) {
	if s == nil {
		return
	}
	for backoff := time.Microsecond; s.refs.Load() > 0; {
		time.Sleep(backoff)
		if backoff < time.Millisecond {
			backoff *= 2
		}
	}
}

// ChangedSince reports the union of changes in epochs (e, S], where S ≥
// the currently published epoch, as a ChangeSummary valid for promoting
// cached results from epoch e to S. ok is false when the span cannot be
// vouched for: the ring was outrun (e too old), a bulk epoch overflowed
// its slot, the ring is disabled, or e is ahead of everything recorded.
// With no updates recorded yet, only the empty span (e == current epoch)
// is vouched for.
func (st *Store) ChangedSince(e uint64) (ChangeSummary, bool) {
	cur := st.Epoch()
	if st.clog == nil {
		if e == cur {
			return ChangeSummary{Epoch: cur}, true
		}
		return ChangeSummary{}, false
	}
	return st.clog.Since(e, cur)
}

// errWedgedCheckpoint bars checkpoints on a store wedged by a WAL
// failure, whose published state may be ahead of what the log can prove.
var errWedgedCheckpoint = errors.New("store: wedged by an earlier WAL failure; refusing to checkpoint")

// Checkpoint rewrites the WAL snapshot at the currently published epoch
// and rotates the log, bounding recovery replay. The O(|G|) snapshot is
// serialized from a pinned immutable epoch with the writer lock free —
// commits proceed concurrently; the lock is taken only for the log
// rotation and MANIFEST swap, and only if the published epoch still
// matches the prepared snapshot (otherwise the snapshot is discarded and
// prepared again; after a few laps of being outrun by sustained writes
// it serializes under the lock for guaranteed progress). Allowed after
// Close — the shutdown path drains, closes, then checkpoints so a clean
// restart replays nothing.
func (st *Store) Checkpoint() error {
	if st.dur == nil {
		return ErrNotDurable
	}
	st.ckptMu.Lock()
	defer st.ckptMu.Unlock()
	for attempt := 0; attempt < 3; attempt++ {
		if st.wedged.Load() {
			return errWedgedCheckpoint
		}
		snap := st.Acquire()
		epoch := snap.Epoch
		if epoch == st.dur.LastCheckpointEpoch() {
			// Nothing committed since the last checkpoint: the files on
			// disk are already exactly this state.
			snap.Release()
			return nil
		}
		// Encode under the pin at memory speed, then release before the
		// slow file writes: a held pin would stall the writer (it waits
		// out the pinned epoch's readers two commits later) nearly as
		// badly as a held lock.
		gJSON, iJSON, err := encodeSnapshot(snap)
		snap.Release()
		if err != nil {
			return err
		}
		pend, err := st.dur.PrepareCheckpoint(epoch, gJSON, iJSON)
		if err != nil {
			return err
		}
		st.mu.Lock()
		if st.wedged.Load() {
			st.mu.Unlock()
			pend.Discard()
			return errWedgedCheckpoint
		}
		if st.cur.Load().Epoch == epoch {
			err := st.commitCheckpointLocked(pend)
			st.mu.Unlock()
			return err
		}
		st.mu.Unlock()
		// The published epoch moved on while we prepared: the snapshot
		// files name a stale epoch and committing them would rewind the
		// manifest's view of the log base. Drop them and re-prepare.
		pend.Discard()
	}
	// Sustained writes outran every prepare: serialize this one under the
	// writer lock, the pre-refactor behavior, for guaranteed progress.
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.wedged.Load() {
		return errWedgedCheckpoint
	}
	snap := st.cur.Load()
	gJSON, iJSON, err := encodeSnapshot(snap)
	if err != nil {
		return err
	}
	if snap.Epoch == st.dur.LastCheckpointEpoch() {
		return nil
	}
	pend, err := st.dur.PrepareCheckpoint(snap.Epoch, gJSON, iJSON)
	if err != nil {
		return err
	}
	return st.commitCheckpointLocked(pend)
}

// encodeSnapshot serializes a pinned epoch's graph and index set to their
// checkpoint JSON forms.
func encodeSnapshot(snap *Snapshot) ([]byte, []byte, error) {
	var gbuf, ibuf bytes.Buffer
	if err := snap.G.WriteSnapshotJSON(&gbuf); err != nil {
		return nil, nil, fmt.Errorf("store: encode checkpoint graph: %w", err)
	}
	if err := snap.Idx.WriteJSON(&ibuf, snap.G.Interner()); err != nil {
		return nil, nil, fmt.Errorf("store: encode checkpoint index: %w", err)
	}
	return gbuf.Bytes(), ibuf.Bytes(), nil
}

// commitCheckpointLocked finishes a prepared checkpoint under st.mu
// (appends quiesced): log rotation + MANIFEST swap.
func (st *Store) commitCheckpointLocked(pend *wal.PendingCheckpoint) error {
	if err := pend.Commit(); err != nil {
		if errors.Is(err, wal.ErrCheckpointAmbiguous) {
			// The manifest swap may or may not survive a crash, so no log
			// can safely acknowledge further appends: wedge. Readers keep
			// the published state; a restart resolves into whichever
			// manifest the disk actually holds.
			st.closed = true
			st.wedged.Store(true)
		}
		return err
	}
	st.lastCheckpoint.Store(pend.Epoch())
	return nil
}

// Close bars further updates. Readers are unaffected: already-acquired
// snapshots stay valid and Acquire keeps serving the final epoch. The
// attached WAL directory (if any) remains open — close it after a final
// Checkpoint via wal.Dir.Close.
func (st *Store) Close() {
	st.mu.Lock()
	st.closed = true
	st.mu.Unlock()
}

// Wedge poisons the store without an open transaction: writes are
// permanently refused while readers keep the published epoch — the same
// terminal state a WAL failure leaves. The shard router uses it to keep
// every shard of a failed cross-shard batch in lockstep, including the
// shards the batch never opened a transaction on (partially wedging the
// fleet would let their epochs drift from the global sequence).
func (st *Store) Wedge() {
	st.mu.Lock()
	st.closed = true
	st.wedged.Store(true)
	st.mu.Unlock()
}

// Stats returns a snapshot of the store's cumulative counters.
func (st *Store) Stats() Stats {
	snap := st.Acquire()
	s := Stats{
		Epoch:             snap.Epoch,
		Nodes:             int64(snap.G.NumNodes()),
		Edges:             int64(snap.G.NumEdges()),
		Wedged:            st.wedged.Load(),
		Applied:           st.applied.Load(),
		Batches:           st.batches.Load(),
		RejectedViolation: st.rejViol.Load(),
		RejectedError:     st.rejErr.Load(),
		TouchedRows:       st.touched.Load(),
		LastApplyNS:       st.lastApplyNS.Load(),
	}
	snap.Release()
	s.QueueDepth = st.queue.Len()
	if st.dur != nil {
		ls := st.dur.Log().Stats()
		s.Durable = true
		s.WALOffset = ls.Offset
		s.WALRecords = ls.Records
		s.WALSyncs = ls.Syncs
		s.LastCheckpointEpoch = st.lastCheckpoint.Load()
	}
	return s
}
