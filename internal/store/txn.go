package store

import (
	"fmt"
	"time"

	"boundedg/internal/access"
	"boundedg/internal/graph"
	"boundedg/internal/wal"
)

// Txn is one exclusive write transaction on a store, and the only
// implementation of the writer sequence: begin (take the writer lock,
// prepare the shadow instance) → Stage deltas and settle their verdicts →
// Log the survivors → Commit (publish the epoch), with Abort and Wedge as
// the failure exits. It has three callers: the group-commit leader behind
// Apply, ApplyReplicated, and the shard router, which holds one Txn per
// participant shard at the same stage so a cross-shard batch decides,
// logs and publishes as a unit.
//
// The writer lock is held from begin until Commit, Abort or Wedge, so
// exactly one of those must end every transaction.
type Txn struct {
	st      *Store
	cur     *Snapshot // published snapshot at begin; stable while we hold st.mu
	started time.Time
	staged  []txnEntry
	wlog    *wal.Log // set once Log may have appended; nil again after publish
	pre     wal.LogStats
	done    bool // writer lock released
}

// txnEntry is one staged delta. d is the transaction's private copy: the
// lag-replay source and the log payload. labels are the labels of the
// nodes d inserts or deletes (change ring only). A non-nil shards marks a
// router sub-delta, logged as an envelope record carrying seq and the
// participant set; a nil one is logged as a plain record.
type txnEntry struct {
	sd     *access.StagedDelta
	d      *graph.Delta
	labels []graph.Label
	seq    uint64
	shards []int
}

// BeginTxn takes the writer lock and prepares the shadow instance: clone
// it on the first write ever, wait out the readers of the epoch that last
// exposed it, replay the deltas it is behind by. A closed or wedged store
// refuses (see refuse) with the lock released.
func (st *Store) BeginTxn() (*Txn, error) {
	st.mu.Lock()
	t := &Txn{st: st}
	if err := t.begin(); err != nil {
		return nil, err
	}
	return t, nil
}

// begin is BeginTxn after the lock: the caller already holds st.mu.
func (t *Txn) begin() error {
	defer t.guard()
	st := t.st
	if err := st.refuse(); err != nil {
		t.unlock()
		return err
	}
	t.started = time.Now()
	t.cur = st.cur.Load()
	if st.shadow == nil {
		// First update ever: materialize the second instance.
		st.shadow = &state{g: t.cur.G.Clone(), idx: t.cur.Idx.Clone()}
	}
	// The shadow instance may still be pinned by readers of the epoch that
	// last exposed it; they must drain before we mutate under them.
	st.waitDrained(st.prev)
	st.prev = nil
	for _, ld := range st.lag {
		// Catch the shadow up with the deltas the published instance has
		// already absorbed. They were accepted there, and the instances
		// were identical before them, so they must replay cleanly.
		if err := st.shadow.idx.ReplayDelta(st.shadow.g, ld.d, ld.rows); err != nil {
			panic("store: lag replay diverged: " + err.Error())
		}
	}
	if len(st.lag) > 0 {
		// The shadow now holds the published entries, whose index read
		// forms the published instance already carries.
		st.shadow.idx.ShareReadForms(t.cur.Idx)
	}
	st.lag = nil
	return nil
}

// guard is deferred around every stretch that runs under the writer lock:
// a panic there is an invariant violation (diverged lag replay, poisoned
// maintenance) that leaves the shadow suspect, so the store wedges — which
// also releases the lock — before the panic propagates.
func (t *Txn) guard() {
	if p := recover(); p != nil {
		_ = t.Wedge()
		panic(p)
	}
}

func (t *Txn) unlock() {
	t.done = true
	t.st.mu.Unlock()
}

// Graph returns the staged (shadow) graph — the caught-up state deltas
// stage onto. The router's delta splitter reads it for validation and
// stub construction. Valid only while the transaction is open.
func (t *Txn) Graph() *graph.Graph { return t.st.shadow.g }

// Index returns the staged (shadow) index set. The router reads entry
// sizes from it to aggregate cardinality bounds across shards.
func (t *Txn) Index() *access.IndexSet { return t.st.shadow.idx }

// Stage applies one delta to the shadow state, deferring the verdict.
// seq and shards are the envelope metadata a router sub-delta is logged
// with (the router-wide update sequence number and the participant
// shards); a single store passes a nil shards. The transaction takes
// ownership of d, so the caller must not reuse or mutate it afterwards.
// On a structural error nothing is staged. A staged delta must be settled
// — by UnstageLast, or by the transaction-level Commit/Abort — before the
// next Stage's rollback can be valid.
func (t *Txn) Stage(d *graph.Delta, seq uint64, shards []int) (*access.StagedDelta, error) {
	g := t.st.shadow.g
	var labels []graph.Label
	if t.st.clog != nil {
		// Type-1 index entries shift on exactly the labels of inserted and
		// deleted nodes. Deleted labels must be read before the stage tears
		// the nodes down; the shadow already holds every earlier delta.
		for _, sp := range d.AddNodes {
			labels = append(labels, sp.Label)
		}
		for _, v := range d.DelNodes {
			if g.Contains(v) {
				labels = append(labels, g.LabelOf(v))
			}
		}
	}
	sd, err := t.st.shadow.idx.StageDelta(g, d)
	if err != nil {
		return nil, err
	}
	t.staged = append(t.staged, txnEntry{sd: sd, d: d, labels: labels, seq: seq, shards: shards})
	return sd, nil
}

// UnstageLast rolls back the most recently staged delta — the rejection
// path of a verdict taken after staging.
func (t *Txn) UnstageLast() {
	n := len(t.staged)
	e := t.staged[n-1]
	t.staged = t.staged[:n-1]
	e.sd.Rollback()
}

// stageLocal stages a private copy of d and settles its verdict against
// this store's own bounds — the single-store form of the router's global
// check. Staged label names resolve under the writer lock, the only place
// interner growth is serialized; novel names commit only on acceptance, so
// a rejected delta rolls back to its staged form and leaks nothing. The
// copy keeps the lag replay and the log reproducing exactly what the
// published instance absorbed whatever the caller does with d afterwards.
func (t *Txn) stageLocal(d *graph.Delta) (*access.DeltaResult, error) {
	commitLabels, rollbackLabels, err := d.ResolveLabels(t.Graph().Interner())
	if err != nil {
		return nil, err
	}
	sd, err := t.Stage(d.Clone(), 0, nil)
	if err != nil {
		rollbackLabels()
		return nil, err
	}
	if viols := sd.Violations(); len(viols) > 0 {
		t.UnstageLast()
		rollbackLabels()
		return nil, &access.ViolationError{Violations: viols}
	}
	commitLabels()
	return sd.Result(), nil
}

// Log appends one record per staged delta at the given epoch and, when
// the store syncs, fsyncs once — the durability point. It returns the
// post-record log offsets in staged order; on a store without a WAL the
// offsets are zero. On error the transaction must end in Wedge, which
// rewinds whatever was appended.
func (t *Txn) Log(epoch uint64) ([]int64, error) {
	offs := make([]int64, len(t.staged))
	if t.st.dur == nil {
		return offs, nil
	}
	t.wlog = t.st.dur.Log()
	t.pre = t.wlog.Stats()
	for i, e := range t.staged {
		if t.st.hookAppend != nil {
			if err := t.st.hookAppend(i); err != nil {
				return nil, err
			}
		}
		var err error
		if e.shards == nil {
			offs[i], err = t.wlog.Append(epoch, e.d)
		} else {
			offs[i], err = t.wlog.AppendEnvelope(epoch, &wal.Envelope{Seq: e.seq, Shards: e.shards, AddIDs: e.d.AddNodeIDs, Delta: e.d})
		}
		if err != nil {
			return nil, err
		}
	}
	if t.st.fsync {
		if err := t.wlog.Sync(); err != nil {
			return nil, err
		}
	}
	return offs, nil
}

// Commit publishes the staged deltas as the given epoch and releases the
// writer lock. With nothing staged (a router shard that sat the batch
// out) no snapshot is published — the shard's epoch simply skips the
// global sequence number. The router calls Commit on every shard under
// its publication write lock, so queries pinning a cut never observe the
// vector half-advanced.
func (t *Txn) Commit(epoch uint64) {
	defer t.guard()
	if len(t.staged) > 0 {
		t.publish(epoch)
	}
	t.unlock()
}

// publish makes the staged state the current snapshot and rotates the
// instances. Order matters twice: the change ring records the epoch
// BEFORE the pointer swap, so ChangedSince covers through every epoch a
// reader can observe and a revalidation racing this publication can never
// promote across an unrecorded span; and the log's published offset
// advances only AFTER it, so a replication stream never serves records of
// an epoch no reader could have seen.
func (t *Txn) publish(epoch uint64) {
	st, cur := t.st, t.cur
	// all is the full changed-row set for the change ring — pre-ownership-
	// filter: non-owned stub rows still carry adjacency a footprint may
	// have read. owned is what this store's Frozen must re-read, which is
	// also exactly what the lag replay maintains (see lagRows).
	var all, owned []graph.NodeID
	var labels []graph.Label
	lag := make([]lagEntry, len(t.staged))
	for i, e := range t.staged {
		touched := e.sd.Result().Touched // includes the new IDs
		all = append(all, touched...)
		labels = append(labels, e.labels...)
		lag[i] = lagEntry{d: e.d, rows: st.lagRows(touched)}
		owned = append(owned, lag[i].rows...)
	}
	if st.clog != nil {
		st.clog.Record(epoch, nil, all, labels)
	}
	st.cur.Store(&Snapshot{
		G:     st.shadow.g,
		Fz:    cur.Fz.Refresh(st.shadow.g, owned),
		Idx:   st.shadow.idx,
		Epoch: epoch,
		st:    st.shadow,
	})
	st.pub.Fire()
	if t.wlog != nil {
		// The epoch is visible: its records are immutable history now
		// (appends are quiesced under st.mu, so Stats().Offset is exactly
		// the end of this batch's records) and must never be rewound.
		t.wlog.PublishTo(t.wlog.Stats().Offset)
		t.wlog = nil
	}
	cur.retired.Store(true)
	st.prev = cur
	st.shadow = cur.st
	st.lag = lag

	st.applied.Add(uint64(len(t.staged)))
	st.batches.Add(1)
	st.touched.Add(uint64(len(all)))
	st.lastApplyNS.Store(time.Since(t.started).Nanoseconds())
}

// Abort rolls back every staged delta (newest first) and releases the
// writer lock; the published state is untouched.
func (t *Txn) Abort() {
	defer t.guard()
	for len(t.staged) > 0 {
		t.UnstageLast()
	}
	t.unlock()
}

// Wedge ends the transaction by poisoning the store — the exit for a WAL
// failure, a diverged replica, or a panic mid-sequence. Records this
// transaction appended are rewound out of the log, so a later recovery
// cannot replay updates whose callers are about to be told they did not
// commit; the mutated shadow stays invisible and is abandoned; writes are
// refused from here on while readers keep the last published epoch. The
// returned error is the rewind's: non-nil means the orphan records stay
// and a restart may resurrect the batch (see WedgeError). Safe on an
// already-ended transaction, where it only marks the store.
func (t *Txn) Wedge() error {
	if t.done {
		t.st.Wedge()
		return nil
	}
	var err error
	if t.wlog != nil {
		err = t.wlog.Rewind(t.pre)
	}
	t.st.closed = true
	t.st.wedged.Store(true)
	t.unlock()
	return err
}

// WedgeError is the error every caller of a batch lost to a wedge gets:
// ErrWedged, the failure that caused it and — when the log rewind failed
// too — the warning that recovery may replay the batch anyway.
func WedgeError(cause, rewindErr error) error {
	if rewindErr != nil {
		return fmt.Errorf("%w; update not committed: %v (log rewind also failed: %v; recovery may replay this batch)", ErrWedged, cause, rewindErr)
	}
	return fmt.Errorf("%w; update not committed: %v", ErrWedged, cause)
}
