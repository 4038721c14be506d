package shard

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"boundedg/internal/access"
	"boundedg/internal/graph"
	"boundedg/internal/store"
	"boundedg/internal/wal"
)

// Result, Stats and Cut are the store's: a router reports through the
// same types as a single store, filling the router-only fields (Vector,
// ShardLogOffsets, ShardTxns, Shards, ShardOf). Epoch is the global
// sequence number (GSN) throughout; the counters are accounted at the
// router (per-shard store stats would double-count cross-shard deltas).
type (
	Result = store.Result
	Stats  = store.Stats
	Cut    = store.Cut
)

// Router owns one store per shard behind a deterministic node partition
// and coordinates cross-shard commits: updates queue on the store's
// group-commit Queue, split into per-shard sub-deltas, stage on every
// participant in shard order, get one global accept/reject verdict
// (cardinality bounds are summed across the row partition), log to each
// participant's own WAL concurrently, and publish atomically under the
// router's publication lock so the epoch vector is never observed
// half-advanced.
type Router struct {
	m       Map
	shardOf func(graph.NodeID) int // m.Of, bound once for the cuts
	stores  []*store.Store
	dirs    []*wal.Dir // nil entries when in-memory
	fsync   bool

	queue store.Queue
	lmu   sync.Mutex // leader lock: serializes commitBatch

	// mu is the publication lock: held for write while a batch commits
	// every shard's epoch, for read while a cut acquires every shard's
	// snapshot — a cut therefore always observes the vector at a batch
	// boundary.
	mu  sync.RWMutex
	gsn atomic.Uint64

	// clog is the router's recent-deltas ring, keyed by GSN with each
	// slot carrying the vector that GSN published. The shard stores'
	// own rings are disabled — per-shard epochs are useless to a cache
	// keyed by global sequence numbers.
	clog *store.ChangeLog

	seq    atomic.Uint64 // last assigned update sequence number
	nextID atomic.Int64  // next free global node ID
	nodes  atomic.Int64
	edges  atomic.Int64

	applied   atomic.Uint64
	batches   atomic.Uint64
	touched   atomic.Uint64
	rejViol   atomic.Uint64
	rejErr    atomic.Uint64
	shardTxns atomic.Uint64 // shard transactions begun: k per batch touching k shards

	// checkGlobal scratch, reused across batches (commitBatch is
	// serialized by lmu).
	scrTouched []access.TouchedEntry
	scrWorst   []int

	// pub fires each time a batch publishes a new GSN.
	pub store.Signal

	// hookBeforeShardLog, when set, runs immediately before shard s's
	// records are appended; an error fails that shard's log step with
	// nothing appended — the kill-point for "this shard never synced".
	hookBeforeShardLog func(s int) error
	// hookAfterShardLog, when set, runs after shard s's records are
	// durably logged (post-fsync) — the crash-injection point for torn
	// cross-shard batches. An error is treated as a log failure at that
	// point. Participants log concurrently, so crash tests coordinate the
	// two hooks to pin exactly which subset of shards synced.
	hookAfterShardLog func(s int) error
}

// newRouter returns a router shell over m: no stores or directories yet.
func newRouter(m Map, fsync bool) *Router {
	return &Router{
		m:       m,
		shardOf: m.Of,
		stores:  make([]*store.Store, m.Shards),
		dirs:    make([]*wal.Dir, m.Shards),
		fsync:   fsync,
		clog:    store.NewChangeLog(0),
	}
}

// New builds an in-memory router over g and idx split n ways. The inputs
// are consumed (partitioned into per-shard copies); the caller must not
// use them afterwards.
func New(g *graph.Graph, idx *access.IndexSet, nshards int) (*Router, error) {
	m, err := NewMap(nshards)
	if err != nil {
		return nil, err
	}
	graphs, idxs := Partition(g, idx, m)
	r := newRouter(m, false)
	for s := 0; s < nshards; s++ {
		r.stores[s] = store.New(graphs[s], idxs[s], store.WithRefreshFilter(m.ownsFn(s)), store.WithChangeLog(-1))
	}
	r.nextID.Store(int64(g.Cap()))
	r.nodes.Store(int64(g.NumNodes()))
	r.edges.Store(int64(g.NumEdges()))
	return r, nil
}

// Map returns the node partition.
func (r *Router) Map() Map { return r.m }

// NumShards returns the shard count.
func (r *Router) NumShards() int { return r.m.Shards }

// Schema returns the access schema (shared by every shard's index set).
func (r *Router) Schema() *access.Schema { return r.stores[0].Schema() }

// Epoch returns the router's published version: the current global
// sequence number (GSN).
func (r *Router) Epoch() uint64 { return r.gsn.Load() }

// PublishSignal returns a channel closed the next time a batch publishes
// a new GSN, with store.Signal's protocol: grab the channel before reading
// Epoch, then block; re-grab after each wake.
func (r *Router) PublishSignal() <-chan struct{} { return r.pub.Wait() }

// Store returns shard s's store (tests and stats).
func (r *Router) Store(s int) *store.Store { return r.stores[s] }

// AcquireCut pins the current epoch on every shard under the publication
// read lock, so the snapshots form exactly the vector a single commit
// boundary published — a query never mixes epochs.
func (r *Router) AcquireCut() *Cut {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c := &Cut{
		Snaps:   make([]*store.Snapshot, len(r.stores)),
		Vector:  make([]uint64, len(r.stores)),
		ShardOf: r.shardOf,
	}
	for i, st := range r.stores {
		s := st.Acquire()
		c.Snaps[i] = s
		c.Vector[i] = s.Epoch
	}
	c.Epoch = r.gsn.Load()
	return c
}

// Apply routes one delta through the cross-shard group commit. Semantics
// match store.Apply exactly: all-or-nothing across shards, structural
// errors and *access.ViolationError rejections leave every shard (and
// the global ID space) untouched, and on success the publishing cut is
// visible to AcquireCut before Apply returns.
func (r *Router) Apply(d *graph.Delta) (Result, error) {
	req := r.queue.Push(d)
	r.lead()
	return req.Wait()
}

// lead mirrors store.lead: every queued caller contends for the leader
// lock, the winner commits the whole queue.
func (r *Router) lead() {
	r.lmu.Lock()
	defer r.lmu.Unlock()
	if batch := r.queue.Take(); len(batch) > 0 {
		r.commitBatch(batch)
	}
}

// commitBatch runs one cross-shard group commit on the participant
// shards only, as one serial sequence on the leader's goroutine: the
// published snapshots serve as read views, a transaction opens lazily on
// the shards the batch actually stages onto, each delta stages on its
// participants in shard order, and only the participants' envelope
// records log concurrently, joining before the single atomic vector
// publication. A batch touching k of N shards therefore pays k writer
// locks, k fsyncs and k epoch bumps; the other shards' epochs simply skip
// the GSN — exactly the vector the all-shards protocol published, since
// an empty-staged Commit never bumped them either. Every request is
// settled before returning.
func (r *Router) commitBatch(batch []*store.Request) {
	n := r.m.Shards
	txns := make([]*store.Txn, n)
	txnsOpen := false
	snaps := make([]*store.Snapshot, n)
	for s := 0; s < n; s++ {
		snaps[s] = r.stores[s].Acquire()
	}
	defer func() {
		for _, sn := range snaps {
			sn.Release()
		}
	}()
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		// A panic mid-commit (a splitter/staging invariant violation, or a
		// participant's log step) on any shard poisons all of them —
		// including the shards the batch never opened: the batch never
		// published, the shadow states are suspect, and partial wedging
		// would desync the shards. Wedge everything (rewinding whatever
		// was logged), fail the waiters, re-panic.
		if txnsOpen {
			_ = r.wedgeAll(txns)
		}
		store.Settle(batch, fmt.Errorf("shard: commit panicked: %v", rec))
		panic(rec)
	}()
	graphs := func(s int) *graph.Graph {
		if txns[s] != nil {
			return txns[s].Graph()
		}
		return snaps[s].G
	}
	schema := r.Schema()
	durable := false
	for _, d := range r.dirs {
		if d != nil {
			durable = true
			break
		}
	}

	epoch := r.gsn.Load() + 1
	seq := r.seq.Load()
	nextID := graph.NodeID(r.nextID.Load())
	var accepted []*store.Request
	// stagedReqs[s] maps shard s's staged entries (in order) back to the
	// requests they belong to, for log-offset attribution.
	stagedReqs := make([][]*store.Request, n)
	nodeDelta, edgeDelta := 0, 0
	var totalRows uint64
	var batchRows []graph.NodeID // changed ∪ new rows across accepted deltas
	var batchLabels []graph.Label
	var beginErr error
reqs:
	for _, req := range batch {
		d := req.Delta
		if d.AddNodeIDs != nil {
			req.Err = fmt.Errorf("shard: delta may not pin node IDs")
			r.rejErr.Add(1)
			continue
		}
		// Resolve staged label names under the leader serialization (the
		// only place interner growth happens in a sharded store) BEFORE
		// splitDelta copies the specs into sub-deltas; novel names commit
		// only if the global verdict accepts the delta.
		commitLabels, rollbackLabels, err := d.ResolveLabels(snaps[0].G.Interner())
		if err != nil {
			req.Err = err
			r.rejErr.Add(1)
			continue
		}
		sp, err := splitDelta(d, r.m, graphs, nextID)
		if err != nil {
			rollbackLabels()
			req.Err = err
			r.rejErr.Add(1)
			continue
		}
		sds := make([]*access.StagedDelta, len(sp.parts))
		for i, t := range sp.parts {
			if txns[t] == nil {
				tx, err := r.stores[t].BeginTxn()
				if err != nil {
					rollbackLabels()
					beginErr = err
					break reqs
				}
				txns[t], txnsOpen = tx, true
				r.shardTxns.Add(1)
			}
			if sds[i], err = txns[t].Stage(sp.subs[t], seq+1, sp.parts); err != nil {
				// splitDelta validated the delta globally; a shard
				// refusing its sub-delta means the simulation and the
				// shard state disagree.
				panic(fmt.Sprintf("shard: shard %d rejected pre-validated sub-delta: %v", t, err))
			}
		}
		if viols := r.checkGlobal(txns, snaps, schema, sds); len(viols) > 0 {
			for i := len(sp.parts) - 1; i >= 0; i-- {
				txns[sp.parts[i]].UnstageLast()
			}
			rollbackLabels()
			req.Err = &access.ViolationError{Violations: viols}
			r.rejViol.Add(1)
			continue
		}
		commitLabels()
		seq++
		nextID += graph.NodeID(len(d.AddNodes))
		nodeDelta += sp.nodeDelta
		edgeDelta += sp.edgeDelta
		totalRows += uint64(sp.touched)
		batchRows = append(batchRows, sp.rows...)
		batchLabels = append(batchLabels, sp.labels...)
		req.Res = Result{NewIDs: sp.newIDs, TouchedRows: sp.touched, ShardLogOffsets: make([]int64, n)}
		for _, t := range sp.parts {
			stagedReqs[t] = append(stagedReqs[t], req)
		}
		accepted = append(accepted, req)
	}
	if beginErr != nil || len(accepted) == 0 {
		// Nothing to publish: every delta was rejected, or a shard refused
		// to open (closed or wedged) partway through the batch. Nothing is
		// logged yet, so abort every open transaction — unstaging any
		// already-accepted deltas — and on a refusal fail the batch
		// wholesale; per-delta rejections decided before it keep their own
		// verdicts.
		for s := n - 1; s >= 0; s-- {
			if txns[s] != nil {
				txns[s].Abort()
			}
		}
		txnsOpen = false
		store.Settle(batch, beginErr)
		return
	}

	// Durability: each participant logs its own envelope records
	// concurrently; the join gates publication, so the batch is durable
	// once every participant synced. Cross-shard ordering is not
	// load-bearing: recovery's reconciliation cut keeps a sequence only
	// if every participant durably holds it, whichever subset of shards
	// survived a crash. Any failure rewinds the whole batch here.
	parts := make([]int, 0, n)
	for s := 0; s < n; s++ {
		if len(stagedReqs[s]) > 0 {
			parts = append(parts, s)
		}
	}
	offsBy := make([][]int64, n)
	logErrs := make([]error, n)
	logPanics := make([]any, n)
	logOne := func(s int) {
		// A panic is held until every participant has joined: wedging
		// rewinds each shard's log, which must not race an append still
		// in flight on another participant.
		defer func() { logPanics[s] = recover() }()
		if r.hookBeforeShardLog != nil {
			if err := r.hookBeforeShardLog(s); err != nil {
				logErrs[s] = err
				return
			}
		}
		offs, err := txns[s].Log(epoch)
		if err == nil && r.hookAfterShardLog != nil {
			err = r.hookAfterShardLog(s)
		}
		offsBy[s], logErrs[s] = offs, err
	}
	if len(parts) <= 1 || !durable {
		// Without a WAL there is nothing to overlap — Log is a no-op per
		// shard — so skip the goroutine fan-out.
		for _, s := range parts {
			logOne(s)
		}
	} else {
		// Durable participants log concurrently even on one CPU: the
		// fsyncs block in the kernel, so their waits overlap.
		var wg sync.WaitGroup
		for _, s := range parts[1:] {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				logOne(s)
			}(s)
		}
		logOne(parts[0])
		wg.Wait()
	}
	for _, s := range parts {
		if p := logPanics[s]; p != nil {
			panic(p)
		}
	}
	for _, s := range parts {
		if err := logErrs[s]; err != nil {
			// Mirror the unsharded wedge path: the whole fleet wedges and
			// every request without a verdict of its own fails.
			werr := store.WedgeError(err, r.wedgeAll(txns))
			txnsOpen = false
			store.Settle(batch, werr)
			return
		}
	}
	for _, s := range parts {
		for i, req := range stagedReqs[s] {
			req.Res.ShardLogOffsets[s] = offsBy[s][i]
		}
	}

	// Publication: every open transaction commits, in shard order, under
	// the publication write lock, so cuts observe either no shard or
	// every shard at the new epoch. Open transactions whose staged deltas
	// were all rejected commit empty (just releasing the writer lock);
	// untouched shards keep their previous epoch in the vector.
	r.mu.Lock()
	for _, t := range txns {
		if t != nil {
			t.Commit(epoch)
		}
	}
	vector := make([]uint64, n)
	for s := 0; s < n; s++ {
		vector[s] = r.stores[s].Epoch()
	}
	// Record the batch's changes before the GSN becomes visible (still
	// under the publication lock): ChangedSince must cover through every
	// GSN a reader can observe, or a revalidation racing this commit
	// could promote a cached result across an unrecorded span.
	r.clog.Record(epoch, vector, batchRows, batchLabels)
	r.gsn.Store(epoch)
	r.mu.Unlock()
	r.pub.Fire()
	txnsOpen = false

	r.seq.Store(seq)
	r.nextID.Store(int64(nextID))
	r.nodes.Add(int64(nodeDelta))
	r.edges.Add(int64(edgeDelta))
	r.applied.Add(uint64(len(accepted)))
	r.batches.Add(1)
	r.touched.Add(totalRows)
	for _, req := range accepted {
		req.Res.Epoch = epoch
		req.Res.Vector = vector
	}
	store.Settle(batch, nil)
}

// ChangedSince reports the union of changes in GSNs (e, S], S ≥ the
// current GSN, as a store.ChangeSummary whose Vector is the epoch vector
// published at S — the vector a promoted cached result must report, since
// a fresh cut at S pins exactly it. ok is false when the ring was outrun,
// a bulk batch overflowed its slot, or e is ahead of everything recorded
// (with no commits recorded yet only the empty span e == GSN is vouched
// for).
func (r *Router) ChangedSince(e uint64) (store.ChangeSummary, bool) {
	return r.clog.Since(e, r.gsn.Load())
}

// checkGlobal evaluates the cardinality bounds for the entries a staged
// delta touched, summing each entry's size across the whole row
// partition — the sum is exactly the unsharded entry's size, so the
// verdict (and the reported worst counts) is bit-identical. At most one
// violation per constraint, in schema order, carrying the worst count.
// Shards without an open transaction contribute their published index —
// nothing staged on them this batch, so published and shadow agree.
func (r *Router) checkGlobal(txns []*store.Txn, snaps []*store.Snapshot, schema *access.Schema, sds []*access.StagedDelta) []access.Violation {
	touched := r.scrTouched[:0]
	for _, sd := range sds {
		touched = sd.AppendTouchedEntries(touched)
	}
	r.scrTouched = touched
	if cap(r.scrWorst) < schema.Count() {
		r.scrWorst = make([]int, schema.Count())
	}
	worst := r.scrWorst[:schema.Count()]
	for i := range worst {
		worst[i] = 0
	}
	for _, te := range touched {
		total := 0
		for s := range txns {
			if txns[s] != nil {
				total += txns[s].Index().EntryLen(te)
			} else {
				total += snaps[s].Idx.EntryLen(te)
			}
		}
		if total > schema.At(te.CIdx).N && total > worst[te.CIdx] {
			worst[te.CIdx] = total
		}
	}
	var viols []access.Violation
	for ci := range worst {
		if w := worst[ci]; w > 0 {
			viols = append(viols, access.Violation{Constraint: schema.At(ci), Count: w})
		}
	}
	return viols
}

// wedgeAll wedges every store — the ones the batch never opened a
// transaction on included, so the fleet fails in lockstep instead of
// letting their epochs drift from the global sequence — rewinding every
// record the batch already appended on any shard. It returns the first
// rewind failure.
func (r *Router) wedgeAll(txns []*store.Txn) error {
	var rewindErr error
	for s, t := range txns {
		if t == nil {
			r.stores[s].Wedge()
		} else if err := t.Wedge(); err != nil && rewindErr == nil {
			rewindErr = err
		}
	}
	return rewindErr
}

// Checkpoint checkpoints every shard's WAL at its current epoch. Shard
// checkpoints are independently consistent (each snapshot is a published
// shard epoch); recovery's sequence reconciliation re-aligns them.
func (r *Router) Checkpoint() error {
	var errs []error
	for s, st := range r.stores {
		if err := st.Checkpoint(); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", s, err))
		}
	}
	return errors.Join(errs...)
}

// Close closes every shard store (drains writers) and their WALs.
func (r *Router) Close() {
	for _, st := range r.stores {
		st.Close()
	}
}

// CloseDirs closes the shard WAL directories (after Close + a final
// Checkpoint).
func (r *Router) CloseDirs() error {
	var errs []error
	for s, d := range r.dirs {
		if d == nil {
			continue
		}
		if err := d.Close(); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", s, err))
		}
	}
	return errors.Join(errs...)
}

// Stats gathers router-level and per-shard statistics.
func (r *Router) Stats() Stats {
	st := Stats{
		Epoch:             r.gsn.Load(),
		Vector:            make([]uint64, len(r.stores)),
		Nodes:             r.nodes.Load(),
		Edges:             r.edges.Load(),
		Applied:           r.applied.Load(),
		Batches:           r.batches.Load(),
		RejectedViolation: r.rejViol.Load(),
		RejectedError:     r.rejErr.Load(),
		TouchedRows:       r.touched.Load(),
		ShardTxns:         r.shardTxns.Load(),
		Shards:            make([]store.Stats, len(r.stores)),
	}
	st.QueueDepth = r.queue.Len()
	for i, s := range r.stores {
		st.Shards[i] = s.Stats()
		st.Vector[i] = st.Shards[i].Epoch
		st.Wedged = st.Wedged || st.Shards[i].Wedged
		st.Durable = st.Durable || st.Shards[i].Durable
	}
	return st
}
