// Package runtime provides the concurrent bounded-evaluation engine: it
// serves many pattern queries at once, each on its caller's goroutine
// under a concurrency limit, against one shared data graph and
// access-constraint index set. Because bounded evaluation makes each
// query's cost independent of |G| (the paper's central guarantee),
// throughput under heavy traffic is gated purely by per-query constant
// factors — which the engine attacks by reading the graph through frozen
// CSR snapshots.
//
// The engine reads and writes through one Source — a store.Store, or a
// shard.Router over several: every evaluation pins the cut current when
// it is admitted (one snapshot per shard, all from one commit boundary)
// and the query evaluates against that version end to end, so concurrent
// writers publishing new epochs never change a query's view mid-flight.
// The engine caches nothing: a plan depends only on the pattern and the
// schema, so the caller that sees the query text compiles it once and
// passes it on Query.Plan. Result semantics do depend on the version —
// Result carries the epoch it was computed at, and Certify decides
// whether an answer computed at an older epoch still holds.
package runtime

import (
	"context"
	"errors"
	stdruntime "runtime"
	"sync"
	"sync/atomic"

	"boundedg/internal/access"
	"boundedg/internal/core"
	"boundedg/internal/graph"
	"boundedg/internal/match"
	"boundedg/internal/pattern"
	"boundedg/internal/shard"
	"boundedg/internal/store"
)

// Errors returned by the engine.
var (
	ErrClosed   = errors.New("runtime: engine is closed")
	ErrNilQuery = errors.New("runtime: query has no pattern")
)

// Config tunes an Engine. The zero value picks sensible defaults.
type Config struct {
	// Workers is the most queries evaluated at once; further callers wait
	// for a slot. Defaults to GOMAXPROCS.
	Workers int
}

// Query is one unit of work for the engine.
type Query struct {
	// Pattern is the pattern query to evaluate.
	Pattern *pattern.Pattern
	// Sem selects the matching semantics (subgraph or simulation).
	Sem core.Semantics
	// Sub configures subgraph matching (ignored for simulation).
	Sub match.SubgraphOptions
	// Plan, when non-nil, is used instead of planning the pattern. It
	// must be a plan for Pattern under the engine's schema and Sem.
	// Without it, every evaluation plans Pattern afresh.
	Plan *core.Plan
	// NeedFootprint records the execution's read set (see core.Footprint)
	// and returns it on Result.Footprint — the input of the server
	// cache's delta-intersection revalidation. Off by default: recording
	// costs a map insert per fetched candidate.
	NeedFootprint bool
}

// Result is the outcome of one query: what the plan fetched (a
// BoundedGraph from core.Plan.Fetch: candidates and candidate space, no
// materialized GQ) with its access statistics, and the match relation
// (in the source graph's node IDs) under the requested semantics. Stats
// may be non-nil even when Err is a cancellation error raised after the
// fetch phase completed — it accounts for the data actually accessed.
// Epoch is the source version the query was evaluated against (the one
// current when it was admitted); it is set whenever the query was
// admitted, errors included.
type Result struct {
	BG    *core.BoundedGraph
	Stats *core.ExecStats
	Sub   *match.SubgraphResult
	Sim   *match.SimResult
	Epoch uint64
	// Vector is the per-shard epoch vector the query's cut pinned (see
	// store.Cut): nil over a single store; over a router, Epoch is the
	// cut's global sequence number and Vector its per-shard epochs.
	Vector []uint64
	// Footprint is the execution's read set, set only on success and only
	// when the query asked for it (Query.NeedFootprint).
	Footprint *core.Footprint
	Err       error
}

// Source is the versioned backend an engine serves from: it pins
// consistent cuts for readers, applies deltas for writers, and reports
// what changed between versions. *store.Store and *shard.Router both
// satisfy it; nothing above this interface knows which one it holds.
type Source interface {
	// Schema returns the access schema (immutable across versions).
	Schema() *access.Schema
	// AcquireCut pins the current version; the caller must Release it.
	AcquireCut() *store.Cut
	// Epoch returns the current version without pinning.
	Epoch() uint64
	// PublishSignal returns a channel closed at the next publication;
	// grab it BEFORE reading Epoch so no publication can be missed.
	PublishSignal() <-chan struct{}
	// ChangedSince summarizes the changes after version e, or reports
	// that its recent-deltas ring cannot vouch for the span.
	ChangedSince(e uint64) (store.ChangeSummary, bool)
	// Apply group-commits one delta; see store.Store.Apply.
	Apply(d *graph.Delta) (store.Result, error)
	// Stats observes the update counters, WAL figures and wedge state.
	Stats() store.Stats
	// Checkpoint bounds recovery replay (store.ErrNotDurable without a WAL).
	Checkpoint() error
	// Close bars further writes; readers are unaffected.
	Close()
}

// Stats are the engine's cumulative counters.
type Stats struct {
	// Submitted, Completed and Failed count admitted queries; Failed is
	// the subset of Completed whose Result carried an error.
	Submitted, Completed, Failed uint64
	// NodesAccessed and EdgesAccessed aggregate the per-query ExecStats.
	NodesAccessed, EdgesAccessed uint64
}

// Engine evaluates bounded pattern queries concurrently against one shared
// Source. Construct with New (owning a fresh store over a graph + index
// set), NewFromStore or NewFromRouter (sharing a source whose writers apply
// live updates), feed with Eval and shut down with Close. Each
// query evaluates against the cut current when it is admitted; the
// source's writers may publish new epochs concurrently.
type Engine struct {
	src    Source
	schema *access.Schema // immutable across epochs

	// slots is the concurrency limit: an evaluation holds one token. Close
	// closes closed, then takes every slot, so it returns only once the
	// evaluations in flight have finished.
	slots     chan struct{}
	closed    chan struct{}
	closeOnce sync.Once

	submitted, completed, failed atomic.Uint64
	nodesAccessed, edgesAccessed atomic.Uint64
}

// New starts an engine over g and its index set, wrapping them in a fresh
// store. The engine reads through frozen CSR snapshots, so the hot path
// never probes the graph's edge map; never mutate g directly once the
// engine is live — updates go through ApplyDelta.
func New(g *graph.Graph, idx *access.IndexSet, cfg Config) (*Engine, error) {
	return NewFromSource(store.New(g, idx), cfg)
}

// NewFromStore starts an engine over a single store.
func NewFromStore(st *store.Store, cfg Config) (*Engine, error) { return NewFromSource(st, cfg) }

// NewFromRouter starts an engine over a sharded router: queries evaluate
// scatter/gather over each cut (core.ExecConfig.Shards), producing answers
// bit-identical to an engine over one store holding the same logical graph.
func NewFromRouter(r *shard.Router, cfg Config) (*Engine, error) { return NewFromSource(r, cfg) }

// NewFromSource starts an engine reading from src. The caller keeps
// writing to src (Apply) while the engine serves; each query sees the
// version current when it is admitted.
func NewFromSource(src Source, cfg Config) (*Engine, error) {
	if src == nil {
		return nil, errors.New("runtime: engine needs a source")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = stdruntime.GOMAXPROCS(0)
	}
	return &Engine{
		src:    src,
		schema: src.Schema(),
		slots:  make(chan struct{}, cfg.Workers),
		closed: make(chan struct{}),
	}, nil
}

// Schema returns the access schema the engine serves.
func (e *Engine) Schema() *access.Schema { return e.schema }

// Version returns the source's current publication version: the store
// epoch, or the router's global sequence number. Cache keys derived from
// it invalidate on every published update either way.
func (e *Engine) Version() uint64 { return e.src.Epoch() }

// PublishSignal returns a channel closed the next time a new version is
// published. One-shot level trigger: grab the channel before reading
// Version, act, then block on it; re-grab after each wake. Subscription
// dispatchers use this to sleep between commits without polling.
func (e *Engine) PublishSignal() <-chan struct{} { return e.src.PublishSignal() }

// Freshness is Certify's verdict on an answer computed at an older
// version.
type Freshness int

const (
	// Current: the answer's epoch is the current version or newer.
	Current Freshness = iota
	// Promoted: every change since the answer's epoch missed its
	// footprint, so a fresh evaluation would return the same bytes.
	Promoted
	// Outrun: the source's recent-deltas ring no longer covers the span.
	Outrun
	// Changed: the footprint is missing, overflowed, or meets the changes.
	Changed
)

// Certify decides whether an answer computed at epoch, whose execution
// read the footprint fp, still holds at the current version. It is the
// one freshness proof behind the server's result cache and the
// subscription hub: if the source's recent-deltas ring vouches for every
// version since epoch and no changed row or inserted/deleted node's label
// meets fp, the answer is bit-identical at the newer version. On Current
// it returns epoch and a nil vector; on Promoted it returns the version
// the answer now holds at and, over a sharded source, the epoch vector a
// fresh cut there pins (nil over a single store) — the vector a promoted
// response must report. The other outcomes certify nothing.
func (e *Engine) Certify(epoch uint64, fp *core.Footprint) (uint64, []uint64, Freshness) {
	ver := e.src.Epoch()
	if epoch >= ver {
		return epoch, nil, Current
	}
	sum, ok := e.src.ChangedSince(epoch)
	if !ok {
		return 0, nil, Outrun
	}
	if sum.Epoch < ver || fp == nil || !fp.Disjoint(sum.Rows, sum.Labels) {
		return 0, nil, Changed
	}
	return sum.Epoch, sum.Vector, Promoted
}

// ApplyDelta applies one delta through the source — the store's group
// commit, or the router's cross-shard commit — with identical
// accept/reject semantics either way.
func (e *Engine) ApplyDelta(d *graph.Delta) (store.Result, error) { return e.src.Apply(d) }

// SourceStats observes the source: version, live graph counts, update
// counters, WAL figures, wedge state.
func (e *Engine) SourceStats() store.Stats { return e.src.Stats() }

// Eval evaluates q on the calling goroutine. At most Config.Workers
// evaluations run at once; a caller over the limit waits for a slot, and
// gives up with ctx.Err() if its context dies first, or with ErrClosed
// once the engine closes. Through core.Plan.Fetch the context can also
// abandon an evaluation in flight. A nil ctx means "never cancelled".
//
// The query is bound to the cut current once it holds a slot — a waiting
// caller pins no snapshot — and updates published while it evaluates do
// not affect it.
func (e *Engine) Eval(ctx context.Context, q Query) Result {
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case e.slots <- struct{}{}:
	case <-e.closed:
		return Result{Err: ErrClosed}
	case <-ctx.Done():
		return Result{Err: ctx.Err()}
	}
	defer func() { <-e.slots }()
	select {
	case <-e.closed: // Close began while this caller took its slot
		return Result{Err: ErrClosed}
	default:
	}
	e.submitted.Add(1)
	cut := e.src.AcquireCut()
	defer cut.Release()
	// core.Plan.Fetch reads a one-snapshot cut without routing a single
	// node, so a single store pays no scatter/gather. With no Scratch,
	// Fetch borrows one from its pool; a context already dead stops it
	// before it touches the graph.
	cfg := core.ExecConfig{Ctx: ctx, Shards: make([]core.ShardView, len(cut.Snaps)), ShardOf: cut.ShardOf}
	for i, sn := range cut.Snaps {
		cfg.Shards[i] = core.ShardView{G: sn.G, Fz: sn.Fz, Idx: sn.Idx}
	}
	if q.NeedFootprint {
		cfg.Footprint = core.NewFootprint()
	}
	res := e.eval(q, &cfg, cut.Epoch, cut.Vector)
	e.completed.Add(1)
	if res.Err != nil {
		e.failed.Add(1)
	}
	// Count accesses whenever a fetch ran, failed queries included —
	// under a timeout storm the counters must still reflect the work
	// actually done against the graph.
	if st := res.Stats; st != nil {
		e.nodesAccessed.Add(uint64(st.NodesAccessed))
		e.edgesAccessed.Add(uint64(st.EdgesAccessed))
	}
	return res
}

// Close bars new evaluations, which then return ErrClosed, and waits for
// those in flight to finish. It is idempotent and safe to call
// concurrently with Eval and with itself.
func (e *Engine) Close() {
	e.closeOnce.Do(func() {
		close(e.closed)
		for range cap(e.slots) {
			e.slots <- struct{}{}
		}
	})
}

// Stats returns a snapshot of the engine's cumulative counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Submitted:     e.submitted.Load(),
		Completed:     e.completed.Load(),
		Failed:        e.failed.Load(),
		NodesAccessed: e.nodesAccessed.Load(),
		EdgesAccessed: e.edgesAccessed.Load(),
	}
}

// eval runs one query end to end against the pinned cut already loaded
// into cfg.Shards: plan (unless the caller brought one), fetch GQ's
// candidate space through the indices (GQ itself is never built), then
// match on the space and map the relation back to the source graph's IDs.
func (e *Engine) eval(q Query, cfg *core.ExecConfig, epoch uint64, vector []uint64) Result {
	if q.Pattern == nil {
		return Result{Err: ErrNilQuery, Epoch: epoch, Vector: vector}
	}
	p := q.Plan
	if p == nil {
		var err error
		if p, err = core.NewPlan(q.Pattern, e.schema, q.Sem); err != nil {
			return Result{Err: err, Epoch: epoch, Vector: vector}
		}
	}
	bg, stats, err := p.Fetch(nil, nil, cfg)
	if err != nil {
		return Result{Err: err, Epoch: epoch, Vector: vector}
	}
	res := Result{BG: bg, Stats: stats, Epoch: epoch, Vector: vector, Footprint: cfg.Footprint}
	// The matchers do not poll the context internally (bounding their
	// work is SubgraphOptions.MaxSteps' job), so check at the phase
	// boundaries: don't start matching for a dead caller, and don't
	// report a late success — a deadline that expired mid-match must
	// surface as the cancellation error, or the server would serve (and
	// cache) a 200 past its deadline.
	ctxErr := func() error {
		if cfg.Ctx == nil {
			return nil
		}
		return cfg.Ctx.Err()
	}
	// A boundary cancel keeps Stats: the fetch ran, so its access
	// accounting is real even though no result is returned.
	if err := ctxErr(); err != nil {
		return Result{Err: err, Stats: stats, Epoch: epoch, Vector: vector}
	}
	switch q.Sem {
	case core.Subgraph:
		sub := match.VF2InSpace(p.Q, bg.Space, q.Sub)
		bg.MapSubgraphResult(sub)
		res.Sub = sub
	case core.Simulation:
		sim := match.GSimInSpace(p.Q, bg.Space)
		bg.MapSimResult(sim)
		res.Sim = sim
	}
	if err := ctxErr(); err != nil {
		return Result{Err: err, Stats: stats, Epoch: epoch, Vector: vector}
	}
	return res
}
