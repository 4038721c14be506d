// Package server exposes a runtime.Engine over HTTP/JSON: POST a pattern
// in the qbound text DSL, get its bounded-evaluation answer back. Because
// bounded evaluation makes per-query cost independent of |G| (the paper's
// guarantee), one process can serve many concurrent clients against a big
// graph; the server adds the production plumbing the engine itself does
// not carry — per-request deadlines and cancellation threaded down into
// core.Plan.Fetch, one LRU query cache keyed by the normalized pattern and
// query arguments (holding each query's parsed pattern, its bounded plan
// and, when the result cache is on, its last answer), and graceful
// shutdown.
//
// When updates are enabled the server is a read/write store: POST /update
// applies a graph.Delta through the engine's epoch-versioned store,
// publishing a new epoch snapshot that subsequent queries see
// immediately, while queries already in flight keep the epoch they were
// submitted under. Cached results are epoch-surviving: each entry carries
// the read footprint of its execution (core.Footprint), and an entry
// stale by epoch is revalidated against the store's recent-deltas ring —
// if the epochs since it was computed changed nothing it read, it is
// promoted in place and served without re-execution (see the cache
// section of docs/ARCHITECTURE.md for the invariant).
//
// Endpoints:
//
//	POST /query    evaluate a pattern (JSON body, see QueryRequest)
//	POST /update   apply a graph delta (JSON body, see graph.ReadDeltaJSON)
//	GET  /stats    engine counters, cache hit/miss, epoch, update counters
//	GET  /healthz  liveness probe (503 once the source has wedged)
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"boundedg/internal/access"
	"boundedg/internal/core"
	"boundedg/internal/graph"
	"boundedg/internal/hist"
	"boundedg/internal/match"
	"boundedg/internal/pattern"
	"boundedg/internal/runtime"
	"boundedg/internal/store"
	"boundedg/internal/sub"
	"boundedg/internal/wal"
)

// Config tunes a Server. The zero value picks sensible defaults.
type Config struct {
	// DefaultLimit is the match cap applied when a request does not set
	// one. Defaults to 100.
	DefaultLimit int
	// MaxLimit clamps per-request limits. Defaults to 10000.
	MaxLimit int
	// Timeout is the per-query evaluation deadline. A request may ask
	// for a shorter deadline, never a longer one. Defaults to 10s;
	// negative disables the server-side deadline.
	Timeout time.Duration
	// MaxSteps caps the subgraph search (VF2 search-tree visits) per
	// query. The matchers do not poll the context — the deadline stops
	// the fetch phase and is re-checked at the match boundary — so this
	// budget is what bounds a pathological match inside a fetched GQ.
	// Defaults to 5,000,000 (well under a second); negative disables.
	MaxSteps int
	// CacheSize is the number of query-cache entries. Defaults to 512;
	// negative disables result caching (compiled queries are still kept,
	// up to the default count).
	CacheSize int
	// EnableUpdates turns on POST /update (the boundedgd -mutable flag).
	// Off by default: a read-only deployment must not accept writes.
	EnableUpdates bool
	// WAL, when set on an unsharded durable daemon, turns on the
	// replication endpoints: GET /wal/checkpoint serves the current
	// checkpoint snapshot and GET /wal/stream serves committed log
	// records from an offset, then tails the live log (see
	// docs/OPERATIONS.md). Sharded daemons refuse them with 501 —
	// scatter/gather replication is not implemented.
	WAL *wal.Dir
	// Follower marks this server a read-only replica (boundedgd -follow):
	// POST /update is refused with a pointer at the primary.
	Follower bool
	// ReplicationStats, when set (follower mode), contributes the
	// "replication" block of GET /stats.
	ReplicationStats func() ReplicationStats
	// MaxSubs caps concurrent subscriptions (POST /subscribe, the
	// boundedgd -max-subs flag). 0 means the default of 64; negative
	// disables the subscription endpoints entirely.
	MaxSubs int
	// SubQueueCap bounds each subscription's pending event queue; a
	// consumer that falls further behind loses the incremental stream
	// and is forced through a resync event. Defaults to 64.
	SubQueueCap int
	// SubHeartbeat is the idle heartbeat interval on subscription event
	// streams. Defaults to 15s.
	SubHeartbeat time.Duration
	// SubWriteTimeout bounds each event-frame write, so a consumer that
	// stops reading cannot pin a stream handler (and a draining server)
	// indefinitely. Defaults to 5s.
	SubWriteTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.DefaultLimit <= 0 {
		c.DefaultLimit = 100
	}
	if c.MaxLimit <= 0 {
		c.MaxLimit = 10000
	}
	if c.Timeout == 0 {
		c.Timeout = 10 * time.Second
	}
	if c.MaxSteps == 0 {
		c.MaxSteps = 5_000_000
	}
	if c.MaxSteps < 0 {
		c.MaxSteps = 0 // match.SubgraphOptions: 0 = unlimited
	}
	if c.CacheSize == 0 {
		c.CacheSize = defaultCacheSize
	}
	if c.SubHeartbeat <= 0 {
		c.SubHeartbeat = 15 * time.Second
	}
	if c.SubWriteTimeout <= 0 {
		c.SubWriteTimeout = 5 * time.Second
	}
	return c
}

// defaultCacheSize is the query cache's default entry count.
const defaultCacheSize = 512

// QueryRequest is the body of POST /query.
type QueryRequest struct {
	// Pattern is the query in the text DSL of internal/pattern.Parse.
	Pattern string `json:"pattern"`
	// Sem selects the semantics: "subgraph" (default) or "simulation".
	Sem string `json:"sem,omitempty"`
	// Limit caps the number of matches returned (subgraph semantics).
	// 0 means the server default; values above the server maximum are
	// clamped.
	Limit int `json:"limit,omitempty"`
	// TimeoutMS lowers the evaluation deadline for this request, in
	// milliseconds. It can never raise it above the server's timeout.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// QueryResponse is the body of a successful POST /query.
type QueryResponse struct {
	// Sem echoes the semantics the query ran under.
	Sem string `json:"sem"`
	// Vars lists the pattern's node names, defining the column order of
	// Matches rows.
	Vars []string `json:"vars"`
	// Matches holds subgraph matches: Matches[k][i] is the data node
	// matched to Vars[i] in the k-th match, sorted lexicographically so
	// responses are deterministic and cacheable.
	Matches [][]graph.NodeID `json:"matches,omitempty"`
	// Count is the number of matches found; the search stops at the
	// limit, so use Complete (not Count vs len(Matches)) to detect
	// truncation.
	Count int `json:"count"`
	// Complete reports whether the search exhausted the match space
	// (false when the limit stopped it early).
	Complete bool `json:"complete"`
	// Sim holds the maximum simulation relation: node name -> sorted
	// data nodes (simulation semantics only).
	Sim map[string][]graph.NodeID `json:"sim,omitempty"`
	// Pairs is the size of the simulation relation.
	Pairs int `json:"pairs,omitempty"`
	// Stats carries the bounded-evaluation access accounting.
	Stats *core.ExecStats `json:"stats,omitempty"`
	// Vector is the per-shard epoch vector the query's consistent cut
	// pinned (sharded daemons only; see boundedgd -shards).
	Vector []uint64 `json:"vector,omitempty"`
	// Cached reports whether this response was served from the result
	// cache.
	Cached bool `json:"cached"`
	// ElapsedMS is the server-side handling time of this request.
	ElapsedMS float64 `json:"elapsed_ms"`
}

// ErrorResponse is the body of every non-2xx response. Violations is set
// only on 422s from POST /update, listing every constraint the delta
// would have broken.
type ErrorResponse struct {
	Error      string   `json:"error"`
	Violations []string `json:"violations,omitempty"`
}

// UpdateResponse is the body of a successful POST /update.
type UpdateResponse struct {
	// Epoch is the epoch this delta published; queries submitted from now
	// on observe it.
	Epoch uint64 `json:"epoch"`
	// NewIDs are the node IDs assigned to the delta's add_nodes, in
	// order (cite them in follow-up deltas).
	NewIDs []graph.NodeID `json:"new_ids,omitempty"`
	// TouchedRows counts the rows whose adjacency this update changed
	// (edge endpoints, deleted nodes and their neighbors, inserted
	// nodes) — the incremental maintenance work, independent of |G|.
	TouchedRows int `json:"touched_rows"`
	// LogOffset is the write-ahead-log offset this update's record ends
	// at — the update is durable through it (boundedgd -wal). Omitted on
	// a daemon without a WAL.
	LogOffset int64 `json:"log_offset,omitempty"`
	// Vector is the per-shard epoch vector this update published
	// (sharded daemons only); Epoch is then the global sequence number.
	Vector []uint64 `json:"vector,omitempty"`
	// ShardLogOffsets holds each shard's WAL offset for this update's
	// envelope records (sharded daemons with -wal; zero entries for
	// shards the delta did not touch).
	ShardLogOffsets []int64 `json:"shard_log_offsets,omitempty"`
	// ElapsedMS is the server-side handling time of this request.
	ElapsedMS float64 `json:"elapsed_ms"`
}

// UpdateStats reports the store's update counters in /stats. Batches
// counts group commits: under concurrent write bursts it drops below
// Applied, each batch publishing one epoch for many deltas.
type UpdateStats struct {
	Enabled           bool    `json:"enabled"`
	Applied           uint64  `json:"applied"`
	Batches           uint64  `json:"batches"`
	RejectedViolation uint64  `json:"rejected_violation"`
	RejectedError     uint64  `json:"rejected_error"`
	TouchedRows       uint64  `json:"touched_rows"`
	LastApplyMS       float64 `json:"last_apply_ms"`
	// ShardTxns counts shard write transactions begun (sharded daemons
	// only): ShardTxns/Batches is the mean commit fan-out — near 1 when
	// the participant-only fast path is doing its job on a well-
	// partitioned write stream.
	ShardTxns uint64 `json:"shard_txns,omitempty"`
	// Wedged reports that a WAL failure barred writes for good (every
	// /update answers 503 until a restart; reads keep the last durable
	// epoch). Omitted while healthy.
	Wedged bool `json:"wedged,omitempty"`
}

// WALStats reports the durability subsystem's state in /stats. Offset,
// Records and Syncs describe the current log (they reset when a
// checkpoint rotates it); LastCheckpointEpoch is the epoch recovery
// would replay from.
type WALStats struct {
	Enabled             bool   `json:"enabled"`
	Offset              int64  `json:"offset"`
	Records             uint64 `json:"records"`
	Syncs               uint64 `json:"syncs"`
	LastCheckpointEpoch uint64 `json:"last_checkpoint_epoch"`
}

// CacheStats reports the result cache's state in /stats. Hits counts
// every request served from the cache without re-execution; Revalidated
// is the subset of Hits where the entry was stale by epoch and promoted
// after its footprint proved disjoint from the changes. Misses counts
// requests that executed; Recomputed and RingOutrun are the subsets that
// found a stale entry but could not promote it — the footprint
// intersected the changes (or had overflowed), or the recent-deltas ring
// no longer covered the span. All counters stay zero on a disabled cache.
type CacheStats struct {
	Size        int    `json:"size"`
	Capacity    int    `json:"capacity"`
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Revalidated uint64 `json:"revalidated"`
	Recomputed  uint64 `json:"recomputed"`
	RingOutrun  uint64 `json:"ring_outrun"`
}

// LatencyStats reports the server-side handling-time histograms per op
// class in /stats — every /query and /update request observed from body
// read to response write (errors included), digested to p50/p95/p99/max.
// Load generators scrape this block to separate server time from
// client-side queueing and transport.
type LatencyStats struct {
	Query  hist.Summary `json:"query"`
	Update hist.Summary `json:"update"`
}

// ShardStats is one shard's block in a sharded daemon's /stats: its
// published epoch (the epoch-vector entry), its commit queue depth, and
// its own write-ahead log's figures.
type ShardStats struct {
	Shard      int      `json:"shard"`
	Epoch      uint64   `json:"epoch"`
	QueueDepth int      `json:"queue_depth"`
	WAL        WALStats `json:"wal"`
}

// StatsResponse is the body of GET /stats. On a sharded daemon
// (boundedgd -shards > 1), Epoch is the global sequence number, Vector
// the per-shard epoch vector, and Shards the per-shard breakdown; the
// top-level WAL block then only reports Enabled (offsets are per shard).
type StatsResponse struct {
	UptimeSec     float64            `json:"uptime_sec"`
	Epoch         uint64             `json:"epoch"`
	Vector        []uint64           `json:"vector,omitempty"`
	GraphNodes    int                `json:"graph_nodes"`
	GraphEdges    int                `json:"graph_edges"`
	Constraints   int                `json:"constraints"`
	Engine        runtime.Stats      `json:"engine"`
	Cache         CacheStats         `json:"cache"`
	Updates       UpdateStats        `json:"updates"`
	WAL           WALStats           `json:"wal"`
	Latency       LatencyStats       `json:"latency"`
	Shards        []ShardStats       `json:"shards,omitempty"`
	Replication   *ReplicationStats  `json:"replication,omitempty"`
	Subscriptions *SubscriptionStats `json:"subscriptions,omitempty"`
	Served        uint64             `json:"served"`
	Errors        uint64             `json:"errors"`
}

// SubscriptionStats reports the subscription hub's counters in /stats
// (omitted when subscriptions are disabled). Skipped counts epoch
// publications a subscription ignored because its footprint proved the
// answer unchanged; Skipped dwarfing Evals means the dispatcher is
// doing its job. Resyncs counts dropped incremental streams — slow
// consumers forced through a full-answer resync event.
type SubscriptionStats struct {
	Active  int    `json:"active"`
	Events  uint64 `json:"events"`
	Resyncs uint64 `json:"resyncs"`
	Skipped uint64 `json:"skipped"`
	Evals   uint64 `json:"evals"`
}

// Server serves bounded pattern queries over HTTP. Construct with New;
// either mount Handler on an existing server or use Serve plus Shutdown
// for the managed lifecycle.
type Server struct {
	eng *runtime.Engine
	in  *graph.Interner
	cfg Config

	cache *lru // cacheKey -> *cacheEntry

	// hub dispatches epoch publications to subscriptions; nil when
	// Config.MaxSubs is negative (subscriptions disabled).
	hub *sub.Hub

	mux   *http.ServeMux
	hs    *http.Server
	start time.Time

	// draining is closed by Shutdown. A graceful http.Server.Shutdown
	// waits for in-flight requests but never cancels their contexts, so
	// a long-lived /wal/stream tail would stall the drain for its whole
	// budget; the stream loop selects on this to end at a chunk boundary.
	draining  chan struct{}
	drainOnce sync.Once

	served, errors      atomic.Uint64
	latQuery, latUpdate hist.H

	// Result-cache accounting (see CacheStats). Hits/misses live here
	// rather than in the LRU because only the serving path knows whether
	// a stale entry revalidated or had to recompute.
	cacheHits, cacheMisses            atomic.Uint64
	cacheReval, cacheRecomp, cacheOut atomic.Uint64
}

// cacheEntry is one query-cache value: the pattern parsed against the
// served interner and its bounded plan (a plan depends only on the
// pattern and the schema, so it survives every epoch), plus — once the
// result cache has an answer — the cached response, the epoch (or GSN)
// it is valid at, and the read footprint of the execution that produced
// it. Entries are immutable: a new answer or a promotion to a newer epoch
// replaces the entry, guarded by PutIf so a racing slower writer can
// never roll an entry's epoch back.
type cacheEntry struct {
	q    *pattern.Pattern
	plan *core.Plan
	// planErr is the plan error of a pattern the schema does not bound
	// (plan is then nil). Boundedness depends only on the pattern and the
	// schema, so the entry answers every repeat with the same 422 and the
	// query never reaches the engine.
	planErr error

	resp  *QueryResponse // nil: compiled, no answer cached
	epoch uint64
	fp    *core.Footprint
}

// newer reports whether ent may replace old: an answer replaces a
// compiled-only entry or one computed at a strictly older epoch.
func (ent *cacheEntry) newer(old any) bool {
	o := old.(*cacheEntry)
	return ent.resp != nil && (o.resp == nil || o.epoch < ent.epoch)
}

// New returns a server over eng. in must be the interner shared by the
// engine's graph and schema, so parsed patterns agree on label identity.
func New(eng *runtime.Engine, in *graph.Interner, cfg Config) *Server {
	cfg = cfg.withDefaults()
	size := cfg.CacheSize
	if size < 0 {
		size = defaultCacheSize
	}
	s := &Server{
		eng:      eng,
		in:       in,
		cfg:      cfg,
		cache:    newLRU(size),
		mux:      http.NewServeMux(),
		start:    time.Now(),
		draining: make(chan struct{}),
	}
	if cfg.MaxSubs >= 0 {
		s.hub = sub.NewHub(eng, sub.Config{
			MaxSubs:  cfg.MaxSubs,
			QueueCap: cfg.SubQueueCap,
			Timeout:  cfg.Timeout,
			MaxSteps: cfg.MaxSteps,
		})
	}
	s.mux.HandleFunc("/query", s.handleQuery)
	s.mux.HandleFunc("/update", s.handleUpdate)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/wal/checkpoint", s.handleWALCheckpoint)
	s.mux.HandleFunc("/wal/stream", s.handleWALStream)
	s.mux.HandleFunc("POST /subscribe", s.handleSubscribe)
	s.mux.HandleFunc("GET /subscribe/{id}/events", s.handleSubscribeEvents)
	s.mux.HandleFunc("DELETE /subscribe/{id}", s.handleUnsubscribe)
	s.hs = &http.Server{
		Handler: s.mux,
		// Bound the whole request read, not just the headers: the
		// per-query deadline only starts after the body is decoded, so a
		// trickled body would otherwise pin a handler goroutine forever.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
	}
	return s
}

// Handler returns the server's routing handler, for mounting under
// httptest or an existing mux.
func (s *Server) Handler() http.Handler { return s.mux }

// Serve serves on l until Shutdown or a listener error.
func (s *Server) Serve(l net.Listener) error { return s.hs.Serve(l) }

// Shutdown gracefully stops the HTTP side: it stops accepting
// connections, ends any live /wal/stream tails at a chunk boundary, and
// waits (up to ctx) for in-flight requests to finish. In-flight queries
// keep their own deadlines; requests arriving after shutdown are
// refused by the closed listener. The engine is NOT closed here — the
// caller owns it.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainOnce.Do(func() {
		close(s.draining)
		if s.hub != nil {
			// Stop the dispatcher and close every subscription; live
			// event streams end at a frame boundary via draining/Closed.
			s.hub.Close()
		}
	})
	return s.hs.Shutdown(ctx)
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	s.errors.Add(1)
	s.writeJSON(w, status, ErrorResponse{Error: err.Error()})
}

// maxBodyBytes bounds POST /query bodies; patterns are tiny.
const maxBodyBytes = 1 << 20

// maxRequestTimeoutMS caps client-supplied timeout_ms (24h) so the
// Duration conversion cannot overflow.
const maxRequestTimeoutMS = 24 * 60 * 60 * 1000

// parseSem maps the wire name to core.Semantics.
func parseSem(name string) (core.Semantics, error) {
	switch name {
	case "", "subgraph":
		return core.Subgraph, nil
	case "simulation":
		return core.Simulation, nil
	}
	return 0, fmt.Errorf("unknown semantics %q (want subgraph or simulation)", name)
}

// compile returns the cache key of a query and its entry: the cached one
// on a hit, a freshly compiled one on a miss. src is parsed first and
// rendered back to the DSL (normalizing whitespace, comments and
// declaration order), so textual variants of the same query share one
// key. On a miss the pattern is parsed against the served interner and
// planned, and the entry is cached: a bounded pattern's with its plan, an
// unbounded one's with the plan error that answers it (see planErr).
//
// The first parse runs against a throwaway interner: interning is
// permanent, so untrusted label names must never reach the shared
// interner (a public daemon would otherwise leak a map entry per junk
// query for its whole lifetime). Labels unknown to the served graph are
// rejected — no constraint can cover them, so such queries could never
// be answered anyway.
func (s *Server) compile(src string, sem core.Semantics, limit int) (string, *cacheEntry, error) {
	probe, err := pattern.Parse(src, graph.NewInterner())
	if err != nil {
		return "", nil, err
	}
	key := cacheKey(probe.String(), sem, limit)
	if v, ok := s.cache.Get(key); ok {
		return key, v.(*cacheEntry), nil
	}
	for _, l := range probe.LabelSet() {
		name := probe.Interner().Name(l)
		if _, ok := s.in.Lookup(name); !ok {
			return "", nil, fmt.Errorf("unknown label %q", name)
		}
	}
	q, err := pattern.Parse(src, s.in)
	if err != nil {
		return "", nil, err
	}
	ent := &cacheEntry{q: q}
	p, err := core.NewPlan(q, s.eng.Schema(), sem)
	switch {
	case err == nil:
		ent.plan = p
	case errors.Is(err, core.ErrNotBounded):
		ent.planErr = err
	default:
		return key, ent, nil
	}
	s.cache.PutIf(key, ent, ent.newer)
	return key, ent, nil
}

// cacheKey identifies a query by what it asks, not when it was answered:
// the epoch deliberately stays OUT of the key, so an entry computed at an
// older epoch is still found after updates and gets the chance to
// revalidate instead of being recomputed. Staleness is handled at the
// entry level (cacheEntry.epoch plus the freshen path); a pre-update
// answer can never be served at a newer version without the footprint
// check vouching for it.
func cacheKey(canon string, sem core.Semantics, limit int) string {
	return fmt.Sprintf("%d|%d|%s", sem, limit, canon)
}

// freshen decides whether a cached answer may be served at the engine's
// current version (runtime.Engine.Certify is the proof). A current
// answer passes straight through; a stale one whose footprint the
// changes since missed is promoted in place — an O(|Δ|) set intersection
// instead of a re-execution — restamped with the epoch vector a fresh
// execution would pin on a sharded source. Otherwise it is recomputed,
// and the counters say why.
func (s *Server) freshen(key string, ent *cacheEntry) (*QueryResponse, bool) {
	epoch, vec, out := s.eng.Certify(ent.epoch, ent.fp)
	switch out {
	case runtime.Current:
		return ent.resp, true
	case runtime.Outrun:
		s.cacheOut.Add(1)
		return nil, false
	case runtime.Changed:
		s.cacheRecomp.Add(1)
		return nil, false
	}
	promoted := *ent
	promoted.epoch = epoch
	if vec != nil {
		resp := *ent.resp
		resp.Vector = vec
		promoted.resp = &resp
	}
	s.cache.PutIf(key, &promoted, promoted.newer)
	s.cacheReval.Add(1)
	return promoted.resp, true
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	defer s.latQuery.ObserveSince(started)
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	var req QueryRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	// A misspelled field (say "timeout" for "timeout_ms") must error,
	// not silently run the query under different parameters.
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	sem, err := parseSem(req.Sem)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	limit := req.Limit
	if limit <= 0 {
		limit = s.cfg.DefaultLimit
	}
	if limit > s.cfg.MaxLimit {
		limit = s.cfg.MaxLimit
	}
	if sem == core.Simulation {
		// Simulation always returns the full relation; folding the limit
		// out of the cache key stops identical sim queries with different
		// limits from duplicating cache entries.
		limit = 0
	}
	key, ent, err := s.compile(req.Pattern, sem, limit)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}

	cacheOn := s.cfg.CacheSize > 0
	if ent.resp != nil {
		if cached, ok := s.freshen(key, ent); ok {
			s.cacheHits.Add(1)
			resp := *cached // shallow copy; cached fields are read-only
			resp.Cached = true
			resp.ElapsedMS = float64(time.Since(started)) / float64(time.Millisecond)
			s.served.Add(1)
			s.writeJSON(w, http.StatusOK, resp)
			return
		}
	}
	if cacheOn {
		s.cacheMisses.Add(1)
	}
	if ent.planErr != nil {
		s.writeError(w, http.StatusUnprocessableEntity, ent.planErr)
		return
	}

	// The request context already dies with the client connection; layer
	// the evaluation deadline on top. Cancellation reaches core.Plan.Fetch
	// through the engine, so abandoned requests stop fetching.
	ctx := r.Context()
	timeout := s.cfg.Timeout
	if req.TimeoutMS > 0 {
		// Clamp before converting: a huge timeout_ms would overflow the
		// Duration multiply to a negative value and silently disable the
		// server deadline.
		ms := req.TimeoutMS
		if ms > maxRequestTimeoutMS {
			ms = maxRequestTimeoutMS
		}
		if t := time.Duration(ms) * time.Millisecond; timeout < 0 || t < timeout {
			timeout = t
		}
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	res := s.eng.Eval(ctx, runtime.Query{
		Pattern: ent.q,
		Sem:     sem,
		Sub:     match.SubgraphOptions{StoreMatches: true, MaxMatches: limit, MaxSteps: s.cfg.MaxSteps},
		Plan:    ent.plan,
		// The footprint makes the cached result epoch-surviving; without
		// a cache it would be recorded for nothing.
		NeedFootprint: cacheOn,
	})
	if res.Err != nil {
		switch {
		case errors.Is(res.Err, core.ErrNotBounded):
			s.writeError(w, http.StatusUnprocessableEntity, res.Err)
		case errors.Is(res.Err, context.DeadlineExceeded):
			s.writeError(w, http.StatusGatewayTimeout, fmt.Errorf("query deadline exceeded"))
		case errors.Is(res.Err, context.Canceled):
			// The client is gone; the status code is a formality.
			s.writeError(w, http.StatusServiceUnavailable, res.Err)
		case errors.Is(res.Err, runtime.ErrClosed):
			s.writeError(w, http.StatusServiceUnavailable, res.Err)
		default:
			s.writeError(w, http.StatusInternalServerError, res.Err)
		}
		return
	}

	resp := &QueryResponse{Sem: sem.String(), Stats: res.Stats, Vector: res.Vector}
	for _, u := range ent.q.Nodes() {
		resp.Vars = append(resp.Vars, ent.q.Name(u))
	}
	switch sem {
	case core.Subgraph:
		ms := make([][]graph.NodeID, len(res.Sub.Matches))
		for i, m := range res.Sub.Matches {
			ms[i] = append([]graph.NodeID(nil), m...)
		}
		match.SortMatches(ms)
		resp.Matches = ms
		resp.Count = res.Sub.Count
		resp.Complete = res.Sub.Completed
	case core.Simulation:
		resp.Sim = make(map[string][]graph.NodeID, len(resp.Vars))
		for ui, vs := range res.Sim.Sim {
			sorted := append([]graph.NodeID(nil), vs...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			resp.Sim[resp.Vars[ui]] = sorted
		}
		resp.Pairs = res.Sim.Pairs()
		resp.Complete = true
	}
	// Cache tagged with the epoch that actually produced the answer, and
	// only over a strictly older entry: two executions of the same query
	// may race, and the one that pinned the newer epoch must win no
	// matter which writes last.
	if cacheOn {
		next := &cacheEntry{q: ent.q, plan: ent.plan, resp: resp, epoch: res.Epoch, fp: res.Footprint}
		s.cache.PutIf(key, next, next.newer)
	}

	out := *resp
	out.ElapsedMS = float64(time.Since(started)) / float64(time.Millisecond)
	s.served.Add(1)
	s.writeJSON(w, http.StatusOK, out)
}

// maxUpdateBodyBytes bounds POST /update bodies; bulk deltas are larger
// than patterns but a batch should still be a batch, not a dataset load.
const maxUpdateBodyBytes = 16 << 20

// handleUpdate applies one graph.Delta through the epoch-versioned store.
// Labels in an ACCEPTED delta are interned into the shared interner:
// unlike /query, /update is a write endpoint whose whole point is
// introducing new labels and nodes, so the permanent interner entry is
// the intended effect. Novel labels in a delta that is rejected (400,
// 409 or 422) are never interned — ReadDeltaJSON stages them on the
// delta and the store commits them only on acceptance — so a rejected
// update leaves the interner exactly as it found it. Deploy /update
// behind write authorization, like any write API.
func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	defer s.latUpdate.ObserveSince(started)
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	if s.cfg.Follower {
		s.writeError(w, http.StatusForbidden, errors.New("this daemon is a read-only follower (-follow); send updates to the primary"))
		return
	}
	if !s.cfg.EnableUpdates {
		s.writeError(w, http.StatusForbidden, errors.New("updates are disabled (start the daemon with -mutable)"))
		return
	}
	d, err := graph.ReadDeltaJSON(http.MaxBytesReader(w, r.Body, maxUpdateBodyBytes), s.in)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	res, err := s.eng.ApplyDelta(d)
	if err != nil {
		var verr *access.ViolationError
		switch {
		case errors.As(err, &verr):
			// The delta would break an access constraint; the store
			// rejected it atomically — graph and indexes are untouched.
			msgs := make([]string, len(verr.Violations))
			for i, v := range verr.Violations {
				msgs[i] = v.Error()
			}
			s.errors.Add(1)
			s.writeJSON(w, http.StatusUnprocessableEntity, ErrorResponse{Error: err.Error(), Violations: msgs})
		case errors.Is(err, store.ErrClosed):
			s.writeError(w, http.StatusServiceUnavailable, err)
		default:
			// Structural conflict: a referenced node or edge does not
			// exist (or already exists) in the current epoch.
			s.writeError(w, http.StatusConflict, err)
		}
		return
	}
	s.served.Add(1)
	s.writeJSON(w, http.StatusOK, UpdateResponse{
		Epoch:           res.Epoch,
		NewIDs:          res.NewIDs,
		TouchedRows:     res.TouchedRows,
		LogOffset:       res.LogOffset,
		Vector:          res.Vector,
		ShardLogOffsets: res.ShardLogOffsets,
		ElapsedMS:       float64(time.Since(started)) / float64(time.Millisecond),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		s.writeError(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	// A disabled result cache reads as "no cache", whatever compiled
	// entries the LRU holds.
	size, capacity := 0, 0
	if s.cfg.CacheSize > 0 {
		size, capacity = s.cache.Len(), s.cfg.CacheSize
	}
	resp := StatsResponse{
		UptimeSec:   time.Since(s.start).Seconds(),
		Constraints: s.eng.Schema().Count(),
		Engine:      s.eng.Stats(),
		Cache: CacheStats{
			Size:        size,
			Capacity:    capacity,
			Hits:        s.cacheHits.Load(),
			Misses:      s.cacheMisses.Load(),
			Revalidated: s.cacheReval.Load(),
			Recomputed:  s.cacheRecomp.Load(),
			RingOutrun:  s.cacheOut.Load(),
		},
		Latency: LatencyStats{
			Query:  s.latQuery.Summarize(),
			Update: s.latUpdate.Summarize(),
		},
		Served: s.served.Load(),
		Errors: s.errors.Load(),
	}
	ss := s.eng.SourceStats()
	resp.Epoch, resp.Vector = ss.Epoch, ss.Vector
	resp.GraphNodes, resp.GraphEdges = int(ss.Nodes), int(ss.Edges)
	resp.Updates = UpdateStats{
		Enabled:           s.cfg.EnableUpdates,
		Applied:           ss.Applied,
		Batches:           ss.Batches,
		RejectedViolation: ss.RejectedViolation,
		RejectedError:     ss.RejectedError,
		TouchedRows:       ss.TouchedRows,
		LastApplyMS:       float64(ss.LastApplyNS) / 1e6,
		ShardTxns:         ss.ShardTxns,
		Wedged:            ss.Wedged,
	}
	resp.WAL = walStats(ss)
	for i, sh := range ss.Shards {
		resp.Shards = append(resp.Shards, ShardStats{Shard: i, Epoch: sh.Epoch, QueueDepth: sh.QueueDepth, WAL: walStats(sh)})
	}
	if s.cfg.ReplicationStats != nil {
		rs := s.cfg.ReplicationStats()
		resp.Replication = &rs
	}
	if s.hub != nil {
		hs := s.hub.Stats()
		resp.Subscriptions = &SubscriptionStats{
			Active:  hs.Active,
			Events:  hs.Events,
			Resyncs: hs.Resyncs,
			Skipped: hs.Skipped,
			Evals:   hs.Evals,
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// walStats renders one source's (or one shard's) WAL figures.
func walStats(ss store.Stats) WALStats {
	return WALStats{
		Enabled:             ss.Durable,
		Offset:              ss.WALOffset,
		Records:             ss.WALRecords,
		Syncs:               ss.WALSyncs,
		LastCheckpointEpoch: ss.LastCheckpointEpoch,
	}
}

// handleHealthz is the liveness probe. A wedged source still serves reads
// at its last durable epoch but refuses every write until a restart, so
// it reports 503: an orchestrator should replace the process.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.eng.SourceStats().Wedged {
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "wedged"})
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
