// Package sub implements continuous queries: subscriptions that follow
// epoch publication and stream incremental answer diffs.
//
// A Hub owns one dispatcher goroutine that sleeps on the engine's
// publish signal. On each published epoch it walks the registered
// subscriptions and, per subscription, either proves the answer
// unchanged (the retained read footprint is disjoint from the changed
// rows and labels the changelog ring reports — runtime.Engine.Certify,
// the same proof the server's result cache uses for revalidation) or
// re-evaluates the pattern at the current snapshot and diffs against
// the retained previous answer. Diffs land in a bounded per-subscription queue; a
// consumer that falls behind loses the incremental stream — the queue
// is wiped and a resync (full answer) is forced — so a slow or stalled
// consumer never costs the commit path or the dispatcher more than a
// mutex tap. The HTTP transport (SSE framing, attach/detach, heartbeat
// cadence) lives in internal/server; this package owns the protocol
// invariants.
package sub

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"boundedg/internal/core"
	"boundedg/internal/graph"
	"boundedg/internal/match"
	"boundedg/internal/pattern"
	"boundedg/internal/runtime"
)

// ErrTooManySubs is returned by Register at the configured cap.
var ErrTooManySubs = errors.New("sub: too many subscriptions")

// ErrClosed is returned by Register after Close.
var ErrClosed = errors.New("sub: hub closed")

// Config parameterizes a Hub.
type Config struct {
	// MaxSubs caps concurrently registered subscriptions (0 = 64).
	MaxSubs int
	// QueueCap bounds each subscription's pending event queue; overflow
	// wipes the queue and forces a resync (0 = 64).
	QueueCap int
	// Timeout bounds each re-evaluation (0 = none).
	Timeout time.Duration
	// MaxSteps bounds each re-evaluation's search-tree visits
	// (0 = unlimited), normally the server's query step budget.
	MaxSteps int
}

func (c Config) withDefaults() Config {
	if c.MaxSubs == 0 {
		c.MaxSubs = 64
	}
	if c.QueueCap == 0 {
		c.QueueCap = 64
	}
	return c
}

// Stats are a Hub's cumulative counters, served under "subscriptions"
// in GET /stats.
type Stats struct {
	// Active is the number of registered subscriptions right now.
	Active int
	// Events counts diff events enqueued for delivery.
	Events uint64
	// Resyncs counts forced resyncs: queue overflows plus dispatcher
	// evaluation failures.
	Resyncs uint64
	// Skipped counts publications a subscription ignored because its
	// footprint proved the answer unchanged — no re-evaluation ran.
	Skipped uint64
	// Evals counts engine evaluations performed on behalf of
	// subscriptions (dispatcher re-evaluations plus full evaluations on
	// attach and resync).
	Evals uint64
}

// Hub registers subscriptions and dispatches epoch publications to
// them. Construct with NewHub; Close stops the dispatcher and closes
// every subscription.
type Hub struct {
	eng *runtime.Engine
	cfg Config

	mu     sync.Mutex
	subs   map[uint64]*Sub
	nextID uint64
	closed bool

	stop chan struct{}
	done chan struct{}

	events, resyncs, skipped, evals atomic.Uint64
}

// NewHub starts a hub (and its dispatcher goroutine) over eng.
func NewHub(eng *runtime.Engine, cfg Config) *Hub {
	h := &Hub{
		eng:  eng,
		cfg:  cfg.withDefaults(),
		subs: make(map[uint64]*Sub),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go h.run()
	return h
}

// Register adds a subscription for pat (subgraph semantics) whose
// answers are capped at limit matches. The pattern must be parsed
// against the engine's interner. It is planned once, here; an unbounded
// pattern registers with no plan, and its first evaluation reports why.
func (h *Hub) Register(pat *pattern.Pattern, limit int) (*Sub, error) {
	plan, _ := core.NewPlan(pat, h.eng.Schema(), core.Subgraph)
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, ErrClosed
	}
	if len(h.subs) >= h.cfg.MaxSubs {
		return nil, ErrTooManySubs
	}
	h.nextID++
	s := &Sub{
		id:     h.nextID,
		h:      h,
		pat:    pat,
		plan:   plan,
		limit:  limit,
		poke:   make(chan struct{}, 1),
		closed: make(chan struct{}),
	}
	h.subs[s.id] = s
	return s, nil
}

// Get returns the subscription with the given id.
func (h *Hub) Get(id uint64) (*Sub, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s, ok := h.subs[id]
	return s, ok
}

// Unsubscribe removes and closes the subscription, ending any live
// event stream.
func (h *Hub) Unsubscribe(id uint64) bool {
	h.mu.Lock()
	s, ok := h.subs[id]
	delete(h.subs, id)
	h.mu.Unlock()
	if ok {
		s.close()
	}
	return ok
}

// Close stops the dispatcher (waiting for it to exit) and closes every
// subscription. Idempotent.
func (h *Hub) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		<-h.done
		return
	}
	h.closed = true
	subs := make([]*Sub, 0, len(h.subs))
	for _, s := range h.subs {
		subs = append(subs, s)
	}
	h.subs = make(map[uint64]*Sub)
	h.mu.Unlock()
	close(h.stop)
	<-h.done
	for _, s := range subs {
		s.close()
	}
}

// Stats returns the hub's counters.
func (h *Hub) Stats() Stats {
	h.mu.Lock()
	n := len(h.subs)
	h.mu.Unlock()
	return Stats{
		Active:  n,
		Events:  h.events.Load(),
		Resyncs: h.resyncs.Load(),
		Skipped: h.skipped.Load(),
		Evals:   h.evals.Load(),
	}
}

// run is the dispatcher loop. The wakeup protocol cannot miss a
// publication: the signal channel is grabbed BEFORE reading the
// version, so a commit that lands between the read and the sleep has
// already closed the channel we block on. Consecutive commits may
// coalesce into one wake; dispatchOne then certifies the latest
// version, and every event stays a point claim at its own epoch.
func (h *Hub) run() {
	defer close(h.done)
	for {
		sig := h.eng.PublishSignal()
		ver := h.eng.Version()
		h.mu.Lock()
		subs := make([]*Sub, 0, len(h.subs))
		for _, s := range h.subs {
			subs = append(subs, s)
		}
		h.mu.Unlock()
		for _, s := range subs {
			select {
			case <-h.stop:
				return
			default:
			}
			h.dispatchOne(s, ver)
		}
		select {
		case <-sig:
		case <-h.stop:
			return
		}
	}
}

// dispatchOne brings one subscription up to ver. Detached and
// resync-pending subscriptions are skipped outright — their next
// attach or resync full-evaluates anyway, so a slow consumer costs the
// dispatcher nothing. Otherwise the footprint proof is tried first:
// if every epoch since certified changed no row or label the last
// evaluation read, the answer is bit-identical and only the certified
// mark advances. Only then does an engine re-evaluation run.
func (h *Hub) dispatchOne(s *Sub, ver uint64) {
	s.smu.Lock()
	defer s.smu.Unlock()
	if !s.primed || s.certified >= ver {
		return
	}
	s.qmu.Lock()
	idle := !s.attached || s.resync
	s.qmu.Unlock()
	if idle {
		return
	}
	if epoch, vec, out := h.eng.Certify(s.certified, s.fp); out == runtime.Current || out == runtime.Promoted {
		s.certified = epoch
		if vec != nil {
			s.vector = vec
		}
		s.cert.Store(epoch)
		h.skipped.Add(1)
		return
	}
	res := h.eval(context.Background(), s)
	if res.Err != nil || res.Sub == nil {
		s.ForceResync()
		return
	}
	rows := sortedRows(res.Sub.Matches)
	added, removed := DiffRows(s.rows, rows)
	changed := len(added) > 0 || len(removed) > 0 || s.complete != res.Sub.Completed
	s.rows, s.complete = rows, res.Sub.Completed
	s.certified, s.vector, s.fp = res.Epoch, res.Vector, res.Footprint
	if changed {
		s.enqueue(Event{
			Type:     TypeDiff,
			Epoch:    res.Epoch,
			Vector:   res.Vector,
			Added:    added,
			Removed:  removed,
			Complete: res.Sub.Completed,
		})
		h.events.Add(1)
	}
	// Advance the heartbeat-visible mark only after the diff is queued:
	// a heartbeat must never certify an epoch whose diff the consumer
	// has not been offered yet.
	s.cert.Store(res.Epoch)
}

// eval runs one engine evaluation for s under the hub's budget. The
// footprint is always recorded — it funds the next skip proof.
func (h *Hub) eval(ctx context.Context, s *Sub) runtime.Result {
	if h.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, h.cfg.Timeout)
		defer cancel()
	}
	h.evals.Add(1)
	return h.eng.Eval(ctx, runtime.Query{
		Pattern:       s.pat,
		Plan:          s.plan,
		Sem:           core.Subgraph,
		Sub:           match.SubgraphOptions{StoreMatches: true, MaxMatches: s.limit, MaxSteps: h.cfg.MaxSteps},
		NeedFootprint: true,
	})
}

func sortedRows(ms [][]graph.NodeID) [][]graph.NodeID {
	rows := make([][]graph.NodeID, len(ms))
	for i, m := range ms {
		rows[i] = append([]graph.NodeID(nil), m...)
	}
	match.SortMatches(rows)
	return rows
}

// Sub is one registered subscription. The dispatcher produces into its
// bounded queue; at most one consumer (the latest attached SSE handler)
// drains it via Attach/TakeEvents/FullEval.
//
// Lock order: smu (evaluation state, held across engine evaluations)
// then qmu (queue and attachment); never the reverse.
type Sub struct {
	id    uint64
	h     *Hub
	pat   *pattern.Pattern
	plan  *core.Plan // nil: pat is not bounded
	limit int

	// smu guards the retained evaluation state.
	smu       sync.Mutex
	primed    bool // first full evaluation done; dispatcher may diff
	rows      [][]graph.NodeID
	complete  bool
	certified uint64
	vector    []uint64
	fp        *core.Footprint

	// cert mirrors certified for lock-free heartbeat reads; it advances
	// only after the diff certifying it has been enqueued.
	cert atomic.Uint64

	// qmu guards the delivery side.
	qmu      sync.Mutex
	queue    []Event
	resync   bool   // queue dropped; consumer must full-resync
	gen      uint64 // attach generation: a newer attach preempts older readers
	attached bool

	poke      chan struct{} // 1-buffered consumer wakeup
	closed    chan struct{}
	closeOnce sync.Once
}

// ID returns the subscription's identifier.
func (s *Sub) ID() uint64 { return s.id }

// Limit returns the subscription's match cap.
func (s *Sub) Limit() int { return s.limit }

// Certified returns the epoch through which the current answer is
// certified — what an idle heartbeat may claim.
func (s *Sub) Certified() uint64 { return s.cert.Load() }

// Poke returns the consumer wakeup channel: it receives after events
// are enqueued, a resync is forced, or a newer consumer attaches.
func (s *Sub) Poke() <-chan struct{} { return s.poke }

// Closed returns a channel closed when the subscription is removed.
func (s *Sub) Closed() <-chan struct{} { return s.closed }

func (s *Sub) close() { s.closeOnce.Do(func() { close(s.closed) }) }

func (s *Sub) wake() {
	select {
	case s.poke <- struct{}{}:
	default:
	}
}

// enqueue appends a diff for delivery, or — at the queue bound — wipes
// the queue and flags a resync: the consumer is too slow for the
// incremental stream, and a bounded queue is what keeps it from ever
// back-pressuring the dispatcher or the commit path.
func (s *Sub) enqueue(ev Event) {
	s.qmu.Lock()
	switch {
	case s.resync:
		// Already dropped; the resync will cover this epoch too.
	case len(s.queue) >= s.h.cfg.QueueCap:
		s.queue = nil
		s.resync = true
		s.h.resyncs.Add(1)
	default:
		s.queue = append(s.queue, ev)
	}
	s.qmu.Unlock()
	s.wake()
}

// ForceResync drops the incremental stream: the pending queue is wiped
// and the next TakeEvents reports that the consumer must re-establish
// state via FullEval. The dispatcher calls it after an evaluation
// failure; fault-injection tests call it to exercise the resync path
// deterministically.
func (s *Sub) ForceResync() {
	s.qmu.Lock()
	if !s.resync {
		s.resync = true
		s.queue = nil
		s.h.resyncs.Add(1)
	}
	s.qmu.Unlock()
	s.wake()
}

// Attach claims the consumer side. The returned generation must
// accompany TakeEvents and Detach; attaching again (a reconnect)
// preempts the previous consumer, whose next TakeEvents reports it.
// Returns false if the subscription is closed.
func (s *Sub) Attach() (uint64, bool) {
	select {
	case <-s.closed:
		return 0, false
	default:
	}
	s.qmu.Lock()
	s.gen++
	gen := s.gen
	s.attached = true
	s.queue = nil // stale diffs predate the attach's init answer
	s.qmu.Unlock()
	s.wake()
	return gen, true
}

// Detach releases the consumer side if gen still owns it.
func (s *Sub) Detach(gen uint64) {
	s.qmu.Lock()
	if s.gen == gen {
		s.attached = false
	}
	s.qmu.Unlock()
}

// TakeEvents drains the pending queue. needResync reports that the
// incremental stream was dropped: the events returned alongside it are
// always empty, and the consumer must FullEval and emit a resync before
// reading on. ok is false when a newer consumer preempted gen.
func (s *Sub) TakeEvents(gen uint64) (evs []Event, needResync, ok bool) {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	if s.gen != gen {
		return nil, false, false
	}
	evs = s.queue
	s.queue = nil
	return evs, s.resync, true
}

// FullEval evaluates the pattern in full at the current snapshot,
// replaces the retained answer, clears any pending resync, and returns
// the corresponding full-answer event (the caller stamps Type as init
// or resync). It holds the evaluation state for the duration, so a
// concurrent dispatcher diff serializes against it: any diff it
// enqueues afterwards is relative to the rows returned here.
func (s *Sub) FullEval(ctx context.Context) (Event, error) {
	s.smu.Lock()
	defer s.smu.Unlock()
	res := s.h.eval(ctx, s)
	if res.Err != nil {
		return Event{}, res.Err
	}
	if res.Sub == nil {
		return Event{}, errors.New("sub: evaluation returned no subgraph result")
	}
	rows := sortedRows(res.Sub.Matches)
	s.qmu.Lock()
	s.queue = nil
	s.resync = false
	s.qmu.Unlock()
	s.rows, s.complete = rows, res.Sub.Completed
	s.certified, s.vector, s.fp = res.Epoch, res.Vector, res.Footprint
	s.primed = true
	s.cert.Store(res.Epoch)
	return Event{Epoch: res.Epoch, Vector: res.Vector, Rows: rows, Complete: res.Sub.Completed}, nil
}
