package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"boundedg/internal/graph"
	"boundedg/internal/server"
)

// numClients is fixed at the box's core count: the clients share the two
// cores with the daemon, and a third would measure run-queue wait.
const numClients = 2

// op is one generated request.
type op struct {
	class opClass
	body  []byte
	// entry is the pool entry behind a query.
	entry *entry
	// edge and del describe an update: add (del=false) or the
	// compensating delete of an edge this stream added.
	edge [2]graph.NodeID
	del  bool
}

// stream generates one client's request sequence from the seed. Reads
// walk the pool in seeded shuffles, one full pass after another, so every
// pattern is asked equally often and a percentile does not move with the
// luck of the draw. Writes alternate add-edge and the compensating
// delete-edge, so the graph orbits its initial state; the first endpoint
// comes from the client's own part of the node IDs, so two streams never
// touch the same edge. An edge the initial graph already has is never
// drawn: the store accepts re-adding it as a no-op, and the compensating
// delete would then remove an original edge and break the orbit.
type stream struct {
	sp      spec
	rng     *rand.Rand
	pool    []*entry
	initial map[[2]graph.NodeID]struct{} // the initial graph's edges
	order   []int                        // current shuffle of the pool
	pos     int
	in      *graph.Interner
	own     []graph.NodeID
	all     []graph.NodeID
	zOwn    *rand.Zipf
	zAll    *rand.Zipf
	pending *[2]graph.NodeID
}

func newStream(p *prepared, seed int64, client, clients int) *stream {
	sp, live := p.sp, p.live
	s := &stream{
		sp:      sp,
		pool:    p.pool,
		in:      p.d.in,
		initial: p.initial,
		rng:     rand.New(rand.NewSource(seed*1_000_003 + int64(client))),
		own:     live[client*len(live)/clients : (client+1)*len(live)/clients],
		all:     live,
	}
	if sp.ZipfS > 1 {
		s.zOwn = rand.NewZipf(s.rng, sp.ZipfS, 1, uint64(len(s.own)-1))
		s.zAll = rand.NewZipf(s.rng, sp.ZipfS, 1, uint64(len(s.all)-1))
	}
	return s
}

func (s *stream) next() op {
	if s.rng.Float64() < s.sp.ReadPct {
		if s.pos == len(s.order) {
			s.order = s.rng.Perm(len(s.pool))
			s.pos = 0
		}
		e := s.pool[s.order[s.pos]]
		s.pos++
		return op{class: classQuery, body: e.Body, entry: e}
	}
	if s.pending != nil {
		return s.deleteOp()
	}
	var e [2]graph.NodeID
	for taken := true; taken; _, taken = s.initial[e] {
		if s.zOwn != nil {
			e = [2]graph.NodeID{s.own[s.zOwn.Uint64()], s.all[s.zAll.Uint64()]}
		} else {
			e = [2]graph.NodeID{s.own[s.rng.Intn(len(s.own))], s.all[s.rng.Intn(len(s.all))]}
		}
	}
	return op{class: classUpdate, body: s.deltaBody(&graph.Delta{AddEdges: [][2]graph.NodeID{e}}), edge: e}
}

func (s *stream) deleteOp() op {
	e := *s.pending
	return op{class: classUpdate, body: s.deltaBody(&graph.Delta{DelEdges: [][2]graph.NodeID{e}}), edge: e, del: true}
}

func (s *stream) deltaBody(d *graph.Delta) []byte {
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf, s.in); err != nil {
		panic("bench: delta encode: " + err.Error()) // edge-only deltas always encode
	}
	return buf.Bytes()
}

// settle records the daemon's verdict on an update so the stream knows
// whether a compensating delete is owed.
func (s *stream) settle(o op, status int) {
	switch {
	case o.del:
		s.pending = nil
	case status == http.StatusOK:
		e := o.edge
		s.pending = &e
	}
}

// sample is one measured op.
type sample struct {
	at    time.Duration // completion time since the window opened
	lat   time.Duration
	class opClass
}

// clientResult is what one closed-loop client saw.
type clientResult struct {
	samples   []sample
	attempted uint64
	failed    uint64
	rejects   uint64
	last      ack
	firstErr  string
}

func (r *clientResult) fail(msg string) {
	r.failed++
	if r.firstErr == "" {
		r.firstErr = msg
	}
}

// issue sends o, classifies the response into r and returns the HTTP
// status (0 on transport error). An op fails on a transport error, a 5xx,
// any non-200 on /query, any /update status other than 200/409/422, or —
// when the daemon is immutable — a /query body that is not the verified
// one. A 409 or 422 update verdict is an answered op, counted as a reject.
func issue(c *http.Client, url string, o op, immutable bool, r *clientResult) int {
	path := "/query"
	if o.class == classUpdate {
		path = "/update"
	}
	status, raw, err := post(c, url+path, o.body)
	classify(o, status, raw, err, immutable, r)
	return status
}

// classify records one response to o into r.
func classify(o op, status int, raw []byte, err error, immutable bool, r *clientResult) {
	switch {
	case err != nil:
		r.fail(err.Error())
	case o.class == classQuery:
		if status != http.StatusOK {
			r.fail("query: HTTP " + http.StatusText(status))
		} else if immutable {
			if i := bytes.LastIndex(raw, cachedField); i < 0 || !bytes.Equal(raw[:i], o.entry.Prefix) {
				r.fail("query: response differs from the verified answer")
			}
		}
	case status == http.StatusOK:
		var ur struct {
			Epoch  uint64   `json:"epoch"`
			Vector []uint64 `json:"vector"`
		}
		if err := json.Unmarshal(raw, &ur); err != nil {
			r.fail("update: bad response body")
		} else {
			r.last.observe(ur.Epoch, ur.Vector)
		}
	case status == http.StatusConflict || status == http.StatusUnprocessableEntity:
		r.rejects++
	default:
		r.fail("update: HTTP " + http.StatusText(status))
	}
}

// phases of a load run, advanced by the coordinator.
const (
	phaseWarm int32 = iota
	phaseMeasure
	phaseStop
)

// loadResult is the merged outcome of a measured window.
type loadResult struct {
	samples   []sample
	window    time.Duration
	attempted uint64
	failed    uint64
	rejects   uint64
	last      ack
	firstErr  string
	// startStats and endStats are the daemon's /stats right before the
	// window opened and right after the clients stopped.
	startStats, endStats *server.StatsResponse
}

// drive runs numClients closed-loop clients against the daemon: warmup
// unrecorded, then a measured window of the given length. Each client
// keeps one keep-alive connection and issues its next request only when
// the previous response has been read. On return every client has stopped,
// having finished its compensating delete.
func drive(d *daemon, streams []*stream, warmup, window time.Duration) (*loadResult, error) {
	var (
		phase   atomic.Int32
		base    = time.Now()
		opened  atomic.Int64 // window start, as an offset from base
		wg      sync.WaitGroup
		results = make([]*clientResult, len(streams))
	)
	immutable := !d.sp.mutable()
	for i, s := range streams {
		res := &clientResult{samples: make([]sample, 0, 1<<16)}
		results[i] = res
		wg.Add(1)
		go func(s *stream, res *clientResult) {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			for phase.Load() != phaseStop {
				o := s.next()
				start := time.Now()
				status := issue(c, d.url, o, immutable, res)
				end := time.Now()
				if o.class == classUpdate {
					s.settle(o, status)
				}
				// Warmup ops are not timed but still count: nothing may fail.
				res.attempted++
				t0 := time.Duration(opened.Load())
				if phase.Load() == phaseMeasure && start.Sub(base) >= t0 {
					res.samples = append(res.samples, sample{at: end.Sub(base) - t0, lat: end.Sub(start), class: o.class})
				}
			}
			if s.pending != nil {
				res.attempted++
				issue(c, d.url, s.deleteOp(), immutable, res)
				s.pending = nil
			}
		}(s, res)
	}
	sc := newClient()
	defer sc.CloseIdleConnections()
	time.Sleep(warmup)
	startStats, err := scrapeStats(sc, d.url)
	if err == nil {
		opened.Store(int64(time.Since(base)))
		phase.Store(phaseMeasure)
		time.Sleep(window)
	}
	phase.Store(phaseStop)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	endStats, err := scrapeStats(sc, d.url)
	if err != nil {
		return nil, err
	}
	out := &loadResult{window: window, startStats: startStats, endStats: endStats}
	for _, r := range results {
		for _, s := range r.samples {
			if s.at < window {
				out.samples = append(out.samples, s)
			}
		}
		out.attempted += r.attempted
		out.failed += r.failed
		out.rejects += r.rejects
		out.last.observe(r.last.epoch, r.last.vector)
		if out.firstErr == "" {
			out.firstErr = r.firstErr
		}
	}
	return out, nil
}
