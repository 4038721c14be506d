package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"time"

	"boundedg/internal/access"
	"boundedg/internal/core"
	"boundedg/internal/graph"
	"boundedg/internal/match"
	"boundedg/internal/pattern"
	"boundedg/internal/runtime"
	"boundedg/internal/server"
	"boundedg/internal/shard"
	"boundedg/internal/store"
	"boundedg/internal/wal"
)

// The traced run measures layers from outside, by layered replay: one
// goroutine walks the workload's own request stream and issues each
// request at every public entry point on the path, from the loopback
// round trip down to the index fetch, wrapping each call in a span. A
// layer's self time is the median of its entry point minus the medians of
// the entry points it encloses. Spans inside the program are a later
// change; this one records them around the calls into each layer.

// span is one timed call. Parent is the span of the enclosing layer (0 for
// none): the replays of one request run one after the other, so the
// nesting is the call path's, not the clock's.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Span names, one per entry point.
const (
	spRoundTrip = "http.roundtrip"
	spHandler   = "server.handler"
	spEval      = "runtime.eval"
	spFetch     = "core.fetch"
	spMatch     = "match.match"
	spParse     = "pattern.parse"
	spPlan      = "core.plan"
	spCut       = "shard.cut"
	spDecode    = "graph.delta_decode"
	spStore     = "store.apply"
	spShard     = "shard.apply"
	spAccess    = "access.apply"
	spAppend    = "wal.append"
	spSync      = "wal.sync"
)

// Span ID offsets within one request's block of IDs.
const (
	idRoundTrip = iota
	idHandler
	idInner // eval (query) or decode (update)
	idA
	idB
	idC
	idD
	idE
	idsPerReq
)

type tracer struct {
	base  time.Time
	spans []span
	// dur holds every sample per span name and op class, including the
	// zeros recorded for a layer a request did not reach (a cache hit
	// reaches nothing below the handler; a rejected delta is never logged).
	dur map[string][]time.Duration
}

func newTracer() *tracer { return &tracer{base: time.Now(), dur: map[string][]time.Duration{}} }

func (t *tracer) reset() {
	t.spans = t.spans[:0]
	t.dur = map[string][]time.Duration{}
}

// time runs f inside a span.
func (t *tracer) time(req, id, parent int, name string, cl opClass, f func()) {
	start := time.Now()
	f()
	end := time.Now()
	if parent != 0 {
		parent += req * idsPerReq
	}
	t.spans = append(t.spans, span{
		ID: 1 + req*idsPerReq + id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.base)), End: int64(end.Sub(t.base)),
	})
	t.observe(name, cl, end.Sub(start))
}

// skip records that this request did not reach the layer.
func (t *tracer) skip(name string, cl opClass) { t.observe(name, cl, 0) }

func (t *tracer) observe(name string, cl opClass, d time.Duration) {
	k := name + "/" + cl.String()
	t.dur[k] = append(t.dur[k], d)
}

// median is the layer's median time in microseconds (0 with no samples).
func (t *tracer) median(name string, cl opClass) float64 {
	d := append([]time.Duration(nil), t.dur[name+"/"+cl.String()]...)
	if len(d) == 0 {
		return 0
	}
	sortDur(d)
	return us(quantile(d, 0.5))
}

// replayer issues requests at every layer of one prepared daemon.
type replayer struct {
	p       *prepared
	d       *daemon
	tr      *tracer
	c       *http.Client
	res     clientResult
	cacheOn bool
	qs      map[*entry]*pattern.Pattern
	scratch *core.ExecScratch

	// Scratch backends for the write-side layers, cloned from the
	// reference instance and fed the same deltas as the daemon so they
	// stay in its state: a bare graph+index pair for access.apply, a store
	// or router without a WAL for store.apply / shard.apply, and a log of
	// their own for wal.append / wal.sync.
	sIn      *graph.Interner
	sGraph   *graph.Graph
	sIdx     *access.IndexSet
	sStore   *store.Store
	sRouter  *shard.Router
	sLog     *wal.Log
	logEpoch uint64

	reqs, queries, adds, dels int
	// diverged counts updates the scratch backend and the daemon judged
	// differently; the replay is only meaningful while it stays 0.
	diverged int
}

func newReplayer(p *prepared, tr *tracer) (*replayer, error) {
	rp := &replayer{
		p: p, d: p.d, tr: tr, c: newClient(),
		cacheOn: p.sp.CacheSize > 0,
		qs:      map[*entry]*pattern.Pattern{},
		scratch: core.NewExecScratch(),
	}
	for _, e := range p.pool {
		q, err := pattern.Parse(e.Text, p.d.in)
		if err != nil {
			return nil, err
		}
		rp.qs[e] = q
	}
	if !p.sp.mutable() {
		return rp, nil
	}
	ref := p.ref
	rp.sIn = ref.in
	rp.sGraph, rp.sIdx = ref.refG.Clone(), ref.refIdx.Clone()
	var err error
	if p.sp.Shards > 1 {
		rp.sRouter, err = shard.New(ref.refG.Clone(), ref.refIdx.Clone(), p.sp.Shards)
		if err != nil {
			return nil, err
		}
	} else {
		rp.sStore = store.New(ref.refG.Clone(), ref.refIdx.Clone())
	}
	rp.sLog, err = wal.Create(filepath.Join(p.tmp, "scratch.log"), ref.in, 0)
	if err != nil {
		return nil, err
	}
	return rp, nil
}

func (rp *replayer) close() {
	rp.c.CloseIdleConnections()
	if rp.sLog != nil {
		rp.sLog.Close()
	}
	if rp.sStore != nil {
		rp.sStore.Close()
	}
	if rp.sRouter != nil {
		rp.sRouter.Close()
	}
}

// replay issues o at every layer and returns the daemon's HTTP status.
func (rp *replayer) replay(o op) int {
	req := rp.reqs
	rp.reqs++
	if o.class == classQuery {
		return rp.replayQuery(req, o)
	}
	return rp.replayUpdate(req, o)
}

// outer issues o at the two outermost entry points: the loopback round
// trip and the handler on an in-memory recorder. Both touch the daemon's
// state (the result cache; the graph), so when that matters only one of
// them runs, alternating. innermost is the span ID offset of the innermost
// one that ran: the parent of the layers below.
func (rp *replayer) outer(req int, o op, path string, roundTrip, handler bool) (status int, raw []byte, innermost int) {
	immutable := !rp.p.sp.mutable()
	rp.res.attempted++
	if roundTrip {
		var err error
		rp.tr.time(req, idRoundTrip, 0, spRoundTrip, o.class, func() {
			status, raw, err = post(rp.c, rp.d.url+path, o.body)
		})
		classify(o, status, raw, err, immutable, &rp.res)
		innermost = 1 + idRoundTrip
	}
	if handler {
		parent := innermost
		if roundTrip {
			rp.res.attempted++
		}
		rec := httptest.NewRecorder()
		hr := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(o.body))
		rp.tr.time(req, idHandler, parent, spHandler, o.class, func() {
			rp.d.srv.Handler().ServeHTTP(rec, hr)
		})
		status, raw = rec.Code, rec.Body.Bytes()
		classify(o, status, raw, nil, immutable, &rp.res)
		innermost = 1 + idHandler
	}
	return status, raw, innermost
}

var cachedTrue = []byte(`,"cached":true`)

func (rp *replayer) replayQuery(req int, o op) int {
	n := rp.queries
	rp.queries++
	// With the cache on, a second issue of the same request would always
	// hit; each request goes through one outer entry point only.
	status, raw, above := rp.outer(req, o, "/query", !rp.cacheOn || n%2 == 0, !rp.cacheOn || n%2 == 1)
	tr, cl := rp.tr, classQuery
	if bytes.Contains(raw, cachedTrue) {
		// A hit reaches nothing below the handler.
		for _, name := range []string{spEval, spFetch, spMatch} {
			tr.skip(name, cl)
		}
		return status
	}
	e := o.entry
	q := rp.qs[e]
	tr.time(req, idD, above, spParse, cl, func() { pattern.Parse(e.Text, rp.d.in) })
	var plan *core.Plan
	tr.time(req, idE, 1+idInner, spPlan, cl, func() { plan, _ = core.NewPlan(q, rp.d.schema, e.Sem) })
	if plan == nil {
		rp.res.fail("replay: pool pattern no longer plans")
		return status
	}

	// Pin what the engine would pin, and fetch and match the way its
	// worker does.
	cfg := &core.ExecConfig{Scratch: rp.scratch}
	if rp.cacheOn {
		cfg.Footprint = core.NewFootprint()
	}
	var g *graph.Graph
	var idx *access.IndexSet
	release := func() {}
	if r := rp.d.router; r != nil {
		tr.time(req, idC, 1+idInner, spCut, cl, func() { r.AcquireCut().Release() })
		cut := r.AcquireCut()
		release = cut.Release
		for _, sn := range cut.Snaps {
			cfg.Shards = append(cfg.Shards, core.ShardView{G: sn.G, Fz: sn.Fz, Idx: sn.Idx})
		}
		m := r.Map()
		cfg.ShardOf = m.Of
	} else {
		snap := rp.d.st.Acquire()
		release = snap.Release
		g, idx, cfg.Frozen = snap.G, snap.Idx, snap.Fz
	}
	var bg *core.BoundedGraph
	var err error
	tr.time(req, idA, 1+idInner, spFetch, cl, func() { bg, _, err = plan.ExecWith(g, idx, cfg) })
	if err != nil {
		release()
		rp.res.fail("replay: fetch: " + err.Error())
		return status
	}
	tr.time(req, idB, 1+idInner, spMatch, cl, func() {
		if e.Sem == core.Subgraph {
			sub := match.VF2WithCandidatesFrozen(plan.Q, bg.G, bg.G.Freeze(), bg.Cands, subOpts())
			bg.MapSubgraphResult(sub)
		} else {
			sim := match.GSimWithCandidates(plan.Q, bg.G, bg.Cands)
			bg.MapSimResult(sim)
		}
	})
	release()

	var er runtime.Result
	tr.time(req, idInner, above, spEval, cl, func() {
		er = rp.d.eng.Eval(context.Background(), runtime.Query{
			Pattern: q, Sem: e.Sem, Sub: subOpts(), NeedFootprint: rp.cacheOn,
		})
	})
	if er.Err != nil {
		rp.res.fail("replay: eval: " + er.Err.Error())
	}
	return status
}

func (rp *replayer) replayUpdate(req int, o op) int {
	tr, cl := rp.tr, classUpdate
	decode := func() *graph.Delta {
		d, err := graph.ReadDeltaJSON(bytes.NewReader(o.body), rp.sIn)
		if err != nil {
			panic("bench: generated delta does not decode: " + err.Error())
		}
		return d
	}
	// The daemon can apply the delta only once, so adds and deletes each
	// alternate between the two outer entry points.
	n := rp.adds
	if o.del {
		n = rp.dels + 1
		rp.dels++
	} else {
		rp.adds++
	}
	roundTrip := n%2 == 0
	above := 1 + idHandler
	if roundTrip {
		above = 1 + idRoundTrip
	}
	tr.time(req, idInner, above, spDecode, cl, func() { decode() })

	// Each backend gets its own decoded delta: applying one may resolve
	// labels or pin IDs on it.
	dA, dS, dW := decode(), decode(), decode()
	applyID := 1 + idA
	tr.time(req, idB, applyID, spAccess, cl, func() { rp.sIdx.ApplyDeltaTx(rp.sGraph, dA) })
	var err error
	if rp.sRouter != nil {
		tr.time(req, idA, above, spShard, cl, func() { _, err = rp.sRouter.Apply(dS) })
	} else {
		tr.time(req, idA, above, spStore, cl, func() { _, err = rp.sStore.Apply(dS) })
	}
	accepted := err == nil
	if accepted {
		// Only an accepted delta is logged, once per commit.
		rp.logEpoch++
		tr.time(req, idC, applyID, spAppend, cl, func() { _, err = rp.sLog.Append(rp.logEpoch, dW) })
		if err == nil {
			tr.time(req, idD, applyID, spSync, cl, func() { err = rp.sLog.Sync() })
		}
		if err != nil {
			rp.res.fail("replay: scratch wal: " + err.Error())
		}
	} else {
		tr.skip(spAppend, cl)
		tr.skip(spSync, cl)
	}

	status, _, _ := rp.outer(req, o, "/update", roundTrip, !roundTrip)
	if accepted != (status == http.StatusOK) {
		rp.diverged++
	}
	return status
}

// layerMetrics derives every per-layer metric from the recorded samples
// and the bracketing /stats scrapes.
func (rp *replayer) layerMetrics(a, b *server.StatsResponse) (map[string]metric, []string) {
	tr := rp.tr
	out := map[string]metric{}
	var flags []string
	usm := func(name string, v float64) { out[name] = metric{Value: v, Unit: "us"} }
	pos := func(v float64) float64 {
		if v < 0 {
			return 0
		}
		return v
	}

	// Query path: round trip ⊃ handler ⊃ eval ⊃ fetch + match.
	q := classQuery
	fetch, mtch, eval := tr.median(spFetch, q), tr.median(spMatch, q), tr.median(spEval, q)
	handler, rt := tr.median(spHandler, q), tr.median(spRoundTrip, q)
	handoff, codec, transport := pos(eval-fetch-mtch), pos(handler-eval), pos(rt-handler)
	usm("pattern.parse_us", tr.median(spParse, q))
	usm("core.plan_us", tr.median(spPlan, q))
	usm("core.fetch_us", fetch)
	usm("match.match_us", mtch)
	usm("runtime.handoff_us", handoff)
	usm("server.query_codec_us", codec)
	usm("http.query_transport_us", transport)
	usm("shard.cut_us", tr.median(spCut, q))
	usm("traced.query_p50_us", rt)
	unq := rt - (transport + codec + handoff + fetch + mtch)
	usm("unattributed.query_us", unq)
	if rt > 0 && abs(unq) > 0.1*rt {
		flags = append(flags, fmt.Sprintf("query: %.1f us of the %.1f us traced client p50 is unattributed", unq, rt))
	}

	// Update path: round trip ⊃ handler ⊃ decode + apply (⊃ access.apply)
	// + wal append + wal sync.
	u := classUpdate
	decode, apply := tr.median(spDecode, u), tr.median(spStore, u)+tr.median(spShard, u)
	appendT, syncT := tr.median(spAppend, u), tr.median(spSync, u)
	handler, rt = tr.median(spHandler, u), tr.median(spRoundTrip, u)
	codec, transport = pos(handler-decode-apply-appendT-syncT), pos(rt-handler)
	usm("graph.delta_decode_us", decode)
	usm("access.apply_us", tr.median(spAccess, u))
	usm("store.apply_us", tr.median(spStore, u))
	usm("shard.apply_us", tr.median(spShard, u))
	usm("wal.append_us", appendT)
	usm("wal.sync_us", syncT)
	usm("server.update_codec_us", codec)
	usm("http.update_transport_us", transport)
	usm("traced.update_p50_us", rt)
	unu := rt - (transport + codec + decode + apply + appendT + syncT)
	usm("unattributed.update_us", unu)
	if rt > 0 && abs(unu) > 0.1*rt {
		flags = append(flags, fmt.Sprintf("update: %.1f us of the %.1f us traced client p50 is unattributed", unu, rt))
	}

	accessed, gq, _ := poolCounts(rp.p.pool)
	out["core.accessed_per_query"] = metric{Value: accessed, Unit: "count"}
	out["core.gq_nodes"] = metric{Value: gq, Unit: "count"}
	for k, v := range statsDelta(a, b) {
		unit := "count"
		switch k {
		case "wal.bytes_per_update":
			unit = "bytes"
		case "server.cache_hit_rate":
			unit = "ratio"
		}
		out[k] = metric{Value: v, Unit: unit}
	}
	out["trace.samples"] = metric{Value: float64(rp.reqs), Unit: "count"}
	return out, flags
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// runTraced measures one workload's layers: the same daemon, pool and
// gates as the end-to-end run, driven by one goroutine through layered
// replay, with the spans written to <outdir>/trace-<workload>.json.
func runTraced(sp spec, opt options) (*result, error) {
	res := &result{Name: sp.Name, Why: sp.Why, Diagnostics: map[string]any{}}
	p, err := prepare(sp, opt, true, res)
	if err != nil {
		return nil, err
	}
	defer p.close()
	tr := newTracer()
	rp, err := newReplayer(p, tr)
	if err != nil {
		return nil, err
	}
	defer rp.close()
	// One stream over every node: there is no second client to stay clear
	// of.
	st := newStream(p, opt.seed, 0, 1)
	step := func() {
		o := st.next()
		if status := rp.replay(o); o.class == classUpdate {
			st.settle(o, status)
		}
	}
	for end := time.Now().Add(opt.warmup); time.Now().Before(end); {
		step()
	}
	tr.reset()
	rp.reqs = 0
	sc := newClient()
	defer sc.CloseIdleConnections()
	startStats, err := scrapeStats(sc, p.d.url)
	if err != nil {
		return nil, err
	}
	// At least one full pass over the pool, however short the window.
	for end := time.Now().Add(opt.window); time.Now().Before(end) || rp.reqs < len(p.pool); {
		step()
	}
	if st.pending != nil {
		rp.replay(st.deleteOp())
		st.pending = nil
	}
	endStats, err := scrapeStats(sc, p.d.url)
	if err != nil {
		return nil, err
	}

	res.Attempted += rp.res.attempted
	res.Failed += rp.res.failed
	if rp.res.failed > 0 {
		res.errorf("%d replayed ops failed; first: %s", rp.res.failed, rp.res.firstErr)
	}
	if rp.diverged > 0 {
		res.Failed += uint64(rp.diverged)
		res.errorf("%d updates were judged differently by the scratch backend and the daemon", rp.diverged)
	}
	p.finish(res, rp.res.last)

	var flags []string
	res.Layers, flags = rp.layerMetrics(startStats, endStats)
	if len(flags) > 0 {
		res.Diagnostics["flags"] = flags
	}
	res.Diagnostics["update_rejects"] = rp.res.rejects
	file := filepath.Join(opt.outDir, "trace-"+sp.Name+".json")
	res.Diagnostics["trace_file"] = file
	return res, writeTrace(file, sp.Name, opt.seed, tr.spans)
}

func writeTrace(file, workload string, seed int64, spans []span) error {
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Note     string `json:"note"`
		Spans    []span `json:"spans"`
	}{workload, seed, "layered replay: the spans of one req are the same request issued at each entry point in turn; parent names the enclosing layer on the call path", spans})
	if err != nil {
		return err
	}
	return os.WriteFile(file, b, 0o644)
}
