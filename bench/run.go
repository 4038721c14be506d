package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sort"
	"time"

	"boundedg/internal/graph"
	"boundedg/internal/server"
)

// options are the knobs of one invocation.
type options struct {
	seed   int64
	window time.Duration
	warmup time.Duration
	outDir string
	// scaleMul shrinks every workload's dataset; only the smoke test sets
	// it.
	scaleMul float64
}

// setups is how many times a run builds the daemon from nothing: setup_s
// is the median, the first build becomes the reference instance the gates
// evaluate against, and the last one is measured.
const setups = 3

// slices is how many equal parts the measured window is cut into; each
// gated metric is the median of its per-slice values, so one stall on the
// shared box moves one slice, not the result.
const slices = 8

// metric is one named number with its unit. Spread is the within-run
// noise estimate: the interquartile range of the per-slice (or per-setup)
// values over their median.
type metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Spread float64 `json:"spread,omitempty"`
}

// result is one workload's section of the output document.
type result struct {
	Name        string            `json:"name"`
	Why         string            `json:"why"`
	Correct     bool              `json:"correct"`
	Attempted   uint64            `json:"attempted"`
	Failed      uint64            `json:"failed"`
	Errors      []string          `json:"errors,omitempty"`
	Metrics     map[string]metric `json:"metrics,omitempty"`
	Layers      map[string]metric `json:"layers,omitempty"`
	Diagnostics map[string]any    `json:"diagnostics"`
}

func (r *result) errorf(format string, a ...any) {
	r.Errors = append(r.Errors, fmt.Sprintf(format, a...))
}

// prepared is a measured daemon with its verified pool.
type prepared struct {
	sp   spec
	d    *daemon
	pool []*entry
	live []graph.NodeID
	// initial is the generated graph's edge set, which write streams must
	// not draw from.
	initial map[[2]graph.NodeID]struct{}
	// ref is the first, closed instance: the gates' reference graph. Only
	// the traced run keeps it (to clone scratch backends from).
	ref    *daemon
	nodes  int
	edges  int
	setupS []float64
	tmp    string
}

func (p *prepared) close() {
	if p.d != nil {
		p.d.close()
	}
	os.RemoveAll(p.tmp)
}

// prepare builds the workload's daemon `setups` times, timing each from
// nothing to the first verified 200, builds the pool against the first
// (closed, never written) instance, and runs the pre-run gate against the
// last. Failures of the gate are recorded on res.
func prepare(sp spec, opt options, keepRef bool, res *result) (*prepared, error) {
	if opt.scaleMul > 0 {
		sp.Scale *= opt.scaleMul
	}
	texts, probe, err := candidates()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(opt.outDir, "tmp-")
	if err != nil {
		return nil, err
	}
	p := &prepared{sp: sp, tmp: tmp}
	ok := false
	defer func() {
		if !ok {
			p.close()
		}
	}()
	c := newClient()
	defer c.CloseIdleConnections()
	for i := 0; i < setups; i++ {
		// Collect the previous instance first, so each build starts from
		// the same heap and the timings are comparable.
		runtime.GC()
		t0 := time.Now()
		d, err := buildDaemon(sp, opt.seed, tmp)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		p.d = d
		status, raw, err := post(c, d.url+"/query", probe)
		var qr server.QueryResponse
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("HTTP %d", status)
		}
		if err == nil {
			err = json.Unmarshal(raw, &qr)
		}
		if err != nil {
			return nil, fmt.Errorf("setup: first query: %w", err)
		}
		p.setupS = append(p.setupS, time.Since(t0).Seconds())
		if i == setups-1 {
			break
		}
		if err := d.close(); err != nil {
			return nil, fmt.Errorf("setup: close: %w", err)
		}
		p.d = nil
		if i == 0 {
			var scanned int
			if p.pool, scanned, err = buildPool(texts, d.refG, d.refIdx, d.in); err != nil {
				return nil, err
			}
			res.Diagnostics["pool_candidates_scanned"] = scanned
			p.live = d.refG.NodeList()
			p.nodes, p.edges = d.refG.NumNodes(), d.refG.NumEdges()
			p.initial = make(map[[2]graph.NodeID]struct{}, p.edges)
			d.refG.Edges(func(from, to graph.NodeID) bool {
				p.initial[[2]graph.NodeID{from, to}] = struct{}{}
				return true
			})
			if keepRef {
				p.ref = d
			}
		}
	}
	for i, e := range p.pool {
		if float64(e.Stats.GQNodes) > e.Est {
			res.Failed++
			res.errorf("pool[%d]: fetched |GQ| = %d nodes exceeds the plan's static bound %.0f", i, e.Stats.GQNodes, e.Est)
		}
	}
	mism, first := gate(c, p.d.url, p.pool, true)
	res.Attempted += uint64(len(p.pool))
	if mism > 0 {
		res.Failed += uint64(mism)
		res.errorf("pre-run gate: %d of %d answers differ from direct evaluation; first: %v", mism, len(p.pool), first)
	}
	ok = true
	return p, nil
}

// finish runs the gates that follow a stream, once every client has
// stopped, and settles res.Correct. Orbit closure: every compensating
// delete has landed, so every pool answer must be back to its pre-run
// value. Durability: see daemon.checkDurable.
func (p *prepared) finish(res *result, last ack) {
	c := newClient()
	defer c.CloseIdleConnections()
	mism, first := gate(c, p.d.url, p.pool, false)
	res.Attempted += uint64(len(p.pool))
	if mism > 0 {
		res.Failed += uint64(mism)
		res.errorf("post-run gate: %d of %d answers differ from their pre-run value; first: %v", mism, len(p.pool), first)
	}
	durable := true
	if p.sp.Durable {
		if err := p.d.checkDurable(p.tmp, last); err != nil {
			durable = false
			res.errorf("durability gate: %v", err)
		}
		res.Diagnostics["durability_ok"] = durable
		res.Diagnostics["last_acked_epoch"] = last.epoch
	}
	res.Correct = res.Failed == 0 && durable
}

// poolCounts are the exact access counts of one pass over the pool on
// the initial graph; they repeat run to run for a given seed.
func poolCounts(pool []*entry) (accessed, gqNodes, maxBoundUse float64) {
	for _, e := range pool {
		accessed += float64(e.Stats.Accessed())
		gqNodes += float64(e.Stats.GQNodes)
		if e.Est > 0 {
			if u := float64(e.Stats.GQNodes) / e.Est; u > maxBoundUse {
				maxBoundUse = u
			}
		}
	}
	n := float64(len(pool))
	return accessed / n, gqNodes / n, maxBoundUse
}

// runEndToEnd measures one workload with tracing off.
func runEndToEnd(sp spec, opt options) (*result, error) {
	res := &result{Name: sp.Name, Why: sp.Why, Diagnostics: map[string]any{}}
	p, err := prepare(sp, opt, false, res)
	if err != nil {
		return nil, err
	}
	defer p.close()
	streams := make([]*stream, numClients)
	for i := range streams {
		streams[i] = newStream(p, opt.seed, i, numClients)
	}
	load, err := drive(p.d, streams, opt.warmup, opt.window)
	if err != nil {
		return nil, err
	}
	res.Attempted += load.attempted
	res.Failed += load.failed
	if load.failed > 0 {
		res.errorf("%d ops failed; first: %s", load.failed, load.firstErr)
	}
	p.finish(res, load.last)

	res.Metrics = endToEndMetrics(p, load)
	accessed, gq, use := poolCounts(p.pool)
	res.Diagnostics["pool_fingerprint"] = fingerprint(p.pool)
	res.Diagnostics["core.accessed_per_query"] = accessed
	res.Diagnostics["core.gq_nodes"] = gq
	res.Diagnostics["core.max_gq_over_static_bound"] = use
	res.Diagnostics["graph_nodes"] = p.nodes
	res.Diagnostics["graph_edges"] = p.edges
	res.Diagnostics["setup_s_each"] = p.setupS
	res.Diagnostics["update_rejects"] = load.rejects
	res.Diagnostics["failed_frac"] = float64(res.Failed) / float64(res.Attempted)
	for _, cl := range []opClass{classQuery, classUpdate} {
		if d := classDiagnostics(load.samples, cl); d != nil {
			res.Diagnostics[cl.String()] = d
		}
	}
	for k, v := range statsDelta(load.startStats, load.endStats) {
		res.Diagnostics[k] = v
	}
	return res, nil
}

// endToEndMetrics computes the gated metrics from a measured window.
func endToEndMetrics(p *prepared, load *loadResult) map[string]metric {
	per := load.window / slices
	var ops, p50s, p95s []float64
	for s := 0; s < slices; s++ {
		var lat []time.Duration
		n := 0
		for _, sm := range load.samples {
			if int(sm.at/per) != s {
				continue
			}
			n++
			if sm.class == p.sp.Primary {
				lat = append(lat, sm.lat)
			}
		}
		ops = append(ops, float64(n)/per.Seconds())
		if len(lat) > 0 {
			sortDur(lat)
			p50s = append(p50s, us(quantile(lat, 0.50)))
			p95s = append(p95s, us(quantile(lat, 0.95)))
		}
	}
	return map[string]metric{
		"setup_s":        summarize(p.setupS, "s"),
		"ops_per_s":      summarize(ops, "1/s"),
		"primary_p50_us": summarize(p50s, "us"),
		"primary_p95_us": summarize(p95s, "us"),
	}
}

// classDiagnostics digests one op class over the whole window. The tail
// percentiles are printed, not gated: the window holds too few tail
// samples on a shared 2-core box for them to repeat within a tenth.
func classDiagnostics(samples []sample, cl opClass) map[string]any {
	var lat []time.Duration
	for _, s := range samples {
		if s.class == cl {
			lat = append(lat, s.lat)
		}
	}
	if len(lat) == 0 {
		return nil
	}
	sortDur(lat)
	return map[string]any{
		"samples": len(lat),
		"p50_us":  us(quantile(lat, 0.50)),
		"p95_us":  us(quantile(lat, 0.95)),
		"p99_us":  us(quantile(lat, 0.99)),
		"p999_us": us(quantile(lat, 0.999)),
		"max_us":  us(lat[len(lat)-1]),
	}
}

// statsDelta turns the bracketing /stats scrapes into the per-layer
// counts that only the daemon can see.
func statsDelta(a, b *server.StatsResponse) map[string]float64 {
	out := map[string]float64{}
	ratio := func(n, d uint64) float64 {
		if d == 0 {
			return 0
		}
		return float64(n) / float64(d)
	}
	hits, misses := b.Cache.Hits-a.Cache.Hits, b.Cache.Misses-a.Cache.Misses
	out["server.cache_hit_rate"] = ratio(hits, hits+misses)
	out["server.cache_revalidated"] = float64(b.Cache.Revalidated - a.Cache.Revalidated)
	out["server.cache_recomputed"] = float64(b.Cache.Recomputed - a.Cache.Recomputed)
	out["server.cache_ring_outrun"] = float64(b.Cache.RingOutrun - a.Cache.RingOutrun)
	applied, batches := b.Updates.Applied-a.Updates.Applied, b.Updates.Batches-a.Updates.Batches
	walTotals := func(s *server.StatsResponse) (off int64, syncs uint64) {
		off, syncs = s.WAL.Offset, s.WAL.Syncs
		for _, sh := range s.Shards {
			off += sh.WAL.Offset
			syncs += sh.WAL.Syncs
		}
		return
	}
	offA, syncA := walTotals(a)
	offB, syncB := walTotals(b)
	out["wal.bytes_per_update"] = ratio(uint64(offB-offA), applied)
	out["wal.syncs_per_update"] = ratio(syncB-syncA, applied)
	out["store.deltas_per_batch"] = ratio(applied, batches)
	out["shard.txns_per_batch"] = ratio(b.Updates.ShardTxns-a.Updates.ShardTxns, batches)
	return out
}

func sortDur(d []time.Duration) { sort.Slice(d, func(i, j int) bool { return d[i] < d[j] }) }

// quantile is the nearest-rank quantile of a sorted sample.
func quantile(sorted []time.Duration, q float64) time.Duration {
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// summarize reports the median of vs with the interquartile range over
// the median as its spread.
func summarize(vs []float64, unit string) metric {
	if len(vs) == 0 {
		return metric{Unit: unit}
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		// Linear interpolation between closest ranks.
		pos := q * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	m := metric{Value: at(0.5), Unit: unit}
	if m.Value != 0 {
		m.Spread = (at(0.75) - at(0.25)) / m.Value
	}
	return m
}
