// Command boundedgd is the bounded-query daemon: it loads a graph and its
// access-constraint indices once, then serves pattern queries over
// HTTP/JSON through the concurrent runtime engine. Because bounded
// evaluation makes per-query cost independent of |G|, one daemon instance
// serves many concurrent clients against a big graph; per-request
// deadlines and client disconnects cancel evaluation in flight, and an
// LRU result cache absorbs repeated queries.
//
// Three ways to get a graph + index set:
//
//	boundedgd -dataset imdb -scale 0.5          # generate a workload dataset
//	boundedgd -graph g.json -schema a.json      # load graph, build indices
//	boundedgd -graph g.json -index idx.json     # load graph + persisted indices
//
// The built index set can be persisted for faster restarts:
//
//	boundedgd -graph g.json -schema a.json -write-index idx.json
//
// API:
//
//	curl -s localhost:8080/healthz
//	curl -s localhost:8080/stats
//	curl -s -X POST localhost:8080/query -d '{
//	  "pattern": "u1: award\nu2: year (>= 2011, <= 2013)\nu3: movie\nu3 -> u1, u2",
//	  "sem": "subgraph", "limit": 10, "timeout_ms": 500
//	}'
//
// With -mutable the daemon is a read/write store: POST /update applies a
// graph delta (add/remove nodes and edges) through the epoch-versioned
// snapshot store; each accepted update publishes a new epoch that
// subsequent queries see, while in-flight queries keep the epoch they
// started under. Concurrently posted updates group-commit into one epoch.
// Updates that would break an access constraint are rejected with 422 and
// leave the graph untouched:
//
//	curl -s -X POST localhost:8080/update -d '{
//	  "add_nodes": [{"label": "movie"}],
//	  "add_edges": [[-1, 17]]
//	}'
//
// With -wal DIR accepted updates also survive restarts: every update is
// appended to a write-ahead log in DIR before its epoch publishes (one
// fsync per group commit under -fsync, the default), and -checkpoint
// periodically rewrites the snapshot and rotates the log. On startup, if
// DIR already holds state the graph-source flags are ignored and the
// daemon recovers: it loads the checkpoint snapshot, replays the log
// tail, and truncates a torn or corrupt final record with a log line.
//
//	boundedgd -dataset imdb -mutable -wal /var/lib/boundedg   # first boot seeds DIR
//	boundedgd -mutable -wal /var/lib/boundedg                 # later boots recover
//
// SIGINT/SIGTERM drain in-flight requests and updates (up to -drain),
// bar further writes, and take a final checkpoint so the next start
// replays nothing.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"boundedg/internal/access"
	"boundedg/internal/exp"
	"boundedg/internal/graph"
	"boundedg/internal/replica"
	"boundedg/internal/runtime"
	"boundedg/internal/server"
	"boundedg/internal/shard"
	"boundedg/internal/store"
	"boundedg/internal/wal"
)

type options struct {
	addr    string
	dataset string
	scale   float64
	seed    int64
	graph   string
	schema  string
	index   string

	writeIndex string

	workers  int
	cache    int
	timeout  time.Duration
	drain    time.Duration
	limit    int
	maxLimit int
	maxSteps int
	mutable  bool

	wal        string
	fsync      bool
	checkpoint time.Duration

	shards int

	maxSubs int

	follow string
}

// registerFlags binds every boundedgd flag onto fs. It is the single
// source of truth for the flag synopsis: the README flags block must
// match fs.PrintDefaults output (enforced by TestReadmeFlagSynopsis).
func registerFlags(fs *flag.FlagSet, opt *options) {
	fs.StringVar(&opt.addr, "addr", ":8080", "listen address")
	fs.StringVar(&opt.dataset, "dataset", "", "generate a workload dataset: imdb, dbpedia or webbase (instead of -graph)")
	fs.Float64Var(&opt.scale, "scale", 1.0, "|G| scale factor for -dataset")
	fs.Int64Var(&opt.seed, "seed", 1, "generation seed for -dataset")
	fs.StringVar(&opt.graph, "graph", "", "graph JSON (from datagen or graph.WriteJSON)")
	fs.StringVar(&opt.schema, "schema", "", "access schema JSON; constraint indices are built at startup")
	fs.StringVar(&opt.index, "index", "", "persisted index set JSON (from -write-index or datagen -index); replaces -schema")
	fs.StringVar(&opt.writeIndex, "write-index", "", "persist the index set to this path after startup")
	fs.IntVar(&opt.workers, "workers", 0, "max concurrent query evaluations (0 = GOMAXPROCS)")
	fs.IntVar(&opt.cache, "cache", 512, "result cache entries (negative disables)")
	fs.DurationVar(&opt.timeout, "timeout", 5*time.Second, "per-query evaluation deadline (0 or negative disables)")
	fs.DurationVar(&opt.drain, "drain", 10*time.Second, "graceful-shutdown drain budget")
	fs.IntVar(&opt.limit, "limit", 100, "default match limit per query")
	fs.IntVar(&opt.maxLimit, "max-limit", 10000, "hard cap on per-request match limits")
	fs.IntVar(&opt.maxSteps, "max-steps", 0, "VF2 search-step budget per query (0 = server default, negative = unlimited)")
	fs.BoolVar(&opt.mutable, "mutable", false, "enable POST /update (live graph updates through epoch snapshots)")
	fs.IntVar(&opt.shards, "shards", 1, "partition the store into N shards (node-hash partition; queries scatter/gather over per-shard snapshots, each shard keeps its own WAL under -wal)")
	fs.StringVar(&opt.wal, "wal", "", "write-ahead-log directory for durable updates (requires -mutable); recovers from it when it holds state")
	fs.BoolVar(&opt.fsync, "fsync", true, "fsync the WAL once per group commit (false trades host-crash durability for latency)")
	fs.DurationVar(&opt.checkpoint, "checkpoint", 5*time.Minute, "WAL checkpoint interval: rewrite the snapshot and rotate the log (0 disables; shutdown always checkpoints)")
	fs.IntVar(&opt.maxSubs, "max-subs", 64, "concurrent continuous-query subscriptions (POST /subscribe; 0 disables)")
	fs.StringVar(&opt.follow, "follow", "", "run as a read-only follower of this primary URL: bootstrap from its checkpoint, then stream and replay its WAL (replaces the graph-source flags)")
}

func main() {
	var opt options
	registerFlags(flag.CommandLine, &opt)
	flag.Parse()
	if err := run(opt); err != nil {
		fmt.Fprintln(os.Stderr, "boundedgd:", err)
		os.Exit(1)
	}
}

// load resolves the three startup shapes into a graph, its interner and a
// ready index set.
func load(opt options) (*graph.Graph, *graph.Interner, *access.IndexSet, error) {
	switch {
	case opt.dataset != "":
		d, err := exp.Gen(opt.dataset, opt.scale, opt.seed)
		if err != nil {
			return nil, nil, nil, err
		}
		idx, viols := access.Build(d.G, d.Schema)
		if viols != nil {
			return nil, nil, nil, fmt.Errorf("generated graph violates its schema: %v", viols[0])
		}
		return d.G, d.In, idx, nil
	case opt.graph == "":
		return nil, nil, nil, fmt.Errorf("need -dataset, or -graph with -schema or -index")
	}

	in := graph.NewInterner()
	gf, err := os.Open(opt.graph)
	if err != nil {
		return nil, nil, nil, err
	}
	defer gf.Close()
	g, _, err := graph.ReadJSON(gf, in)
	if err != nil {
		return nil, nil, nil, err
	}

	switch {
	case opt.index != "":
		xf, err := os.Open(opt.index)
		if err != nil {
			return nil, nil, nil, err
		}
		defer xf.Close()
		// A persisted index set stores node IDs of the graph it was built
		// from, so -index is only valid next to that exact -graph file.
		idx, err := access.ReadIndexSet(xf, in)
		if err != nil {
			return nil, nil, nil, err
		}
		return g, in, idx, nil
	case opt.schema != "":
		sf, err := os.Open(opt.schema)
		if err != nil {
			return nil, nil, nil, err
		}
		defer sf.Close()
		schema, err := access.ReadJSON(sf, in)
		if err != nil {
			return nil, nil, nil, err
		}
		idx, viols := access.Build(g, schema)
		if viols != nil {
			return nil, nil, nil, fmt.Errorf("graph does not satisfy the schema: %v", viols[0])
		}
		return g, in, idx, nil
	}
	return nil, nil, nil, fmt.Errorf("-graph needs -schema or -index")
}

// loadOrRecover resolves the startup state: when -wal names a directory
// that already holds state, the daemon recovers from it (checkpoint
// snapshot + log tail) and the graph-source flags are ignored; otherwise
// the usual load path runs and, with -wal, seeds the directory with an
// initial checkpoint.
func loadOrRecover(opt options) (*graph.Graph, *graph.Interner, *access.IndexSet, *wal.Dir, uint64, error) {
	if opt.wal != "" && wal.HasState(opt.wal) {
		in := graph.NewInterner()
		wd, err := wal.OpenDir(opt.wal, in)
		if err != nil {
			return nil, nil, nil, nil, 0, err
		}
		g, idx, info, err := wd.Recover()
		if err != nil {
			return nil, nil, nil, nil, 0, err
		}
		if info.Truncated > 0 {
			log.Printf("wal: truncated %d-byte torn/corrupt tail (%s); resuming from the last durable record", info.Truncated, info.TruncateReason)
		}
		log.Printf("wal: recovered from %s: checkpoint epoch %d + %d replayed records -> epoch %d", opt.wal, info.CheckpointEpoch, info.Records, info.Epoch)
		if opt.dataset != "" || opt.graph != "" {
			log.Printf("wal: %s already holds state; -dataset/-graph/-schema/-index ignored", opt.wal)
		}
		return g, in, idx, wd, info.Epoch, nil
	}
	g, in, idx, err := load(opt)
	if err != nil {
		return nil, nil, nil, nil, 0, err
	}
	if opt.wal == "" {
		return g, in, idx, nil, 0, nil
	}
	wd, err := wal.OpenDir(opt.wal, in)
	if err != nil {
		return nil, nil, nil, nil, 0, err
	}
	if err := wd.Init(0, g, idx); err != nil {
		return nil, nil, nil, nil, 0, err
	}
	log.Printf("wal: initialized %s (checkpoint at epoch 0)", opt.wal)
	return g, in, idx, wd, 0, nil
}

// backend is what a startup shape hands to serve: the source the engine
// reads and writes through, the interner its graph and schema share, and
// the few things that differ by shape.
type backend struct {
	src  runtime.Source
	in   *graph.Interner
	mode string // startup-line label; serve appends ", durable" under a WAL
	// closeWAL closes the WAL directories after the final checkpoint; nil
	// when the backend keeps no WAL (no checkpoints either).
	closeWAL func() error
	// configure adjusts the server config beyond the flag-derived fields
	// (replication wiring); nil for none.
	configure func(*server.Config)
}

// followerSource is a replicated store whose Close first stops the
// replication client feeding it, so no epoch arrives at a closed store.
type followerSource struct {
	*store.Store
	stop func()
}

func (f followerSource) Close() {
	f.stop()
	f.Store.Close()
}

func run(opt options) error {
	started := time.Now()
	if opt.follow != "" {
		switch {
		case opt.mutable:
			return fmt.Errorf("-follow is read-only; updates go to the primary (drop -mutable)")
		case opt.wal != "":
			return fmt.Errorf("-follow keeps no local WAL (its durable state is the primary's log); drop -wal")
		case opt.shards > 1:
			return fmt.Errorf("following a sharded primary is unsupported; -follow requires -shards=1")
		case opt.dataset != "" || opt.graph != "":
			return fmt.Errorf("-follow bootstraps from the primary's checkpoint; drop -dataset/-graph/-schema/-index")
		}
		return serve(opt, started, openFollower)
	}
	if opt.wal != "" && !opt.mutable {
		return fmt.Errorf("-wal requires -mutable (the log records accepted updates)")
	}
	if opt.shards < 1 || opt.shards > shard.MaxShards {
		return fmt.Errorf("-shards must be between 1 and %d", shard.MaxShards)
	}
	sharded := opt.shards > 1
	if opt.wal != "" && shard.HasState(opt.wal) {
		// The partition is fixed at creation: the shard map routes every
		// node ID, so restarting with a different count would read each
		// shard's state through the wrong partition.
		ns, err := shard.Shards(opt.wal)
		if err != nil {
			return err
		}
		if sharded && ns != opt.shards {
			return fmt.Errorf("%s holds %d-shard state but -shards=%d was given; restart with -shards=%d (the partition is fixed at creation)", opt.wal, ns, opt.shards, ns)
		}
		sharded = true
		opt.shards = ns
	} else if sharded && opt.wal != "" && wal.HasState(opt.wal) {
		return fmt.Errorf("%s holds unsharded state; restart without -shards (or point -wal at a fresh directory)", opt.wal)
	}
	if sharded {
		return serve(opt, started, openSharded)
	}
	return serve(opt, started, openStore)
}

// openStore builds the unsharded backend: one store over the loaded or
// recovered graph, logging to -wal when given.
func openStore(opt options) (*backend, error) {
	g, in, idx, wd, baseEpoch, err := loadOrRecover(opt)
	if err != nil {
		return nil, err
	}
	if opt.writeIndex != "" {
		xf, err := os.Create(opt.writeIndex)
		if err != nil {
			return nil, err
		}
		err = idx.WriteJSON(xf, in)
		if cerr := xf.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		log.Printf("index set persisted to %s", opt.writeIndex)
	}
	b := &backend{in: in, mode: "read-only"}
	if opt.mutable {
		b.mode = "mutable"
	}
	var stOpts []store.Option
	if wd != nil {
		stOpts = append(stOpts, store.WithWAL(wd, opt.fsync))
		if baseEpoch > 0 {
			stOpts = append(stOpts, store.WithBaseEpoch(baseEpoch))
		}
		b.closeWAL = wd.Close
		// An unsharded durable primary serves the replication endpoints.
		b.configure = func(c *server.Config) { c.WAL = wd }
	}
	b.src = store.New(g, idx, stOpts...)
	return b, nil
}

// openFollower builds a read-only replica: bootstrap the state from the
// primary's checkpoint, then replay its WAL stream in the background,
// publishing each primary epoch as it arrives. Queries, the result cache
// and revalidation all run unmodified over the replicated store; POST
// /update is refused with 403. The replication client reconnects with
// backoff on any disconnect and re-bootstraps when a checkpoint rotation
// outruns the stream; if the histories ever diverge it stops, leaving
// the daemon serving its last consistent epoch (the /stats replication
// block reports it).
func openFollower(opt options) (*backend, error) {
	in := graph.NewInterner()
	rep := replica.New(replica.Config{Primary: opt.follow, Logf: log.Printf}, in)
	bctx, bcancel := context.WithTimeout(context.Background(), 5*time.Minute)
	g, idx, epoch, err := rep.Bootstrap(bctx)
	bcancel()
	if err != nil {
		return nil, fmt.Errorf("bootstrap from %s: %w", opt.follow, err)
	}
	log.Printf("replica: bootstrapped from %s at epoch %d (|V|=%d |E|=%d)", opt.follow, epoch, g.NumNodes(), g.NumEdges())
	var stOpts []store.Option
	if epoch > 0 {
		stOpts = append(stOpts, store.WithBaseEpoch(epoch))
	}
	st := store.New(g, idx, stOpts...)
	rep.Attach(st)
	rctx, rcancel := context.WithCancel(context.Background())
	go func() {
		if err := rep.Run(rctx); err != nil {
			log.Printf("replica: %v", err)
		}
	}()
	stop := func() {
		rcancel()
		rs := rep.Stats()
		log.Printf("replica: stopped at epoch %d (offset %d, %d reconnects)", rs.AppliedEpoch, rs.Offset, rs.Reconnects)
	}
	return &backend{
		src:  followerSource{st, stop},
		in:   in,
		mode: "follower of " + opt.follow,
		configure: func(c *server.Config) {
			c.Follower = true
			c.ReplicationStats = rep.Stats
		},
	}, nil
}

// openSharded builds a partitioned backend: the graph and index set split
// across -shards stores behind a router, queries scatter/gather over
// consistent cuts, and with -wal each shard keeps its own log under the
// state directory (the SHARDMAP at its root pins the partition).
func openSharded(opt options) (*backend, error) {
	if opt.writeIndex != "" {
		return nil, fmt.Errorf("-write-index is not supported with -shards (the index set is partitioned across the shards)")
	}
	var (
		r   *shard.Router
		in  *graph.Interner
		err error
	)
	if opt.wal != "" && shard.HasState(opt.wal) {
		in = graph.NewInterner()
		var info *shard.RecoverInfo
		r, info, err = shard.Recover(opt.wal, in, opt.fsync)
		if err != nil {
			return nil, err
		}
		if info.TornSeqs > 0 {
			log.Printf("shard: rewound %d torn cross-shard update(s) a crash left partially logged", info.TornSeqs)
		}
		log.Printf("shard: recovered %d shards from %s: %d replayed records -> gsn %d, epoch vector %v",
			r.NumShards(), opt.wal, info.Records, info.GSN, info.Vector)
		if opt.dataset != "" || opt.graph != "" {
			log.Printf("shard: %s already holds state; -dataset/-graph/-schema/-index ignored", opt.wal)
		}
	} else {
		var g *graph.Graph
		var idx *access.IndexSet
		g, in, idx, err = load(opt)
		if err != nil {
			return nil, err
		}
		if opt.wal != "" {
			r, err = shard.Create(opt.wal, in, g, idx, opt.shards, opt.fsync)
			if err != nil {
				return nil, err
			}
			log.Printf("shard: initialized %d shards under %s", opt.shards, opt.wal)
		} else {
			r, err = shard.New(g, idx, opt.shards)
			if err != nil {
				return nil, err
			}
		}
	}
	b := &backend{src: r, in: in, mode: fmt.Sprintf("%d shards, read-only", r.NumShards())}
	if opt.mutable {
		b.mode = fmt.Sprintf("%d shards, mutable", r.NumShards())
	}
	if opt.wal != "" {
		b.closeWAL = r.CloseDirs
	}
	return b, nil
}

// serve opens the backend and runs the daemon over it until a shutdown
// signal or a listener error: it starts the engine, mounts the server,
// runs the periodic checkpoint ticker under a WAL, and on SIGINT/SIGTERM
// drains in-flight requests, closes the source and — under a WAL — takes
// the final checkpoint and closes the directories.
func serve(opt options, started time.Time, open func(options) (*backend, error)) error {
	b, err := open(opt)
	if err != nil {
		return err
	}
	eng, err := runtime.NewFromSource(b.src, runtime.Config{Workers: opt.workers})
	if err != nil {
		return err
	}
	defer eng.Close()
	if opt.timeout == 0 {
		// The operator said "no deadline"; server.Config treats zero as
		// "unset, use the library default", so translate explicitly.
		opt.timeout = -1
	}
	if opt.maxSubs == 0 {
		// The operator said "no subscriptions"; server.Config treats zero
		// as "unset, use the library default", so translate explicitly.
		opt.maxSubs = -1
	}
	cfg := server.Config{
		DefaultLimit:  opt.limit,
		MaxLimit:      opt.maxLimit,
		Timeout:       opt.timeout,
		CacheSize:     opt.cache,
		MaxSteps:      opt.maxSteps,
		EnableUpdates: opt.mutable,
		MaxSubs:       opt.maxSubs,
	}
	if b.configure != nil {
		b.configure(&cfg)
	}
	srv := server.New(eng, b.in, cfg)

	l, err := net.Listen("tcp", opt.addr)
	if err != nil {
		return err
	}
	durable := b.closeWAL != nil
	if durable {
		b.mode += ", durable"
	}
	ss := b.src.Stats()
	log.Printf("serving |V|=%d |E|=%d, %d constraints on %s, %s (startup %s)",
		ss.Nodes, ss.Edges, eng.Schema().Count(), l.Addr(), b.mode, time.Since(started).Round(time.Millisecond))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if durable && opt.checkpoint > 0 {
		go func() {
			tick := time.NewTicker(opt.checkpoint)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					epoch := b.src.Epoch()
					if err := b.src.Checkpoint(); err != nil {
						log.Printf("wal: periodic checkpoint failed: %v", err)
					} else {
						log.Printf("wal: checkpointed at epoch %d", epoch)
					}
				}
			}
		}()
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	log.Printf("signal received; draining (up to %s)", opt.drain)
	sctx, cancel := context.WithTimeout(context.Background(), opt.drain)
	defer cancel()
	// Shutdown drains in-flight requests — updates included, since each
	// POST /update runs synchronously inside its handler. Only then is the
	// source closed, so no accepted update is lost.
	if err := srv.Shutdown(sctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	<-errc // Serve has returned http.ErrServerClosed
	b.src.Close()
	if opt.mutable {
		us := b.src.Stats()
		log.Printf("updates drained: epoch %d, %d applied in %d commits, %d rejected (%d violations)",
			us.Epoch, us.Applied, us.Batches, us.RejectedViolation+us.RejectedError, us.RejectedViolation)
	}
	if durable {
		// Final checkpoint: the next start loads the snapshot and replays
		// nothing. Close is allowed before Checkpoint — it only bars new
		// writes.
		if err := b.src.Checkpoint(); err != nil {
			log.Printf("wal: shutdown checkpoint failed (log retained, recovery will replay it): %v", err)
		} else {
			log.Printf("wal: shutdown checkpoint at epoch %d", b.src.Epoch())
		}
		if err := b.closeWAL(); err != nil {
			log.Printf("wal: close: %v", err)
		}
	}
	log.Printf("drained; closing engine")
	return nil
}
