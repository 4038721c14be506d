package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"boundedg/internal/access"
	"boundedg/internal/exp"
	"boundedg/internal/graph"
	"boundedg/internal/runtime"
	"boundedg/internal/server"
	"boundedg/internal/shard"
	"boundedg/internal/store"
	"boundedg/internal/wal"
)

// flushPolicy is stated in every output document: both sides of a
// comparison must run under the same one.
const flushPolicy = "fsync once per group commit (store.WithWAL fsync=true, shard.Create fsync=true); no checkpoint ticker"

// daemon is one in-process boundedgd: the same construction sequence as
// cmd/boundedgd (Gen → Build → store or router (+WAL) → engine → server),
// served on a loopback listener.
type daemon struct {
	sp     spec
	in     *graph.Interner
	schema *access.Schema
	// refG/refIdx are the generated graph and index set as built. The
	// backend owns them while the daemon lives (the sharded backend only
	// copies out of them); once an unwritten daemon is closed they are the
	// reference instance the correctness gates evaluate against.
	refG   *graph.Graph
	refIdx *access.IndexSet

	st      *store.Store  // unsharded backend
	router  *shard.Router // sharded backend
	wd      *wal.Dir
	walPath string

	eng    *runtime.Engine
	srv    *server.Server
	url    string
	served chan error
}

// buildDaemon generates the dataset and brings the daemon up to a
// listening server. dir is a scratch directory for the WAL.
func buildDaemon(sp spec, seed int64, dir string) (*daemon, error) {
	ds, err := exp.Gen("imdb", sp.Scale, seed)
	if err != nil {
		return nil, err
	}
	idx, viols := access.Build(ds.G, ds.Schema)
	if viols != nil {
		return nil, fmt.Errorf("generated graph violates its schema: %v", viols[0])
	}
	d := &daemon{sp: sp, in: ds.In, schema: ds.Schema, refG: ds.G, refIdx: idx, served: make(chan error, 1)}
	if sp.Durable {
		d.walPath, err = os.MkdirTemp(dir, "wal-")
		if err != nil {
			return nil, err
		}
	}
	switch {
	case sp.Shards > 1:
		d.router, err = shard.Create(d.walPath, ds.In, ds.G, idx, sp.Shards, true)
		if err != nil {
			return nil, err
		}
		d.eng, err = runtime.NewFromRouter(d.router, runtime.Config{})
	case sp.Durable:
		d.wd, err = wal.OpenDir(d.walPath, ds.In)
		if err != nil {
			return nil, err
		}
		if err = d.wd.Init(0, ds.G, idx); err != nil {
			return nil, err
		}
		d.st = store.New(ds.G, idx, store.WithWAL(d.wd, true))
		d.eng, err = runtime.NewFromStore(d.st, runtime.Config{})
	default:
		d.st = store.New(ds.G, idx)
		d.eng, err = runtime.NewFromStore(d.st, runtime.Config{})
	}
	if err != nil {
		return nil, err
	}
	d.srv = server.New(d.eng, ds.In, server.Config{CacheSize: sp.CacheSize, EnableUpdates: sp.mutable()})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d.url = "http://" + ln.Addr().String()
	go func() { d.served <- d.srv.Serve(ln) }()
	return d, nil
}

// close drains the server and releases the backend, in boundedgd's
// shutdown order minus the final checkpoint (the WAL directory is scratch).
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	switch {
	case d.router != nil:
		d.router.Close()
		if d.sp.Durable {
			if cerr := d.router.CloseDirs(); err == nil {
				err = cerr
			}
		}
	default:
		d.st.Close()
		if d.wd != nil {
			if cerr := d.wd.Close(); err == nil {
				err = cerr
			}
		}
	}
	d.eng.Close()
	return err
}

// newClient returns an HTTP client that holds exactly one keep-alive
// connection to the daemon.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// post issues one POST and returns the status and the whole body.
func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, raw, nil
}

func scrapeStats(c *http.Client, url string) (*server.StatsResponse, error) {
	resp, err := c.Get(url + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/stats: HTTP %d", resp.StatusCode)
	}
	var st server.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// snapBytes canonicalizes a graph and its index set through the
// ID-preserving codecs, so byte equality means identical state.
func snapBytes(g *graph.Graph, idx *access.IndexSet, in *graph.Interner) ([]byte, error) {
	var buf bytes.Buffer
	if err := g.WriteSnapshotJSON(&buf); err != nil {
		return nil, err
	}
	if err := idx.WriteJSON(&buf, in); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// copyTree copies a WAL state directory as it is on disk right now — what
// a kill would leave behind.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(p string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		if e.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
}

// ack is the newest durable position a client was told about.
type ack struct {
	epoch  uint64
	vector []uint64
}

func (a *ack) observe(epoch uint64, vector []uint64) {
	if epoch > a.epoch {
		a.epoch = epoch
	}
	for len(a.vector) < len(vector) {
		a.vector = append(a.vector, 0)
	}
	for i, e := range vector {
		if e > a.vector[i] {
			a.vector[i] = e
		}
	}
}

// checkDurable is the durability gate: it copies the live WAL directory
// before any close or checkpoint, recovers the copy, and requires the
// recovered position to cover the last ack and the recovered state to be
// byte-identical to the live snapshot. The clients must have stopped.
func (d *daemon) checkDurable(dir string, last ack) error {
	cp, err := os.MkdirTemp(dir, "crash-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(cp)
	if err := copyTree(d.walPath, cp); err != nil {
		return err
	}
	in := graph.NewInterner()
	if d.router != nil {
		rec, info, err := shard.Recover(cp, in, true)
		if err != nil {
			return fmt.Errorf("recover: %w", err)
		}
		defer func() {
			rec.Close()
			rec.CloseDirs()
		}()
		if info.GSN < last.epoch {
			return fmt.Errorf("recovered gsn %d is behind the last acked %d", info.GSN, last.epoch)
		}
		for s, e := range last.vector {
			if info.Vector[s] < e {
				return fmt.Errorf("recovered shard %d epoch %d is behind the last acked %d", s, info.Vector[s], e)
			}
		}
		for s := 0; s < d.router.NumShards(); s++ {
			if err := sameState(d.router.Store(s), d.in, rec.Store(s), in); err != nil {
				return fmt.Errorf("shard %d: %w", s, err)
			}
		}
		return nil
	}
	wd, err := wal.OpenDir(cp, in)
	if err != nil {
		return err
	}
	defer wd.Close()
	g, idx, info, err := wd.Recover()
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	if info.Epoch < last.epoch {
		return fmt.Errorf("recovered epoch %d is behind the last acked %d", info.Epoch, last.epoch)
	}
	return sameState(d.st, d.in, store.New(g, idx), in)
}

func sameState(live *store.Store, liveIn *graph.Interner, rec *store.Store, recIn *graph.Interner) error {
	ls, rs := live.Acquire(), rec.Acquire()
	defer ls.Release()
	defer rs.Release()
	lb, err := snapBytes(ls.G, ls.Idx, liveIn)
	if err != nil {
		return err
	}
	rb, err := snapBytes(rs.G, rs.Idx, recIn)
	if err != nil {
		return err
	}
	if !bytes.Equal(lb, rb) {
		return fmt.Errorf("recovered graph+index bytes differ from the live snapshot (%d vs %d bytes)", len(rb), len(lb))
	}
	return nil
}
