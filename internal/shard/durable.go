package shard

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"boundedg/internal/access"
	"boundedg/internal/graph"
	"boundedg/internal/store"
	"boundedg/internal/wal"
)

// shardMapName is the file pinning the partition contract at the root of
// a sharded state directory; each shard's WAL lives under shard-<i>/.
const shardMapName = "SHARDMAP"

// shardMapHash names the node-ID hash the layout was built with. A
// recovery finding any other name must refuse: routing even one node
// differently silently corrupts the row partition.
const shardMapHash = "splitmix64"

type shardMapFile struct {
	Version int    `json:"version"`
	Shards  int    `json:"shards"`
	Hash    string `json:"hash"`
}

// HasState reports whether path holds an initialized sharded state
// directory (a SHARDMAP exists).
func HasState(path string) bool {
	_, err := os.Stat(filepath.Join(path, shardMapName))
	return err == nil
}

func shardPath(path string, s int) string {
	return filepath.Join(path, fmt.Sprintf("shard-%d", s))
}

// Create partitions g and idx n ways, initializes one WAL directory per
// shard under path, durably writes the SHARDMAP, and returns the running
// router. The inputs are consumed. The SHARDMAP is written last, so
// HasState only holds once every shard directory is complete.
func Create(path string, in *graph.Interner, g *graph.Graph, idx *access.IndexSet, nshards int, fsync bool) (*Router, error) {
	m, err := NewMap(nshards)
	if err != nil {
		return nil, err
	}
	if HasState(path) {
		return nil, fmt.Errorf("shard: %s already holds sharded state; recover instead of creating", path)
	}
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, fmt.Errorf("shard: create dir: %w", err)
	}
	graphs, idxs := Partition(g, idx, m)
	r := newRouter(m, fsync)
	for s := 0; s < nshards; s++ {
		d, err := wal.OpenDirEnveloped(shardPath(path, s), in)
		if err != nil {
			return nil, err
		}
		if err := d.Init(0, graphs[s], idxs[s]); err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		r.dirs[s] = d
		r.stores[s] = store.New(graphs[s], idxs[s],
			store.WithWAL(d, fsync), store.WithRefreshFilter(m.ownsFn(s)),
			store.WithChangeLog(-1))
	}
	mb, err := json.Marshal(shardMapFile{Version: 1, Shards: nshards, Hash: shardMapHash})
	if err != nil {
		return nil, fmt.Errorf("shard: encode shard map: %w", err)
	}
	if err := wal.WriteFileAtomic(filepath.Join(path, shardMapName), append(mb, '\n')); err != nil {
		return nil, err
	}
	if err := wal.SyncDir(path); err != nil {
		return nil, err
	}
	r.nextID.Store(int64(g.Cap()))
	r.nodes.Store(int64(g.NumNodes()))
	r.edges.Store(int64(g.NumEdges()))
	return r, nil
}

// RecoverInfo reports what Recover reconstructed.
type RecoverInfo struct {
	// GSN and Vector are the global sequence number and per-shard epochs
	// the router resumes from.
	GSN    uint64
	Vector []uint64
	// Seq is the last update sequence number that survived.
	Seq uint64
	// Records counts envelope records replayed across all shards.
	Records uint64
	// TornSeqs counts update sequence numbers discarded by the
	// reconciliation cut — cross-shard batches a crash left partially
	// logged, rewound on every shard that held a part.
	TornSeqs int
}

// readShardMap loads and validates the SHARDMAP.
func readShardMap(path string) (Map, error) {
	raw, err := os.ReadFile(filepath.Join(path, shardMapName))
	if err != nil {
		return Map{}, fmt.Errorf("shard: read shard map: %w", err)
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	var smf shardMapFile
	if err := dec.Decode(&smf); err != nil {
		return Map{}, fmt.Errorf("shard: decode shard map: %w", err)
	}
	if smf.Version != 1 {
		return Map{}, fmt.Errorf("shard: unsupported shard map version %d", smf.Version)
	}
	if smf.Hash != shardMapHash {
		return Map{}, fmt.Errorf("shard: shard map uses hash %q, this binary routes with %q", smf.Hash, shardMapHash)
	}
	return NewMap(smf.Shards)
}

// Shards reads just the shard count of an existing layout, for the
// serving binary to cross-check against its -shards flag.
func Shards(path string) (int, error) {
	m, err := readShardMap(path)
	if err != nil {
		return 0, err
	}
	return m.Shards, nil
}

// Recover rebuilds a router from a sharded state directory. Each shard's
// snapshot is loaded and its log scanned; the logs are then reconciled:
// an update sequence number is complete only if every participant shard
// either holds its record or checkpointed past the record's epoch
// (a checkpoint subsumes the records it rotated away). The cut is the
// smallest incomplete sequence number — everything at or past it is a
// torn cross-shard batch, durably rewound on every shard — and the
// surviving records replay independently per shard.
func Recover(path string, in *graph.Interner, fsync bool) (*Router, *RecoverInfo, error) {
	m, err := readShardMap(path)
	if err != nil {
		return nil, nil, err
	}
	n := m.Shards
	type shardState struct {
		dir       *wal.Dir
		g         *graph.Graph
		idx       *access.IndexSet
		ckptEpoch uint64
		logPath   string
		recs      []wal.EnvelopeInfo
	}
	states := make([]*shardState, n)
	for s := 0; s < n; s++ {
		d, err := wal.OpenDirEnveloped(shardPath(path, s), in)
		if err != nil {
			return nil, nil, err
		}
		g, idx, ckpt, logPath, err := d.LoadSnapshot()
		if err != nil {
			return nil, nil, fmt.Errorf("shard %d: %w", s, err)
		}
		base, recs, err := wal.ScanEnvelopes(logPath, in)
		if err != nil {
			return nil, nil, fmt.Errorf("shard %d: %w", s, err)
		}
		if base != ckpt {
			return nil, nil, fmt.Errorf("shard %d: log base epoch %d does not match checkpoint epoch %d", s, base, ckpt)
		}
		states[s] = &shardState{dir: d, g: g, idx: idx, ckptEpoch: ckpt, logPath: logPath, recs: recs}
	}

	// Reconciliation: find the smallest torn sequence number.
	type seqInfo struct {
		epoch  uint64
		shards []int
	}
	seqs := make(map[uint64]seqInfo)
	held := make([]map[uint64]bool, n)
	for s, st := range states {
		held[s] = make(map[uint64]bool, len(st.recs))
		for _, rec := range st.recs {
			held[s][rec.Seq] = true
			if _, ok := seqs[rec.Seq]; !ok {
				seqs[rec.Seq] = seqInfo{epoch: rec.Epoch, shards: rec.Shards}
			}
		}
	}
	cutSeq := uint64(math.MaxUint64)
	for seq, si := range seqs {
		if seq >= cutSeq {
			continue
		}
		for _, t := range si.shards {
			if t < 0 || t >= n {
				return nil, nil, fmt.Errorf("shard: record seq %d names shard %d of %d", seq, t, n)
			}
			// A participant that checkpointed at or past the record's
			// epoch absorbed it into its snapshot and rotated the record
			// away — that counts as present.
			if !held[t][seq] && states[t].ckptEpoch < si.epoch {
				cutSeq = seq
				break
			}
		}
	}

	info := &RecoverInfo{Vector: make([]uint64, n)}
	maxSeq := uint64(0)
	torn := make(map[uint64]bool)
	r := newRouter(m, fsync)
	var nextID int64
	var nodes, edges int64
	for s, st := range states {
		cut := int64(-1)
		for _, rec := range st.recs {
			if rec.Seq >= cutSeq {
				if cut < 0 {
					cut = rec.Start
				}
				torn[rec.Seq] = true
			}
		}
		// The row-ownership filter must be installed before replay, so a
		// replayed sub-delta maintains exactly the rows this shard owns.
		installRowOwner(st.idx, m, s)
		last := st.ckptEpoch
		l, oi, err := wal.OpenEnvelopes(st.logPath, in, cut, func(epoch uint64, e *wal.Envelope) error {
			if _, err := st.idx.ApplyDeltaTx(st.g, e.Delta); err != nil {
				return err
			}
			last = epoch
			if e.Seq > maxSeq {
				maxSeq = e.Seq
			}
			return nil
		})
		if err != nil {
			return nil, nil, fmt.Errorf("shard %d: %w", s, err)
		}
		if err := st.dir.AdoptLog(l); err != nil {
			return nil, nil, fmt.Errorf("shard %d: %w", s, err)
		}
		info.Records += oi.Records
		info.Vector[s] = last
		if last > info.GSN {
			info.GSN = last
		}
		if c := int64(st.g.Cap()); c > nextID {
			nextID = c
		}
		st.g.Nodes(func(v graph.NodeID) bool {
			if m.Of(v) == s {
				nodes++
				edges += int64(len(st.g.Out(v)))
			}
			return true
		})
		r.dirs[s] = st.dir
	}
	// Each shard's snapshot decode built a private schema; plan
	// compilation compares schemas by pointer, so rebind all shards to
	// one.
	schema := states[0].idx.Schema()
	for s := 1; s < n; s++ {
		if err := states[s].idx.RebindSchema(schema); err != nil {
			return nil, nil, fmt.Errorf("shard %d: %w", s, err)
		}
	}
	for s, st := range states {
		r.stores[s] = store.New(st.g, st.idx,
			store.WithWAL(st.dir, fsync), store.WithBaseEpoch(info.Vector[s]),
			store.WithRefreshFilter(m.ownsFn(s)), store.WithChangeLog(-1))
	}
	info.Seq = maxSeq
	info.TornSeqs = len(torn)
	r.gsn.Store(info.GSN)
	r.seq.Store(maxSeq)
	r.nextID.Store(nextID)
	r.nodes.Store(nodes)
	r.edges.Store(edges)
	return r, info, nil
}
