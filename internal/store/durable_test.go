package store

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"boundedg/internal/access"
	"boundedg/internal/graph"
	"boundedg/internal/wal"
	"boundedg/internal/workload"
)

// snapBytes canonicalizes graph + indexes through the ID-preserving
// codecs, so byte equality means the recovered state is exactly the live
// one — ID space, tombstones and all.
func snapBytes(t testing.TB, g *graph.Graph, idx *access.IndexSet, in *graph.Interner) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteSnapshotJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := idx.WriteJSON(&buf, in); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func copyWALDir(t testing.TB, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func recoverDir(t testing.TB, path string) (*graph.Graph, *access.IndexSet, *graph.Interner, *wal.Dir, *wal.RecoverInfo) {
	t.Helper()
	in := graph.NewInterner()
	d, err := wal.OpenDir(path, in)
	if err != nil {
		t.Fatal(err)
	}
	g, idx, info, err := d.Recover()
	if err != nil {
		t.Fatal(err)
	}
	return g, idx, in, d, info
}

// reinternDelta re-encodes d through the wire codec, translating interned
// Label values between interners — what a logged record goes through when
// it is replayed into a recovered process with a fresh interner.
func reinternDelta(t testing.TB, d *graph.Delta, from, to *graph.Interner) *graph.Delta {
	t.Helper()
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf, from); err != nil {
		t.Fatal(err)
	}
	nd, err := graph.ReadDeltaJSON(&buf, to)
	if err != nil {
		t.Fatal(err)
	}
	return nd
}

// TestStoreDurableCrashRecovery drives a random accepted/rejected update
// stream through a WAL-backed store, killing the daemon (by copying the
// WAL directory, which captures the exact on-disk state a kill would
// leave) after every accepted commit and twice mid-stream around explicit
// checkpoints. Every kill point must recover to a state byte-identical to
// the uninterrupted reference at that prefix; one mid-stream recovery is
// then resumed as a fresh durable store and must converge on the
// reference's final bytes.
func TestStoreDurableCrashRecovery(t *testing.T) {
	ds := workload.IMDb(0.05, 7)
	idx, viols := access.Build(ds.G, ds.Schema)
	if viols != nil {
		t.Fatal(viols[0])
	}
	// The reference applies the same deltas to an independent instance.
	refG := ds.G.Clone()
	refIdx := idx.Clone()

	dir := t.TempDir()
	wd, err := wal.OpenDir(dir, ds.In)
	if err != nil {
		t.Fatal(err)
	}
	if err := wd.Init(0, ds.G, idx); err != nil {
		t.Fatal(err)
	}
	st := New(ds.G, idx, WithWAL(wd, true))

	type kill struct {
		dir   string // copied WAL directory
		want  []byte // reference bytes at that prefix
		epoch uint64 // epoch the recovery must land on
		n     int    // accepted deltas at this point
	}
	var kills []kill
	var accepted []*graph.Delta // the accepted stream, for the resume test
	r := rand.New(rand.NewSource(41))
	const steps = 60
	for i := 0; i < steps; i++ {
		d := randomDelta(r, refG)
		_, refErr := refIdx.ApplyDeltaTx(refG, d.Clone())
		res, err := st.Apply(d.Clone())
		if (refErr == nil) != (err == nil) {
			t.Fatalf("step %d: store and reference disagree on acceptance: %v vs %v", i, err, refErr)
		}
		if err != nil {
			continue
		}
		accepted = append(accepted, d)
		kills = append(kills, kill{
			dir:   copyWALDir(t, dir),
			want:  snapBytes(t, refG, refIdx, ds.In),
			epoch: res.Epoch,
			n:     len(accepted),
		})
		if len(accepted) == 15 || len(accepted) == 30 {
			// Mid-stream checkpoint: later kills recover from this
			// snapshot plus a shorter tail.
			if err := st.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			kills = append(kills, kill{
				dir:   copyWALDir(t, dir),
				want:  snapBytes(t, refG, refIdx, ds.In),
				epoch: res.Epoch,
				n:     len(accepted),
			})
		}
	}
	finalWant := snapBytes(t, refG, refIdx, ds.In)
	finalEpoch := st.Epoch()

	for i, k := range kills {
		g2, idx2, in2, d2, info := recoverDir(t, k.dir)
		if info.Epoch != k.epoch {
			t.Fatalf("kill %d: recovered to epoch %d, want %d", i, info.Epoch, k.epoch)
		}
		if got := snapBytes(t, g2, idx2, in2); !bytes.Equal(got, k.want) {
			t.Fatalf("kill %d (epoch %d): recovered state diverges from reference", i, k.epoch)
		}
		d2.Close()
	}

	// Resume from a mid-stream kill: the recovered store must accept the
	// rest of the stream and converge on the reference's final state,
	// with epoch numbering continuing where the crash left off.
	resumeAt := len(accepted) / 2
	var resumeKill kill
	for _, k := range kills {
		if k.n == resumeAt {
			resumeKill = k
			break
		}
	}
	g2, idx2, in2, d2, info := recoverDir(t, resumeKill.dir)
	st2 := New(g2, idx2, WithWAL(d2, true), WithBaseEpoch(info.Epoch))
	if st2.Epoch() != info.Epoch {
		t.Fatalf("resumed store starts at epoch %d, want %d", st2.Epoch(), info.Epoch)
	}
	for i, d := range accepted[resumeAt:] {
		if _, err := st2.Apply(reinternDelta(t, d, ds.In, in2)); err != nil {
			t.Fatalf("resume step %d: %v", i, err)
		}
	}
	snap := st2.Acquire()
	got := snapBytes(t, snap.G, snap.Idx, in2)
	snap.Release()
	if !bytes.Equal(got, finalWant) {
		t.Fatal("resumed store's final state diverges from the uninterrupted reference")
	}
	if st2.Epoch() != finalEpoch {
		t.Fatalf("resumed store ends at epoch %d, uninterrupted run at %d", st2.Epoch(), finalEpoch)
	}
	st2.Close()
	d2.Close()
	st.Close()
}

// TestStoreWALTailBeyondPublish covers the kill window between WAL append
// and snapshot publish: a record that reached the log but whose epoch was
// never published must be replayed on recovery (it was validated before
// the append), yielding the state the commit was about to publish.
func TestStoreWALTailBeyondPublish(t *testing.T) {
	ds := workload.IMDb(0.05, 9)
	idx, viols := access.Build(ds.G, ds.Schema)
	if viols != nil {
		t.Fatal(viols[0])
	}
	dir := t.TempDir()
	wd, err := wal.OpenDir(dir, ds.In)
	if err != nil {
		t.Fatal(err)
	}
	if err := wd.Init(0, ds.G, idx); err != nil {
		t.Fatal(err)
	}
	st := New(ds.G, idx, WithWAL(wd, true))
	r := rand.New(rand.NewSource(5))
	for n := 0; n < 10; {
		if _, err := st.Apply(randomDelta(r, mustG(st))); err == nil {
			n++
		}
	}
	st.Close()
	wd.Close()

	// First recovery: the clean published state.
	g1, idx1, in1, d1, info1 := recoverDir(t, dir)
	// Append one more accepted delta to the log WITHOUT publishing — the
	// exact on-disk state of a crash between append and publish.
	r2 := rand.New(rand.NewSource(6))
	wantG := g1.Clone()
	wantIdx := idx1.Clone()
	var extra *graph.Delta
	for {
		extra = randomDelta(r2, g1)
		if _, err := wantIdx.ApplyDeltaTx(wantG, extra.Clone()); err == nil {
			break
		}
	}
	if _, err := d1.Log().Append(info1.Epoch+1, extra); err != nil {
		t.Fatal(err)
	}
	d1.Close()

	g2, idx2, in2, d2, info2 := recoverDir(t, dir)
	defer d2.Close()
	if info2.Epoch != info1.Epoch+1 {
		t.Fatalf("recovered to epoch %d, want %d", info2.Epoch, info1.Epoch+1)
	}
	if !bytes.Equal(snapBytes(t, g2, idx2, in2), snapBytes(t, wantG, wantIdx, in1)) {
		t.Fatal("unpublished-but-logged delta not replayed to the committed state")
	}
}

// mustG returns the store's current graph for test delta drawing (the
// reference to it is read-only and released immediately; the test's
// serial use makes this safe).
func mustG(st *Store) *graph.Graph {
	snap := st.Acquire()
	defer snap.Release()
	return snap.G
}

// TestGroupCommitCoalesces forces a batch deterministically: with the
// writer lock held, eight Apply calls queue up; releasing the lock lets
// one leader commit all of them as a single epoch with a single fsync.
func TestGroupCommitCoalesces(t *testing.T) {
	g, idx, in := benchState(t)
	dir := t.TempDir()
	wd, err := wal.OpenDir(dir, in)
	if err != nil {
		t.Fatal(err)
	}
	if err := wd.Init(0, g, idx); err != nil {
		t.Fatal(err)
	}
	st := New(g, idx, WithWAL(wd, true))
	label := in.Intern("item")

	// One serial apply first, so the shadow clone and its epoch are paid.
	if _, err := st.Apply(&graph.Delta{AddNodes: []graph.NodeSpec{{Label: label}}}); err != nil {
		t.Fatal(err)
	}
	preStats := st.Stats()

	const writers = 8
	st.mu.Lock() // stall the leader path; Apply calls pile up in the queue
	var wg sync.WaitGroup
	results := make([]Result, writers)
	errs := make([]error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = st.Apply(&graph.Delta{AddNodes: []graph.NodeSpec{{Label: label}}})
		}(i)
	}
	for {
		if st.queue.Len() == writers {
			break
		}
	}
	st.mu.Unlock()
	wg.Wait()

	stats := st.Stats()
	if got := stats.Applied - preStats.Applied; got != writers {
		t.Fatalf("applied %d deltas, want %d", got, writers)
	}
	if got := stats.Batches - preStats.Batches; got != 1 {
		t.Fatalf("used %d batches for the burst, want 1", got)
	}
	if got := stats.Epoch - preStats.Epoch; got != 1 {
		t.Fatalf("consumed %d epochs for the burst, want 1", got)
	}
	if got := stats.WALSyncs - preStats.WALSyncs; got != 1 {
		t.Fatalf("issued %d fsyncs for the burst, want 1", got)
	}
	var lastOff int64
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("writer %d: %v", i, errs[i])
		}
		if results[i].Epoch != stats.Epoch {
			t.Fatalf("writer %d published epoch %d, want %d", i, results[i].Epoch, stats.Epoch)
		}
		if results[i].LogOffset <= 0 {
			t.Fatalf("writer %d has no log offset", i)
		}
		if results[i].LogOffset > lastOff {
			lastOff = results[i].LogOffset
		}
	}
	if stats.WALOffset != lastOff {
		t.Fatalf("stats offset %d, max reported record offset %d", stats.WALOffset, lastOff)
	}
	// All eight records must survive recovery.
	st.Close()
	wd.Close()
	_, _, _, d2, info := recoverDir(t, dir)
	defer d2.Close()
	if info.Records != 1+writers {
		t.Fatalf("recovered %d records, want %d", info.Records, 1+writers)
	}
	if info.Epoch != stats.Epoch {
		t.Fatalf("recovered to epoch %d, want %d", info.Epoch, stats.Epoch)
	}
}

// benchState builds a graph and schema whose update stream never
// violates: one loose type-1 constraint, deltas adding an item node wired
// to a bounded-degree pool node.
func benchState(b testing.TB) (*graph.Graph, *access.IndexSet, *graph.Interner) {
	b.Helper()
	in := graph.NewInterner()
	g := graph.New(in)
	item := in.Intern("item")
	for i := 0; i < 1024; i++ {
		g.AddNode(item, graph.Value{})
	}
	c, err := access.New(nil, item, 1<<30)
	if err != nil {
		b.Fatal(err)
	}
	schema := access.NewSchema()
	schema.Add(c)
	idx, viols := access.Build(g, schema)
	if viols != nil {
		b.Fatal(viols[0])
	}
	return g, idx, in
}

// BenchmarkGroupCommit measures the coalescing win: serial single-writer
// applies pay one epoch and one fsync per 1-edge delta; 8 concurrent
// writers share them per batch. Metrics epochs/delta and fsyncs/delta
// are the coalescing factors (1.0 = no coalescing).
func BenchmarkGroupCommit(b *testing.B) {
	run := func(b *testing.B, writers int) {
		g, idx, in := benchState(b)
		dir := b.TempDir()
		wd, err := wal.OpenDir(dir, in)
		if err != nil {
			b.Fatal(err)
		}
		if err := wd.Init(0, g, idx); err != nil {
			b.Fatal(err)
		}
		st := New(g, idx, WithWAL(wd, true))
		var ctr atomic.Uint64
		mkDelta := func() *graph.Delta {
			i := ctr.Add(1)
			return &graph.Delta{
				AddNodes: []graph.NodeSpec{{Label: in.Intern("item")}},
				AddEdges: [][2]graph.NodeID{{graph.NewNodeRef(0), graph.NodeID(i % 1024)}},
			}
		}
		b.ResetTimer()
		if writers == 1 {
			for i := 0; i < b.N; i++ {
				if _, err := st.Apply(mkDelta()); err != nil {
					b.Fatal(err)
				}
			}
		} else {
			var wg sync.WaitGroup
			per := b.N / writers
			for w := 0; w < writers; w++ {
				n := per
				if w == 0 {
					n += b.N - per*writers
				}
				wg.Add(1)
				go func(n int) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						if _, err := st.Apply(mkDelta()); err != nil {
							b.Error(err)
							return
						}
					}
				}(n)
			}
			wg.Wait()
		}
		b.StopTimer()
		stats := st.Stats()
		if stats.Applied > 0 {
			b.ReportMetric(float64(stats.Batches)/float64(stats.Applied), "epochs/delta")
			b.ReportMetric(float64(stats.WALSyncs)/float64(stats.Applied), "fsyncs/delta")
		}
		st.Close()
		wd.Close()
	}
	b.Run("serial", func(b *testing.B) { run(b, 1) })
	b.Run("writers-8", func(b *testing.B) { run(b, 8) })
}

// TestStoreLogIsPlainRecords pins the unsharded on-disk format across the
// commit-path refactor, in both directions: the log a durable store
// writes is byte-for-byte the log wal.Dir.Init plus plain Log.Append
// calls write for the same accepted deltas (the bgwal001 layout every
// earlier build wrote and reads), and a directory written that way
// recovers to exactly the store's live state.
func TestStoreLogIsPlainRecords(t *testing.T) {
	g, idx, in := benchState(t)
	fg, fidx := g.Clone(), idx.Clone()
	item := in.Intern("item")
	deltas := []*graph.Delta{
		{AddNodes: []graph.NodeSpec{{Label: item}}, AddEdges: [][2]graph.NodeID{{graph.NewNodeRef(0), 0}}},
		{DelNodes: []graph.NodeID{999999}}, // rejected: never logged
		{AddEdges: [][2]graph.NodeID{{1, 2}, {2, 3}}},
		{DelEdges: [][2]graph.NodeID{{1, 2}}, DelNodes: []graph.NodeID{5}},
	}

	dir := t.TempDir()
	wd, err := wal.OpenDir(dir, in)
	if err != nil {
		t.Fatal(err)
	}
	if err := wd.Init(0, g, idx); err != nil {
		t.Fatal(err)
	}
	st := New(g, idx, WithWAL(wd, true))

	fixture := t.TempDir()
	fd, err := wal.OpenDir(fixture, in)
	if err != nil {
		t.Fatal(err)
	}
	if err := fd.Init(0, fg, fidx); err != nil {
		t.Fatal(err)
	}
	for _, d := range deltas {
		res, err := st.Apply(d)
		if err != nil {
			continue
		}
		off, err := fd.Log().Append(res.Epoch, d)
		if err != nil {
			t.Fatal(err)
		}
		if off != res.LogOffset {
			t.Fatalf("epoch %d: store logged through offset %d, plain Append through %d", res.Epoch, res.LogOffset, off)
		}
	}
	if err := fd.Log().Sync(); err != nil {
		t.Fatal(err)
	}
	storeLog, err := os.ReadFile(wd.Log().Path())
	if err != nil {
		t.Fatal(err)
	}
	plainLog, err := os.ReadFile(fd.Log().Path())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(storeLog, plainLog) {
		t.Fatalf("store log (%d bytes) differs from the plain-Append log (%d bytes)", len(storeLog), len(plainLog))
	}
	if err := fd.Close(); err != nil {
		t.Fatal(err)
	}

	rg, ridx, rin, rd, info := recoverDir(t, fixture)
	defer rd.Close()
	snap := st.Acquire()
	defer snap.Release()
	if info.Epoch != snap.Epoch || info.Records != 3 {
		t.Fatalf("fixture recovered %d records to epoch %d, want 3 records / epoch %d", info.Records, info.Epoch, snap.Epoch)
	}
	if !bytes.Equal(snapBytes(t, rg, ridx, rin), snapBytes(t, snap.G, snap.Idx, in)) {
		t.Fatal("state recovered from the plain-Append fixture differs from the live store")
	}
	wd.Close()
}
