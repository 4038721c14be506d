package shard

import (
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"boundedg/internal/access"
	"boundedg/internal/graph"
	"boundedg/internal/store"
	"boundedg/internal/wal"
	"boundedg/internal/workload"
)

// copyTree snapshots a sharded state directory (SHARDMAP plus the
// shard-<i>/ subdirectories) into a fresh temp dir — the "disk image at
// the moment of the crash".
func copyTree(t testing.TB, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(p string, de fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil || rel == "." {
			return err
		}
		target := filepath.Join(dst, rel)
		if de.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// holdsSeq reports whether shard s's log in a state directory holds an
// envelope record for update sequence number seq.
func holdsSeq(t *testing.T, dir string, in *graph.Interner, s int, seq uint64) bool {
	t.Helper()
	d, err := wal.OpenDirEnveloped(shardPath(dir, s), in)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	_, _, _, logPath, err := d.LoadSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	_, recs, err := wal.ScanEnvelopes(logPath, in)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.Seq == seq {
			return true
		}
	}
	return false
}

// TestRouterCrashTornBatch kills the router between shard A's fsync and
// shard B's in the middle of a cross-shard commit, then proves recovery
// rewinds the torn batch on both sides: the crash image holds the record
// on A but not on B, the reconciliation cut discards it, and the
// recovered router resumes bit-identical to an unsharded reference that
// never saw the torn delta — after which the same delta re-applies
// cleanly on both.
func TestRouterCrashTornBatch(t *testing.T) {
	for _, n := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			d := workload.IMDb(0.12, 7)
			g1 := d.G.Clone()
			idx1 := access.BuildUnchecked(g1, d.Schema)
			ust := store.New(g1, idx1)

			dir := t.TempDir()
			g2 := d.G.Clone()
			idx2 := access.BuildUnchecked(g2, d.Schema)
			r, err := Create(dir, d.In, g2, idx2, n, false)
			if err != nil {
				t.Fatal(err)
			}
			m := r.Map()

			// Warm up both sides with the differential update stream so the
			// crash lands on a non-trivial log, and checkpoint shard 0
			// mid-stream so recovery's reconciliation also exercises the
			// checkpoint-subsumes-records path for the surviving prefix.
			rng := rand.New(rand.NewSource(7))
			accepted := uint64(0)
			for i := 0; i < 40; i++ {
				snap := ust.Acquire()
				delta := randomDelta(rng, snap.G)
				snap.Release()
				_, uerr := ust.Apply(delta.Clone())
				_, serr := r.Apply(delta.Clone())
				if (uerr == nil) != (serr == nil) {
					t.Fatalf("warmup delta %d: unsharded err %v, sharded err %v", i, uerr, serr)
				}
				if uerr == nil {
					accepted++
				}
				if i == 20 {
					if err := r.Store(0).Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
			}
			preGSN := r.Epoch()
			if e := ust.Epoch(); e != preGSN {
				t.Fatalf("reference epoch %d, router GSN %d after warmup", e, preGSN)
			}

			// Pick a live cross-shard edge; deleting it is a guaranteed-
			// accepted delta with two participant shards.
			var from, to graph.NodeID
			found := false
			snap := ust.Acquire()
			snap.G.Edges(func(a, b graph.NodeID) bool {
				if m.Of(a) != m.Of(b) {
					from, to, found = a, b, true
					return false
				}
				return true
			})
			snap.Release()
			if !found {
				t.Fatal("no cross-shard edge in dataset")
			}
			shardA, shardB := m.Of(from), m.Of(to)
			if shardB < shardA {
				shardA, shardB = shardB, shardA
			}
			tornSeq := accepted + 1

			// Crash between shard A's fsync and shard B's. Participants
			// log concurrently, so the two hooks coordinate: shard B's
			// append blocks until shard A is durable, then B "crashes"
			// before appending anything — the disk image provably holds
			// the record on A and not on B regardless of goroutine
			// scheduling.
			var crashDir string
			aDurable := make(chan struct{})
			r.hookAfterShardLog = func(s int) error {
				if s == shardA {
					close(aDurable)
				}
				return nil
			}
			r.hookBeforeShardLog = func(s int) error {
				if s == shardB {
					<-aDurable
					crashDir = copyTree(t, dir)
					return fmt.Errorf("injected crash between shard fsyncs")
				}
				return nil
			}
			torn := &graph.Delta{DelEdges: [][2]graph.NodeID{{from, to}}}
			if _, err := r.Apply(torn.Clone()); !errors.Is(err, store.ErrWedged) {
				t.Fatalf("torn apply: want wedged error, got %v", err)
			}
			if crashDir == "" {
				t.Fatal("crash hook never fired")
			}

			// The crash image is genuinely torn: shard A durably holds the
			// record, shard B does not.
			inspect := copyTree(t, crashDir)
			if !holdsSeq(t, inspect, d.In, shardA, tornSeq) {
				t.Fatalf("crash image: shard %d should hold seq %d", shardA, tornSeq)
			}
			if holdsSeq(t, inspect, d.In, shardB, tornSeq) {
				t.Fatalf("crash image: shard %d should not hold seq %d", shardB, tornSeq)
			}

			// Recovery must cut the torn batch on both sides and resume at
			// the pre-crash cut.
			r2, info, err := Recover(crashDir, d.In, false)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() {
				r2.Close()
				if err := r2.CloseDirs(); err != nil {
					t.Error(err)
				}
			})
			if info.TornSeqs != 1 {
				t.Fatalf("recovery rewound %d torn sequences, want 1", info.TornSeqs)
			}
			if info.GSN != preGSN {
				t.Fatalf("recovered GSN %d, want pre-crash %d", info.GSN, preGSN)
			}
			if info.Seq != accepted {
				t.Fatalf("recovered seq %d, want %d", info.Seq, accepted)
			}
			usnap := ust.Acquire()
			checkShardedState(t, r2, usnap.G, usnap.Idx, d.In)
			usnap.Release()

			// The half-applied delta left no trace: re-applying it succeeds
			// identically on the recovered router and the reference.
			ures, uerr := ust.Apply(torn.Clone())
			sres, serr := r2.Apply(torn.Clone())
			if uerr != nil || serr != nil {
				t.Fatalf("re-apply after recovery: unsharded err %v, sharded err %v", uerr, serr)
			}
			if ures.Epoch != sres.Epoch {
				t.Fatalf("re-apply: epoch %d vs GSN %d", ures.Epoch, sres.Epoch)
			}
			if ures.TouchedRows != sres.TouchedRows {
				t.Fatalf("re-apply: touched rows %d vs %d", ures.TouchedRows, sres.TouchedRows)
			}
			usnap = ust.Acquire()
			checkShardedState(t, r2, usnap.G, usnap.Idx, d.In)
			usnap.Release()
		})
	}
}

// TestRouterCrashArbitrarySubset crashes a commit with three or more
// participant shards after an arbitrary strict subset fsynced — here the
// LOWEST participant is the one that never appended, an image the old
// serial shard-order loop could not produce — and proves recovery's
// reconciliation cut discards the torn sequence from every survivor.
func TestRouterCrashArbitrarySubset(t *testing.T) {
	const n = 4
	d := workload.IMDb(0.12, 7)
	g1 := d.G.Clone()
	idx1 := access.BuildUnchecked(g1, d.Schema)
	ust := store.New(g1, idx1)

	dir := t.TempDir()
	g2 := d.G.Clone()
	idx2 := access.BuildUnchecked(g2, d.Schema)
	r, err := Create(dir, d.In, g2, idx2, n, false)
	if err != nil {
		t.Fatal(err)
	}
	m := r.Map()

	rng := rand.New(rand.NewSource(11))
	accepted := uint64(0)
	for i := 0; i < 40; i++ {
		snap := ust.Acquire()
		delta := randomDelta(rng, snap.G)
		snap.Release()
		_, uerr := ust.Apply(delta.Clone())
		_, serr := r.Apply(delta.Clone())
		if (uerr == nil) != (serr == nil) {
			t.Fatalf("warmup delta %d: unsharded err %v, sharded err %v", i, uerr, serr)
		}
		if uerr == nil {
			accepted++
		}
		if i == 20 {
			if err := r.Store(1).Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	preGSN := r.Epoch()
	tornSeq := accepted + 1

	// Pick a live node replicated on >= 3 shards (its owner plus the stub
	// holders its cross-shard edges created); deleting it is a guaranteed-
	// accepted delta whose participants are exactly those shards.
	var victim graph.NodeID
	var parts []int
	snap := ust.Acquire()
	for _, v := range snap.G.NodeList() {
		owners := map[int]bool{m.Of(v): true}
		for _, w := range snap.G.Out(v) {
			owners[m.Of(w)] = true
		}
		for _, w := range snap.G.In(v) {
			owners[m.Of(w)] = true
		}
		if len(owners) >= 3 {
			victim = v
			for s := range owners {
				parts = append(parts, s)
			}
			break
		}
	}
	snap.Release()
	if parts == nil {
		t.Fatal("no node replicated on three shards in dataset")
	}
	sort.Ints(parts)
	torn := &graph.Delta{DelNodes: []graph.NodeID{victim}}

	// Pin the participant set before injecting the crash: a wrong guess
	// would deadlock the hook coordination below.
	cut := r.AcquireCut()
	sp, err := splitDelta(torn, m, func(s int) *graph.Graph { return cut.Snaps[s].G }, graph.NodeID(r.nextID.Load()))
	cut.Release()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(sp.parts) != fmt.Sprint(parts) {
		t.Fatalf("participants %v, predicted %v", sp.parts, parts)
	}

	// The survivors (every participant but the lowest) append and fsync;
	// the killed shard waits for all of them to be durable, snapshots the
	// disk tree, and "crashes" with nothing appended.
	kill := parts[0]
	survivors := parts[1:]
	var durable sync.WaitGroup
	durable.Add(len(survivors))
	var crashDir string
	r.hookAfterShardLog = func(s int) error {
		if s != kill {
			durable.Done()
		}
		return nil
	}
	r.hookBeforeShardLog = func(s int) error {
		if s == kill {
			durable.Wait()
			crashDir = copyTree(t, dir)
			return fmt.Errorf("injected crash: shard %d lost before its append", s)
		}
		return nil
	}
	if _, err := r.Apply(torn.Clone()); !errors.Is(err, store.ErrWedged) {
		t.Fatalf("torn apply: want wedged error, got %v", err)
	}
	if crashDir == "" {
		t.Fatal("crash hook never fired")
	}

	// The crash image holds the record on every survivor and not on the
	// killed shard.
	inspect := copyTree(t, crashDir)
	for _, s := range survivors {
		if !holdsSeq(t, inspect, d.In, s, tornSeq) {
			t.Fatalf("crash image: surviving shard %d should hold seq %d", s, tornSeq)
		}
	}
	if holdsSeq(t, inspect, d.In, kill, tornSeq) {
		t.Fatalf("crash image: killed shard %d should not hold seq %d", kill, tornSeq)
	}

	// Recovery cuts the torn sequence everywhere and resumes at the
	// pre-crash cut, bit-identical to the reference.
	r2, info, err := Recover(crashDir, d.In, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		r2.Close()
		if err := r2.CloseDirs(); err != nil {
			t.Error(err)
		}
	})
	if info.TornSeqs != 1 {
		t.Fatalf("recovery rewound %d torn sequences, want 1", info.TornSeqs)
	}
	if info.GSN != preGSN {
		t.Fatalf("recovered GSN %d, want pre-crash %d", info.GSN, preGSN)
	}
	if info.Seq != accepted {
		t.Fatalf("recovered seq %d, want %d", info.Seq, accepted)
	}
	usnap := ust.Acquire()
	checkShardedState(t, r2, usnap.G, usnap.Idx, d.In)
	usnap.Release()

	// Re-applying the torn delta succeeds identically on both sides.
	ures, uerr := ust.Apply(torn.Clone())
	sres, serr := r2.Apply(torn.Clone())
	if uerr != nil || serr != nil {
		t.Fatalf("re-apply after recovery: unsharded err %v, sharded err %v", uerr, serr)
	}
	if ures.Epoch != sres.Epoch {
		t.Fatalf("re-apply: epoch %d vs GSN %d", ures.Epoch, sres.Epoch)
	}
	usnap = ust.Acquire()
	checkShardedState(t, r2, usnap.G, usnap.Idx, d.In)
	usnap.Release()
}
