package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"boundedg/internal/access"
	"boundedg/internal/graph"
	"boundedg/internal/runtime"
	"boundedg/internal/store"
	"boundedg/internal/wal"
	"boundedg/internal/workload"
)

// newDurableEnv is newEnv over a WAL-backed store, as boundedgd -mutable
// -wal builds one.
func newDurableEnv(t *testing.T, d *workload.Dataset, cfg Config) *env {
	t.Helper()
	idx, viols := access.Build(d.G, d.Schema)
	if viols != nil {
		t.Fatalf("index build: %v", viols[0])
	}
	wd, err := wal.OpenDir(t.TempDir(), d.In)
	if err != nil {
		t.Fatal(err)
	}
	if err := wd.Init(0, d.G, idx); err != nil {
		t.Fatal(err)
	}
	st := store.New(d.G, idx, store.WithWAL(wd, true))
	eng, err := runtime.NewFromStore(st, runtime.Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	cfg.WAL = wd // boundedgd wires the WAL dir in for the replication endpoints
	srv := New(eng, d.In, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		eng.Close()
		wd.Close()
	})
	return &env{d: d, idx: idx, st: st, eng: eng, srv: srv, ts: ts}
}

// TestUpdateReportsLogOffset checks the durable write path through HTTP:
// accepted updates report strictly increasing committed log offsets, and
// /stats exposes the WAL state (offset, records, syncs, checkpoint
// epoch) that an operator or replication follower would read.
func TestUpdateReportsLogOffset(t *testing.T) {
	d, years := miniDataset(t, 10)
	e := newDurableEnv(t, d, Config{EnableUpdates: true})

	var prevOff int64
	for i := 0; i < 3; i++ {
		var ur UpdateResponse
		body := `{"add_nodes": [{"label": "movie", "value": 100}], "add_edges": [[-1, ` + strconv.Itoa(int(years[0])) + `]]}`
		if code := e.postUpdate(t, body, &ur); code != 200 {
			t.Fatalf("update %d: status %d", i, code)
		}
		if ur.LogOffset <= prevOff {
			t.Fatalf("update %d: log offset %d not beyond %d", i, ur.LogOffset, prevOff)
		}
		prevOff = ur.LogOffset
	}

	st := e.getStats(t)
	if !st.Updates.Enabled || st.Updates.Applied != 3 || st.Updates.Batches == 0 {
		t.Fatalf("update stats = %+v", st.Updates)
	}
	if !st.WAL.Enabled {
		t.Fatal("wal stats not enabled on a durable daemon")
	}
	if st.WAL.Offset != prevOff || st.WAL.Records != 3 || st.WAL.Syncs != st.Updates.Batches {
		t.Fatalf("wal stats = %+v (want offset %d, 3 records, %d syncs)", st.WAL, prevOff, st.Updates.Batches)
	}
	if st.WAL.LastCheckpointEpoch != 0 {
		t.Fatalf("last checkpoint epoch %d, want 0 (no checkpoint yet)", st.WAL.LastCheckpointEpoch)
	}

	// A read-only-store daemon reports the WAL section disabled.
	d2, _ := miniDataset(t, 10)
	e2 := newEnv(t, d2, Config{EnableUpdates: true})
	if st2 := e2.getStats(t); st2.WAL.Enabled || st2.WAL.Offset != 0 {
		t.Fatalf("non-durable wal stats = %+v", st2.WAL)
	}

	// Rejected updates must not advance the log.
	var er ErrorResponse
	if code := e.postUpdate(t, `{"del_nodes": [99999]}`, &er); code != 409 {
		t.Fatalf("structural reject: status %d", code)
	}
	if st := e.getStats(t); st.WAL.Offset != prevOff || st.WAL.Records != 3 {
		t.Fatalf("rejected update moved the log: %+v", st.WAL)
	}
}

// TestWedgedDaemonReportsUnhealthy: once the source has wedged, /healthz
// must stop saying ok (503 "wedged"), /stats must flag it, every /update
// must answer 503 with the ErrWedged text — the failing one and the ones
// after it alike — and /query must keep serving the last durable epoch.
// The unsharded daemon wedges for real (its log file is closed under it,
// so the next append fails); the 2-shard one through Store.Wedge.
func TestWedgedDaemonReportsUnhealthy(t *testing.T) {
	update := func(year graph.NodeID) string {
		return `{"add_nodes": [{"label": "movie", "value": 7}], "add_edges": [[-1, ` + strconv.Itoa(int(year)) + `]]}`
	}
	healthz := func(t *testing.T, e *env) (int, string) {
		t.Helper()
		resp, err := http.Get(e.ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body["status"]
	}
	cases := []struct {
		name  string
		build func(t *testing.T) (*env, []graph.NodeID)
		wedge func(t *testing.T, e *env)
	}{
		{"unsharded", func(t *testing.T) (*env, []graph.NodeID) {
			d, years := miniDataset(t, 10)
			return newDurableEnv(t, d, Config{EnableUpdates: true, CacheSize: -1}), years
		}, func(t *testing.T, e *env) {
			if err := e.srv.cfg.WAL.Log().Close(); err != nil {
				t.Fatal(err)
			}
		}},
		{"shards=2", func(t *testing.T) (*env, []graph.NodeID) {
			d, years := miniDataset(t, 10)
			return newShardedEnv(t, d, 2, Config{EnableUpdates: true, CacheSize: -1}), years
		}, func(t *testing.T, e *env) {
			for s := 0; s < e.rt.NumShards(); s++ {
				e.rt.Store(s).Wedge()
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, years := tc.build(t)
			if code := e.postUpdate(t, update(years[0]), nil); code != http.StatusOK {
				t.Fatalf("pre-wedge update: status %d", code)
			}
			if code, status := healthz(t, e); code != http.StatusOK || status != "ok" {
				t.Fatalf("healthy /healthz: %d %q", code, status)
			}
			var before QueryResponse
			if code := e.post(t, QueryRequest{Pattern: miniPattern}, &before); code != http.StatusOK {
				t.Fatalf("pre-wedge query: status %d", code)
			}

			tc.wedge(t, e)
			// The first update after the fault is the one that trips it on
			// the unsharded daemon; the second finds the source already
			// wedged. Both must read the same to a client.
			for i := 0; i < 2; i++ {
				var er ErrorResponse
				if code := e.postUpdate(t, update(years[1]), &er); code != http.StatusServiceUnavailable || !strings.Contains(er.Error, store.ErrWedged.Error()) {
					t.Fatalf("update %d after the wedge: status %d, error %q (want 503 + %q)", i, code, er.Error, store.ErrWedged)
				}
			}
			if code, status := healthz(t, e); code != http.StatusServiceUnavailable || status != "wedged" {
				t.Fatalf("wedged /healthz: %d %q, want 503 \"wedged\"", code, status)
			}
			if st := e.getStats(t); !st.Updates.Wedged || st.Epoch != 1 {
				t.Fatalf("wedged /stats: wedged=%v epoch=%d, want true at epoch 1", st.Updates.Wedged, st.Epoch)
			}
			var after QueryResponse
			if code := e.post(t, QueryRequest{Pattern: miniPattern}, &after); code != http.StatusOK {
				t.Fatalf("post-wedge query: status %d", code)
			}
			if !reflect.DeepEqual(before.Matches, after.Matches) || after.Count != before.Count {
				t.Fatalf("wedged daemon stopped serving the last durable epoch:\nbefore %v\nafter  %v", before.Matches, after.Matches)
			}
		})
	}
}
