package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"boundedg/internal/access"
	"boundedg/internal/graph"
)

// TestFollowerModeRejectsWrites checks the read-only contract of -follow:
// /update is a 403 with a message pointing at the primary (even with
// updates otherwise enabled), queries still serve, and /stats carries the
// replication block verbatim from the configured callback.
func TestFollowerModeRejectsWrites(t *testing.T) {
	d, _ := miniDataset(t, 10)
	want := ReplicationStats{
		Primary:      "http://primary:8080",
		AppliedEpoch: 41,
		PrimaryEpoch: 43,
		Lag:          2,
		Offset:       1234,
		Reconnects:   1,
		Bootstraps:   1,
		Connected:    true,
	}
	e := newEnv(t, d, Config{
		EnableUpdates:    true,
		Follower:         true,
		ReplicationStats: func() ReplicationStats { return want },
	})

	var er ErrorResponse
	code := e.postUpdate(t, `{"add_nodes": [{"label": "movie", "value": 9}]}`, &er)
	if code != http.StatusForbidden {
		t.Fatalf("follower /update: status %d, want 403", code)
	}
	if !strings.Contains(er.Error, "follower") || !strings.Contains(er.Error, "primary") {
		t.Fatalf("follower /update error %q does not route the writer to the primary", er.Error)
	}

	var qr QueryResponse
	if code := e.post(t, QueryRequest{Pattern: miniPattern}, &qr); code != http.StatusOK {
		t.Fatalf("follower /query: status %d", code)
	}

	st := e.getStats(t)
	if st.Replication == nil {
		t.Fatal("follower /stats has no replication block")
	}
	if *st.Replication != want {
		t.Fatalf("replication block %+v, want %+v", *st.Replication, want)
	}
}

// TestStatsOmitsReplicationOnPrimary pins the /stats JSON shape: a daemon
// with no replication callback must not emit the block at all.
func TestStatsOmitsReplicationOnPrimary(t *testing.T) {
	d, _ := miniDataset(t, 10)
	e := newEnv(t, d, Config{})
	resp, err := http.Get(e.ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte(`"replication"`)) {
		t.Fatalf("primary /stats leaks a replication block: %s", raw)
	}
}

// TestReplicationEndpointsRefuseNonPrimaries checks the two refusal
// shapes of /wal/checkpoint and /wal/stream: 404 without a WAL, and the
// explicit 501 "unsupported" stub on a sharded daemon.
func TestReplicationEndpointsRefuseNonPrimaries(t *testing.T) {
	get := func(t *testing.T, base, path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	d, _ := miniDataset(t, 10)
	mem := newEnv(t, d, Config{})
	for _, path := range []string{"/wal/checkpoint", "/wal/stream"} {
		code, body := get(t, mem.ts.URL, path)
		if code != http.StatusNotFound || !strings.Contains(body, "-wal") {
			t.Fatalf("in-memory %s: status %d body %s", path, code, body)
		}
	}

	ds, _ := miniDataset(t, 10)
	sharded := newShardedEnv(t, ds, 2, Config{})
	for _, path := range []string{"/wal/checkpoint", "/wal/stream"} {
		code, body := get(t, sharded.ts.URL, path)
		if code != http.StatusNotImplemented || !strings.Contains(body, "unsupported") {
			t.Fatalf("sharded %s: status %d body %s", path, code, body)
		}
	}
}

// TestWALCheckpointServesBootstrapState checks GET /wal/checkpoint on a
// durable primary: the snapshot parses through the follower's codecs,
// and a store checkpoint advances the served epoch.
func TestWALCheckpointServesBootstrapState(t *testing.T) {
	d, years := miniDataset(t, 10)
	e := newDurableEnv(t, d, Config{EnableUpdates: true})

	fetch := func(t *testing.T) CheckpointResponse {
		t.Helper()
		resp, err := http.Get(e.ts.URL + "/wal/checkpoint")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		var ck CheckpointResponse
		if err := json.NewDecoder(resp.Body).Decode(&ck); err != nil {
			t.Fatal(err)
		}
		in := graph.NewInterner()
		g, err := graph.ReadSnapshotJSON(bytes.NewReader(ck.Graph), in)
		if err != nil {
			t.Fatalf("checkpoint graph does not parse: %v", err)
		}
		if _, err := access.ReadIndexSet(bytes.NewReader(ck.Index), in); err != nil {
			t.Fatalf("checkpoint index does not parse: %v", err)
		}
		var nodes int
		g.Nodes(func(graph.NodeID) bool { nodes++; return true })
		if nodes == 0 {
			t.Fatal("checkpoint graph is empty")
		}
		return ck
	}

	if ck := fetch(t); ck.Epoch != 0 {
		t.Fatalf("fresh checkpoint epoch %d, want 0", ck.Epoch)
	}

	for i := 0; i < 3; i++ {
		body := `{"add_nodes": [{"label": "movie", "value": 300}], "add_edges": [[-1, ` + strconv.Itoa(int(years[i%len(years)])) + `]]}`
		if code := e.postUpdate(t, body, nil); code != http.StatusOK {
			t.Fatalf("update %d: status %d", i, code)
		}
	}
	if err := e.st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if ck := fetch(t); ck.Epoch != 3 {
		t.Fatalf("post-rotation checkpoint epoch %d, want 3", ck.Epoch)
	}
}

// TestUpdateRejectionLeavesInternerUntouched is the interner-leak
// regression test at the HTTP layer: a rejected /update carrying a label
// the system has never seen must leave no trace in the shared interner
// (the leak fixed alongside the replication work: labels now stage on the
// delta and commit only on acceptance).
func TestUpdateRejectionLeavesInternerUntouched(t *testing.T) {
	d, years := miniDataset(t, 10)
	e := newEnv(t, d, Config{EnableUpdates: true})
	before := d.In.Len()

	// Structurally rejected (409): the edge references a node that does
	// not exist, and the delta also introduces a novel label.
	body := `{"add_nodes": [{"label": "ghost", "value": 1}], "add_edges": [[-1, 999999]]}`
	var er ErrorResponse
	if code := e.postUpdate(t, body, &er); code != http.StatusConflict {
		t.Fatalf("status %d (%s), want 409", code, er.Error)
	}
	if _, ok := d.In.Lookup("ghost"); ok {
		t.Fatal("rejected update interned its novel label")
	}
	if d.In.Len() != before {
		t.Fatalf("interner grew from %d to %d on a rejected update", before, d.In.Len())
	}

	// The same label in an accepted update is interned — rejection
	// staged it, acceptance commits it.
	ok := `{"add_nodes": [{"label": "ghost", "value": 1}], "add_edges": [[-1, ` + strconv.Itoa(int(years[0])) + `]]}`
	if code := e.postUpdate(t, ok, &er); code != http.StatusOK {
		t.Fatalf("accepted update: status %d (%s)", code, er.Error)
	}
	if _, found := d.In.Lookup("ghost"); !found {
		t.Fatal("accepted update did not intern its label")
	}
	if d.In.Len() != before+1 {
		t.Fatalf("interner at %d entries, want %d", d.In.Len(), before+1)
	}
}

// TestShutdownEndsLiveWALStream pins the graceful-drain interaction: a
// blocked /wal/stream tail must end at a chunk boundary when the server
// shuts down. http.Server.Shutdown waits for in-flight requests without
// cancelling their contexts, so without the server's drain signal a
// single connected follower would stall every graceful stop — and the
// shutdown checkpoint behind it — for the full drain budget.
func TestShutdownEndsLiveWALStream(t *testing.T) {
	d, _ := miniDataset(t, 10)
	e := newDurableEnv(t, d, Config{EnableUpdates: true})

	resp, err := e.ts.Client().Get(e.ts.URL + "/wal/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d, want 200", resp.StatusCode)
	}

	shutdown := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdown <- e.srv.Shutdown(ctx)
	}()
	body := make(chan error, 1)
	go func() {
		_, err := io.Copy(io.Discard, resp.Body)
		body <- err
	}()
	for done := 0; done < 2; {
		select {
		case err := <-shutdown:
			if err != nil {
				t.Fatalf("shutdown stalled by the live stream: %v", err)
			}
			shutdown = nil
			done++
		case err := <-body:
			if err != nil {
				t.Fatalf("stream did not end cleanly on shutdown: %v", err)
			}
			body = nil
			done++
		case <-time.After(10 * time.Second):
			t.Fatal("live stream still open 10s after Shutdown")
		}
	}
}
