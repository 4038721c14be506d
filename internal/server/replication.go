package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"boundedg/internal/wal"
)

// Replication endpoints of a durable unsharded primary. A follower
// bootstraps once from GET /wal/checkpoint, then holds one long-lived
// GET /wal/stream response open and replays the chunks it carries; see
// internal/replica for the client side and docs/OPERATIONS.md for the
// runbook.

// ReplicationStats is the "replication" block a follower reports in
// GET /stats.
type ReplicationStats struct {
	// Primary is the primary's base URL (the -follow argument).
	Primary string `json:"primary"`
	// AppliedEpoch is the follower's published epoch; PrimaryEpoch is the
	// primary's published epoch as of the last chunk received, and Lag is
	// their difference — 0 when the follower is caught up.
	AppliedEpoch uint64 `json:"applied_epoch"`
	PrimaryEpoch uint64 `json:"primary_epoch"`
	Lag          uint64 `json:"lag"`
	// Offset is the stream cursor: the primary log offset through which
	// every record has been applied and published here.
	Offset int64 `json:"offset"`
	// Reconnects counts stream (re)connections after the first; steady
	// growth means the link or the primary is flapping.
	Reconnects uint64 `json:"reconnects"`
	// Bootstraps counts checkpoint re-bootstraps (the first one
	// included); more than 1 means log rotations outran the stream.
	Bootstraps uint64 `json:"bootstraps"`
	// Connected reports whether a stream is open right now. LastError is
	// the most recent stream error, kept after reconnecting so flaps stay
	// diagnosable.
	Connected    bool   `json:"connected"`
	Inconsistent bool   `json:"inconsistent,omitempty"`
	LastError    string `json:"last_error,omitempty"`
}

// CheckpointResponse is the body of GET /wal/checkpoint: the primary's
// current checkpoint epoch and the raw snapshot documents (the same JSON
// the WAL directory holds on disk).
type CheckpointResponse struct {
	Epoch uint64          `json:"epoch"`
	Graph json.RawMessage `json:"graph"`
	Index json.RawMessage `json:"index"`
}

// StreamRedirect is the body of a 409 from GET /wal/stream: the
// follower's base parameter no longer names the current log (a
// checkpoint rotated it). A follower whose applied epoch equals
// LogBaseEpoch resumes the stream at the new log's first record;
// otherwise it re-bootstraps from GET /wal/checkpoint.
type StreamRedirect struct {
	Error           string `json:"error"`
	LogBaseEpoch    uint64 `json:"log_base_epoch"`
	CheckpointEpoch uint64 `json:"checkpoint_epoch"`
}

// walDir resolves the replication endpoints' WAL directory, writing the
// refusal when this server cannot serve them: a sharded daemon — an
// enveloped directory, or a source whose stats carry an epoch vector — is
// an explicit 501 (per-shard logs have no single offset space to stream;
// see the stub note in docs/ARCHITECTURE.md), anything else without a WAL
// a 404.
func (s *Server) walDir(w http.ResponseWriter) *wal.Dir {
	d := s.cfg.WAL
	if d != nil && !d.Enveloped() {
		return d
	}
	if d != nil || s.eng.SourceStats().Vector != nil {
		s.writeError(w, http.StatusNotImplemented, errors.New("replication of a sharded store is unsupported (stream one unsharded primary per follower)"))
	} else {
		s.writeError(w, http.StatusNotFound, errors.New("not a durable primary (start the daemon with -wal)"))
	}
	return nil
}

// handleWALCheckpoint serves the current checkpoint snapshot for
// follower bootstrap.
func (s *Server) handleWALCheckpoint(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		s.writeError(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	d := s.walDir(w)
	if d == nil {
		return
	}
	epoch, graphJSON, indexJSON, err := d.ReadCheckpoint()
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.served.Add(1)
	s.writeJSON(w, http.StatusOK, CheckpointResponse{Epoch: epoch, Graph: graphJSON, Index: indexJSON})
}

// handleWALStream serves committed log records from a byte offset, then
// tails the live log, as an unbounded chunked response. Parameters:
//
//	from  byte offset to start at (a record boundary the stream handed
//	      out earlier, or the log header size); defaults to the header.
//	base  the base epoch of the log the offset refers to; defaults to
//	      the current log's. A mismatch — the log rotated — returns 409
//	      with a StreamRedirect body.
//
// The response body is a sequence of wal.Chunk frames, one per published
// epoch. The response ends cleanly (at a chunk boundary) when a
// checkpoint rotates the log; the follower reconnects and the base check
// tells it how to re-anchor.
func (s *Server) handleWALStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		s.writeError(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	d := s.walDir(w)
	if d == nil {
		return
	}
	l := d.Log()
	if l == nil {
		s.writeError(w, http.StatusServiceUnavailable, errors.New("log not open"))
		return
	}
	q := r.URL.Query()
	base := l.BaseEpoch()
	if v := q.Get("base"); v != "" {
		b, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("bad base: %w", err))
			return
		}
		base = b
	}
	if base != l.BaseEpoch() {
		// The log the follower was reading rotated away. Point it at the
		// current log and checkpoint; it picks resume or re-bootstrap.
		s.errors.Add(1)
		s.writeJSON(w, http.StatusConflict, StreamRedirect{
			Error:           fmt.Sprintf("log with base epoch %d rotated away", base),
			LogBaseEpoch:    l.BaseEpoch(),
			CheckpointEpoch: d.LastCheckpointEpoch(),
		})
		return
	}
	from := wal.HeaderSize()
	if v := q.Get("from"); v != "" {
		f, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("bad from: %w", err))
			return
		}
		from = f
	}
	t, err := l.NewTailer(from)
	if err != nil {
		if errors.Is(err, wal.ErrBadStreamOffset) {
			s.writeError(w, http.StatusRequestedRangeNotSatisfiable, err)
		} else {
			s.writeError(w, http.StatusInternalServerError, err)
		}
		return
	}
	defer t.Close()

	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		flusher.Flush() // commit the status line before blocking on the tail
	}
	s.served.Add(1)
	// Shutdown waits for this handler but cannot cancel r.Context();
	// fold the server's drain signal in so a graceful stop is not stalled
	// by a live tail.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	go func() {
		select {
		case <-s.draining:
			cancel()
		case <-ctx.Done():
		}
	}()
	for {
		c, err := t.Next(ctx.Done())
		if err != nil {
			// Retirement, drain, client gone, or a read failure: all end
			// the response at a chunk boundary; the follower re-anchors on
			// reconnect.
			return
		}
		c.PrimaryEpoch = s.eng.Version()
		if err := wal.WriteChunk(w, c); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}
