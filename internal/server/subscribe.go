package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"boundedg/internal/core"
	"boundedg/internal/runtime"
	"boundedg/internal/sub"
)

// Subscription endpoints: POST /subscribe registers a continuous query
// through the same DSL/validation path as /query, GET
// /subscribe/{id}/events streams its answer changes as server-sent
// events (one init, then diff/heartbeat/resync frames; see
// internal/sub.Event), and DELETE /subscribe/{id} removes it. See the
// continuous-queries section of docs/ARCHITECTURE.md for the protocol
// invariants and docs/OPERATIONS.md for a curl walkthrough.

// SubscribeRequest is the body of POST /subscribe.
type SubscribeRequest struct {
	// Pattern is the continuous query in the text DSL of
	// internal/pattern.Parse.
	Pattern string `json:"pattern"`
	// Sem must be "subgraph" (or empty): diffs over the simulation
	// relation are not supported.
	Sem string `json:"sem,omitempty"`
	// Limit caps the subscription's answer like QueryRequest.Limit. A
	// truncated answer still streams consistent diffs, but which rows it
	// holds is search-order dependent; subscribe below the limit for
	// oracle-comparable streams.
	Limit int `json:"limit,omitempty"`
}

// SubscribeResponse is the body of a successful POST /subscribe.
type SubscribeResponse struct {
	// ID names the subscription in the other endpoints.
	ID uint64 `json:"id"`
	// Epoch is the published version at registration time; the stream's
	// init event carries the authoritative epoch of the first answer.
	Epoch uint64 `json:"epoch"`
	// Vars lists the pattern's node names: the column order of every
	// row in the stream's events.
	Vars []string `json:"vars"`
	// Limit echoes the effective (clamped) match cap.
	Limit int `json:"limit"`
	// Events is the path of the subscription's event stream.
	Events string `json:"events"`
}

// errSubsDisabled is the refusal on every subscription endpoint when
// Config.MaxSubs is negative.
var errSubsDisabled = errors.New("subscriptions are disabled (start the daemon with -max-subs > 0)")

func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	if s.hub == nil {
		s.writeError(w, http.StatusNotFound, errSubsDisabled)
		return
	}
	var req SubscribeRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	sem, err := parseSem(req.Sem)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if sem != core.Subgraph {
		s.writeError(w, http.StatusBadRequest, errors.New("subscriptions require subgraph semantics"))
		return
	}
	limit := req.Limit
	if limit <= 0 {
		limit = s.cfg.DefaultLimit
	}
	if limit > s.cfg.MaxLimit {
		limit = s.cfg.MaxLimit
	}
	_, ent, err := s.compile(req.Pattern, core.Subgraph, limit)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	sb, err := s.hub.Register(ent.q, limit)
	if err != nil {
		if errors.Is(err, sub.ErrTooManySubs) {
			s.writeError(w, http.StatusTooManyRequests, err)
		} else {
			s.writeError(w, http.StatusServiceUnavailable, err)
		}
		return
	}
	resp := SubscribeResponse{
		ID:     sb.ID(),
		Epoch:  s.eng.Version(),
		Limit:  limit,
		Events: fmt.Sprintf("/subscribe/%d/events", sb.ID()),
	}
	for _, u := range ent.q.Nodes() {
		resp.Vars = append(resp.Vars, ent.q.Name(u))
	}
	s.served.Add(1)
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleUnsubscribe(w http.ResponseWriter, r *http.Request) {
	if s.hub == nil {
		s.writeError(w, http.StatusNotFound, errSubsDisabled)
		return
	}
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("bad subscription id: %w", err))
		return
	}
	if !s.hub.Unsubscribe(id) {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("no subscription %d", id))
		return
	}
	s.served.Add(1)
	s.writeJSON(w, http.StatusOK, map[string]uint64{"id": id})
}

// handleSubscribeEvents serves one subscription's event stream. A
// reconnect (second GET for the same id) preempts the previous stream
// and opens with a fresh init event, so a consumer that lost its
// connection mid-frame converges again by folding the new stream.
//
// The consumer must never stall the rest of the daemon: each frame
// write runs under SubWriteTimeout, the dispatcher's queue for this
// subscription is bounded (overflow surfaces here as a resync event),
// and Shutdown's drain signal is folded into the request context so a
// graceful stop ends the stream at a frame boundary.
func (s *Server) handleSubscribeEvents(w http.ResponseWriter, r *http.Request) {
	if s.hub == nil {
		s.writeError(w, http.StatusNotFound, errSubsDisabled)
		return
	}
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("bad subscription id: %w", err))
		return
	}
	sb, ok := s.hub.Get(id)
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("no subscription %d", id))
		return
	}
	gen, ok := sb.Attach()
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("subscription %d is closed", id))
		return
	}
	defer sb.Detach(gen)

	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	go func() {
		select {
		case <-s.draining:
			cancel()
		case <-ctx.Done():
		}
	}()

	// Evaluate the initial answer before committing the status line, so
	// a failing first evaluation still reports a real error status.
	init, err := sb.FullEval(ctx)
	if err != nil {
		switch {
		case errors.Is(err, core.ErrNotBounded):
			s.writeError(w, http.StatusUnprocessableEntity, err)
		case errors.Is(err, context.DeadlineExceeded):
			s.writeError(w, http.StatusGatewayTimeout, errors.New("subscription evaluation deadline exceeded"))
		case errors.Is(err, context.Canceled), errors.Is(err, runtime.ErrClosed):
			s.writeError(w, http.StatusServiceUnavailable, err)
		default:
			s.writeError(w, http.StatusInternalServerError, err)
		}
		return
	}
	init.Type = sub.TypeInit

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	write := func(ev sub.Event) error {
		if err := rc.SetWriteDeadline(time.Now().Add(s.cfg.SubWriteTimeout)); err != nil {
			return err
		}
		if err := sub.WriteEvent(w, ev); err != nil {
			return err
		}
		return rc.Flush()
	}
	s.served.Add(1)
	if write(init) != nil {
		return
	}
	hb := time.NewTicker(s.cfg.SubHeartbeat)
	defer hb.Stop()
	heartbeatDue := false
	for {
		// Read the certified mark BEFORE draining the queue: the
		// dispatcher advances it only after enqueueing the diff that
		// certifies it, so a mark read here is either covered by the
		// events about to drain or claims an epoch that changed nothing.
		cert := sb.Certified()
		evs, needResync, ok := sb.TakeEvents(gen)
		if !ok {
			return // preempted by a newer stream for this subscription
		}
		for _, ev := range evs {
			if write(ev) != nil {
				return
			}
		}
		if needResync {
			rv, err := sb.FullEval(ctx)
			if err != nil {
				return
			}
			rv.Type = sub.TypeResync
			if write(rv) != nil {
				return
			}
			continue
		}
		if heartbeatDue && len(evs) == 0 {
			if write(sub.Event{Type: sub.TypeHeartbeat, Epoch: cert}) != nil {
				return
			}
		}
		heartbeatDue = false
		select {
		case <-sb.Poke():
		case <-hb.C:
			heartbeatDue = true
		case <-ctx.Done():
			return
		case <-sb.Closed():
			return
		}
	}
}
