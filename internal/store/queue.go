package store

import (
	"sync"

	"boundedg/internal/graph"
)

// Request is one write waiting in a group-commit Queue. The leader that
// takes it fills Res or Err and wakes it with Settle.
type Request struct {
	Delta *graph.Delta
	Res   Result
	Err   error
	done  chan struct{}
}

// Wait blocks until the request is settled and returns its verdict.
func (r *Request) Wait() (Result, error) {
	<-r.done
	return r.Res, r.Err
}

// Queue is the group-commit queue shared by Store.Apply and the shard
// router: callers Push, whichever caller holds the leader lock Takes the
// whole queue and commits it as one batch. The mutex is never held while
// blocking.
type Queue struct {
	mu   sync.Mutex
	reqs []*Request
}

// Push enqueues d and returns its request.
func (q *Queue) Push(d *graph.Delta) *Request {
	r := &Request{Delta: d, done: make(chan struct{})}
	q.mu.Lock()
	q.reqs = append(q.reqs, r)
	q.mu.Unlock()
	return r
}

// Take removes and returns every queued request.
func (q *Queue) Take() []*Request {
	q.mu.Lock()
	batch := q.reqs
	q.reqs = nil
	q.mu.Unlock()
	return batch
}

// Len returns the number of queued requests.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.reqs)
}

// Settle wakes every request of batch. A non-nil err first fails each
// request that has no verdict of its own yet.
func Settle(batch []*Request, err error) {
	for _, r := range batch {
		if err != nil && r.Err == nil {
			r.Res, r.Err = Result{}, err
		}
		close(r.done)
	}
}

// Signal is a publication broadcast: Wait returns a channel that the
// next Fire closes. It is a one-shot level trigger, not a queue — grab
// the channel BEFORE reading the version it guards, act on what the
// version says, then block on the channel; that order cannot miss a
// publication. Consecutive Fires may coalesce into one close.
type Signal struct {
	mu sync.Mutex
	ch chan struct{} // nil until someone waits
}

// Wait returns the channel the next Fire closes.
func (s *Signal) Wait() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ch == nil {
		s.ch = make(chan struct{})
	}
	return s.ch
}

// Fire wakes every waiter. It never blocks, so a publisher pays only a
// mutex tap when nobody waits.
func (s *Signal) Fire() {
	s.mu.Lock()
	ch := s.ch
	s.ch = nil
	s.mu.Unlock()
	if ch != nil {
		close(ch)
	}
}
