package store

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"boundedg/internal/graph"
	"boundedg/internal/wal"
)

// wedgeFixture builds a durable store plus a deterministic 3-delta batch
// stalled behind the writer lock, with hookAppend installed. The caller
// releases the lock to run the batch and gets the per-caller outcomes.
func wedgeFixture(t *testing.T, hook func(i int) error) (*Store, string, func() ([]Result, []error)) {
	t.Helper()
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
	// One serial apply: the shadow clone is paid and the log holds one
	// record the failed batch must not disturb.
	if _, err := st.Apply(&graph.Delta{AddNodes: []graph.NodeSpec{{Label: label}}}); err != nil {
		t.Fatal(err)
	}
	st.hookAppend = hook

	const writers = 3
	st.mu.Lock() // stall the leader path; the Applies pile up in the queue
	results := make([]Result, writers)
	errs := make([]error, writers)
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[i] = errors.New("leader-panic: " + r.(string))
				}
			}()
			results[i], errs[i] = st.Apply(&graph.Delta{AddNodes: []graph.NodeSpec{{Label: label}}})
		}(i)
	}
	for {
		if st.queue.Len() == writers {
			break
		}
		time.Sleep(time.Millisecond)
	}
	return st, dir, func() ([]Result, []error) {
		st.mu.Unlock()
		wg.Wait()
		return results, errs
	}
}

// TestWedgeRewindsLog: a WAL append failing mid-batch must error every
// caller with ErrWedged (matching ErrClosed, the server's 503), leave no
// record of the failed batch in the log, and bar further writes — so a
// restart recovers exactly the pre-batch state instead of silently
// committing updates whose callers were told they failed.
func TestWedgeRewindsLog(t *testing.T) {
	bang := errors.New("injected append failure")
	st, dir, run := wedgeFixture(t, func(i int) error {
		if i == 1 { // first append lands, second fails: one orphan record
			return bang
		}
		return nil
	})
	results, errs := run()
	for i, err := range errs {
		if !errors.Is(err, ErrWedged) || !errors.Is(err, ErrClosed) {
			t.Fatalf("caller %d: err %v, want ErrWedged (wrapping ErrClosed)", i, err)
		}
		if results[i].LogOffset != 0 {
			t.Fatalf("caller %d reports log offset %d for an uncommitted update", i, results[i].LogOffset)
		}
	}
	if _, err := st.Apply(&graph.Delta{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-wedge Apply: %v, want ErrClosed", err)
	}
	if st.Epoch() != 1 {
		t.Fatalf("published epoch %d after wedge, want 1 (batch must not publish)", st.Epoch())
	}
	st.dur.Close()

	// Recovery must see the serial record only: the orphan append of the
	// failed batch was rewound out of the log.
	_, _, _, d, info := recoverDir(t, dir)
	defer d.Close()
	if info.Records != 1 || info.Epoch != 1 {
		t.Fatalf("recovered %d records to epoch %d, want 1 record / epoch 1", info.Records, info.Epoch)
	}
	if info.Truncated != 0 {
		t.Fatalf("rewound log reported a torn tail: %d bytes (%s)", info.Truncated, info.TruncateReason)
	}
}

// TestCommitPanicFailsWaiters: a panic inside a group commit must not
// strand the batch's waiters or deadlock the store — the leader's panic
// propagates (its Apply caller sees it), every other waiter gets an
// error, the appended records are rewound, and the writer lock is
// released so later writes fail fast with ErrClosed.
func TestCommitPanicFailsWaiters(t *testing.T) {
	st, dir, run := wedgeFixture(t, func(i int) error {
		if i == 1 {
			panic("injected commit panic")
		}
		return nil
	})
	_, errs := run()
	var panicked, failed int
	for i, err := range errs {
		switch {
		case err == nil:
			t.Fatalf("caller %d got no error from a panicked commit", i)
		case strings.HasPrefix(err.Error(), "leader-panic: "):
			panicked++
		default:
			failed++
		}
	}
	if panicked != 1 || failed != 2 {
		t.Fatalf("outcomes: %d panicked, %d errored; want exactly the leader to panic and 2 waiters to error (%v)", panicked, failed, errs)
	}

	// The writer lock must be free and the store closed: a fresh Apply
	// fails fast instead of deadlocking.
	done := make(chan error, 1)
	go func() {
		_, err := st.Apply(&graph.Delta{})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("post-panic Apply: %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("post-panic Apply deadlocked: writer lock never released")
	}
	st.dur.Close()

	_, _, _, d, info := recoverDir(t, dir)
	defer d.Close()
	if info.Records != 1 || info.Epoch != 1 {
		t.Fatalf("recovered %d records to epoch %d, want 1/1 (panicked batch rewound)", info.Records, info.Epoch)
	}
}
