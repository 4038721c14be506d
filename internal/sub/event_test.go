package sub

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"boundedg/internal/graph"
)

func rows(vals ...[]graph.NodeID) [][]graph.NodeID { return vals }

func row(ids ...graph.NodeID) []graph.NodeID { return ids }

// TestEventRoundTrip writes every event shape through the SSE codec and
// demands the decoded frame be structurally identical — the differential
// harness's folding subscribers depend on this codec being lossless.
func TestEventRoundTrip(t *testing.T) {
	events := []Event{
		{Type: TypeInit, Epoch: 0, Rows: nil, Complete: true},
		{Type: TypeInit, Epoch: 7, Rows: rows(row(1, 2), row(3, 4)), Complete: false},
		{Type: TypeDiff, Epoch: 8, Added: rows(row(5, 6)), Removed: rows(row(1, 2)), Complete: true},
		{Type: TypeDiff, Epoch: 9, Vector: []uint64{3, 6}, Added: rows(row(0, 0))},
		{Type: TypeResync, Epoch: 10, Rows: rows(row(9)), Complete: true},
		{Type: TypeHeartbeat, Epoch: 11},
	}
	var buf bytes.Buffer
	for _, ev := range events {
		if err := WriteEvent(&buf, ev); err != nil {
			t.Fatalf("WriteEvent(%+v): %v", ev, err)
		}
	}
	dec := NewDecoder(&buf)
	for i, want := range events {
		got, err := dec.Next()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("event %d round trip:\ngot  %+v\nwant %+v", i, got, want)
		}
	}
	if _, err := dec.Next(); err != io.EOF {
		t.Fatalf("end of stream: got %v, want io.EOF", err)
	}
}

// TestWriteEventRejectsBadType pins the frame-injection guard: an event
// type carrying SSE syntax must be refused, not written.
func TestWriteEventRejectsBadType(t *testing.T) {
	for _, typ := range []string{"", "a\nb", "a\rb", "a:b"} {
		var buf bytes.Buffer
		if err := WriteEvent(&buf, Event{Type: typ}); err == nil {
			t.Fatalf("WriteEvent accepted type %q", typ)
		}
		if buf.Len() != 0 {
			t.Fatalf("WriteEvent wrote %q before rejecting type %q", buf.String(), typ)
		}
	}
}

// TestDecoderGrammar covers the SSE grammar cases a strict server never
// emits but a correct client must survive: CRLF line endings, comment
// lines, unknown fields, multi-line data, and leading blank lines.
func TestDecoderGrammar(t *testing.T) {
	in := strings.Join([]string{
		"",                   // leading blank line: not a frame
		": stream comment\r", // comment, CRLF
		"event: heartbeat\r", // CRLF terminated field
		"id: 42",             // unknown SSE field, skipped
		"data: {\"epoch\":",  // data split across two lines...
		"data: 5}",           // ...joined with \n, still valid JSON
		"\r",                 // CRLF frame terminator
		"event:diff",         // no space after the colon
		"data:{\"epoch\":6,\"added\":[[1]],\"complete\":true}",
		"",
	}, "\n") + "\n"
	dec := NewDecoder(strings.NewReader(in))

	ev, err := dec.Next()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Type != TypeHeartbeat || ev.Epoch != 5 {
		t.Fatalf("first frame: %+v", ev)
	}
	ev, err = dec.Next()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Type != TypeDiff || ev.Epoch != 6 || !ev.Complete || len(ev.Added) != 1 {
		t.Fatalf("second frame: %+v", ev)
	}
	if _, err := dec.Next(); err != io.EOF {
		t.Fatalf("end of stream: got %v, want io.EOF", err)
	}
}

// TestDecoderTruncation distinguishes a clean close from a mid-frame
// kill: the reconnect logic relies on io.EOF vs io.ErrUnexpectedEOF to
// know whether the last frame can be trusted.
func TestDecoderTruncation(t *testing.T) {
	var full bytes.Buffer
	if err := WriteEvent(&full, Event{Type: TypeDiff, Epoch: 3, Added: rows(row(1, 2))}); err != nil {
		t.Fatal(err)
	}
	frame := full.Bytes()

	// Clean close at every frame boundary (0 or 1 complete frames).
	dec := NewDecoder(bytes.NewReader(nil))
	if _, err := dec.Next(); err != io.EOF {
		t.Fatalf("empty stream: got %v, want io.EOF", err)
	}
	dec = NewDecoder(bytes.NewReader(frame))
	if _, err := dec.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Next(); err != io.EOF {
		t.Fatalf("after full frame: got %v, want io.EOF", err)
	}

	// A kill at any byte inside the frame must be io.ErrUnexpectedEOF.
	for cut := 1; cut < len(frame); cut++ {
		dec := NewDecoder(bytes.NewReader(frame[:cut]))
		if _, err := dec.Next(); err != io.ErrUnexpectedEOF {
			t.Fatalf("cut at %d/%d bytes: got %v, want io.ErrUnexpectedEOF", cut, len(frame), err)
		}
	}
}

// TestDecoderFrameWithoutEvent is a named regression: a frame that ends
// without an event field is a protocol error, not a zero event.
func TestDecoderFrameWithoutEvent(t *testing.T) {
	dec := NewDecoder(strings.NewReader("data: {\"epoch\":1}\n\n"))
	if _, err := dec.Next(); err == nil || err == io.EOF {
		t.Fatalf("frame without event field: got %v, want protocol error", err)
	}
}

// TestDecoderBadPayload is a named regression: malformed JSON in a data
// line must surface as an error naming the event type.
func TestDecoderBadPayload(t *testing.T) {
	dec := NewDecoder(strings.NewReader("event: diff\ndata: {not json\n\n"))
	_, err := dec.Next()
	if err == nil || !strings.Contains(err.Error(), "diff") {
		t.Fatalf("bad payload: got %v, want error naming the event type", err)
	}
}

// TestDiffRowsTable pins the merge walk on hand cases.
func TestDiffRowsTable(t *testing.T) {
	cases := []struct {
		old, cur, added, removed [][]graph.NodeID
	}{
		{nil, nil, nil, nil},
		{nil, rows(row(1)), rows(row(1)), nil},
		{rows(row(1)), nil, nil, rows(row(1))},
		{rows(row(1), row(2)), rows(row(1), row(2)), nil, nil},
		{rows(row(1), row(3)), rows(row(2), row(3)), rows(row(2)), rows(row(1))},
		{rows(row(1, 2)), rows(row(1, 2, 3)), rows(row(1, 2, 3)), rows(row(1, 2))},
	}
	for i, c := range cases {
		added, removed := DiffRows(c.old, c.cur)
		if !reflect.DeepEqual(added, c.added) || !reflect.DeepEqual(removed, c.removed) {
			t.Fatalf("case %d: added %v removed %v, want %v / %v", i, added, removed, c.added, c.removed)
		}
	}
}

// TestDiffFoldProperty is the algebraic property the whole stream
// protocol rests on: for random sorted row sets A and B,
// Fold(A, diff(A→B)) == B exactly.
func TestDiffFoldProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	randomRows := func() [][]graph.NodeID {
		n := rng.Intn(20)
		seen := map[[2]graph.NodeID]bool{}
		var rs [][]graph.NodeID
		for len(rs) < n {
			r := [2]graph.NodeID{graph.NodeID(rng.Intn(12)), graph.NodeID(rng.Intn(12))}
			if !seen[r] {
				seen[r] = true
				rs = append(rs, []graph.NodeID{r[0], r[1]})
			}
		}
		for i := range rs {
			for j := i + 1; j < len(rs); j++ {
				if rowCompare(rs[j], rs[i]) < 0 {
					rs[i], rs[j] = rs[j], rs[i]
				}
			}
		}
		return rs
	}
	for trial := 0; trial < 200; trial++ {
		a, b := randomRows(), randomRows()
		added, removed := DiffRows(a, b)
		got, err := Fold(a, Event{Type: TypeDiff, Added: added, Removed: removed})
		if err != nil {
			t.Fatalf("trial %d: fold: %v", trial, err)
		}
		if !reflect.DeepEqual(got, b) && !(len(got) == 0 && len(b) == 0) {
			t.Fatalf("trial %d: fold(a, diff) = %v, want %v (a=%v)", trial, got, b, a)
		}
	}
}

// TestFoldStrictness: a diff that disagrees with the folded state must
// error — this is the tripwire the differential harness relies on.
func TestFoldStrictness(t *testing.T) {
	state := rows(row(1), row(3))
	if _, err := Fold(state, Event{Type: TypeDiff, Removed: rows(row(2))}); err == nil {
		t.Fatal("removing an absent row folded silently")
	}
	if _, err := Fold(state, Event{Type: TypeDiff, Added: rows(row(3))}); err == nil {
		t.Fatal("adding a duplicate row folded silently")
	}
	if _, err := Fold(state, Event{Type: "bogus"}); err == nil {
		t.Fatal("unknown event type folded silently")
	}
	// Named regression: a diff removing more rows than the state holds
	// must error cleanly, not panic on a negative capacity.
	if _, err := Fold(nil, Event{Type: TypeDiff, Removed: rows(row(1), row(2))}); err == nil {
		t.Fatal("removing from an empty state folded silently")
	}
	// Heartbeats and resyncs never consult the previous state.
	if got, err := Fold(state, Event{Type: TypeHeartbeat, Epoch: 9}); err != nil || !reflect.DeepEqual(got, state) {
		t.Fatalf("heartbeat fold: %v %v", got, err)
	}
	if got, err := Fold(state, Event{Type: TypeResync, Rows: rows(row(8))}); err != nil || !reflect.DeepEqual(got, rows(row(8))) {
		t.Fatalf("resync fold: %v %v", got, err)
	}
}
