package access_test

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"boundedg/internal/access"
	"boundedg/internal/graph"
	"boundedg/internal/workload"
)

// buildWorkloadSet builds the index set of a workload dataset.
func buildWorkloadSet(t *testing.T, d *workload.Dataset) *access.IndexSet {
	t.Helper()
	set, viols := access.Build(d.G, d.Schema)
	if viols != nil {
		t.Fatalf("%s: index build: %v", d.Name, viols[0])
	}
	return set
}

// TestIndexSetRoundTripWorkloads: WriteJSON -> ReadIndexSet -> WriteJSON
// is byte-identical on every workload generator's index set (WriteJSON
// output is deterministic, so byte equality is index-set equality), and
// the reloaded set answers lookups like the original.
func TestIndexSetRoundTripWorkloads(t *testing.T) {
	datasets := []*workload.Dataset{
		workload.IMDb(0.05, 3),
		workload.DBpedia(0.05, 4),
		workload.WebBase(0.05, 5),
	}
	for _, d := range datasets {
		t.Run(d.Name, func(t *testing.T) {
			set := buildWorkloadSet(t, d)
			var first bytes.Buffer
			if err := set.WriteJSON(&first, d.In); err != nil {
				t.Fatalf("WriteJSON: %v", err)
			}
			loaded, err := access.ReadIndexSet(bytes.NewReader(first.Bytes()), d.In)
			if err != nil {
				t.Fatalf("ReadIndexSet: %v", err)
			}
			var second bytes.Buffer
			if err := loaded.WriteJSON(&second, d.In); err != nil {
				t.Fatalf("re-WriteJSON: %v", err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Fatalf("round trip not byte-identical (%d vs %d bytes)", first.Len(), second.Len())
			}
			// Spot-check lookups through the public API: every type-1
			// constraint's full extent must agree.
			for i, c := range d.Schema.Constraints() {
				if !c.Type1() {
					continue
				}
				a := set.Index(i).Lookup(nil)
				b := loaded.Index(i).Lookup(nil)
				if len(a) != len(b) {
					t.Fatalf("constraint %d: lookup sizes %d vs %d", i, len(a), len(b))
				}
				in := make(map[graph.NodeID]bool, len(a))
				for _, v := range a {
					in[v] = true
				}
				for _, v := range b {
					if !in[v] {
						t.Fatalf("constraint %d: reloaded lookup has extra node %d", i, v)
					}
				}
			}
		})
	}
}

// TestReadIndexSetTruncated: every truncation of a valid index-set file
// must fail cleanly (error, no panic) — except trimming the trailing
// newline, which is still a complete JSON document.
func TestReadIndexSetTruncated(t *testing.T) {
	d := workload.IMDb(0.03, 7)
	set := buildWorkloadSet(t, d)
	var buf bytes.Buffer
	if err := set.WriteJSON(&buf, d.In); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if len(data) < 64 {
		t.Fatalf("fixture too small (%d bytes)", len(data))
	}
	cuts := []int{0, 1, len(data) / 4, len(data) / 2, 3 * len(data) / 4, len(data) - 2}
	for _, cut := range cuts {
		if _, err := access.ReadIndexSet(bytes.NewReader(data[:cut]), d.In); err == nil {
			t.Errorf("truncation at %d/%d bytes accepted", cut, len(data))
		}
	}
	// And byte-level corruption of structural characters.
	for _, corrupt := range []struct{ old, new string }{
		{`"entries"`, `"entriesX"`}, // a required field vanishes
		{`[`, `{`},                  // broken nesting (first occurrence)
	} {
		mutated := strings.Replace(string(data), corrupt.old, corrupt.new, 1)
		if mutated == string(data) {
			t.Fatalf("corruption %q not applicable", corrupt.old)
		}
		if _, err := access.ReadIndexSet(strings.NewReader(mutated), d.In); err == nil {
			// Dropping "entries" leaves structurally valid JSON with empty
			// indexes; that must still fail somewhere (count mismatch) —
			// and it does, because the schema remains populated. Reaching
			// here means it was silently accepted.
			t.Errorf("corruption %q -> %q accepted", corrupt.old, corrupt.new)
		}
	}
}

// TestReadIndexSetCorruptEntries: structurally valid JSON with
// inconsistent content (bad arity, trailing garbage readers) errors.
func TestReadIndexSetCorruptEntries(t *testing.T) {
	in := graph.NewInterner()
	cases := []string{
		// Entry arity does not match the constraint's |S|.
		`{"schema":{"constraints":[{"s":["b"],"l":"a","n":2}]},
		  "indexes":[{"entries":[{"vs":[1,2],"members":[3]}]}]}`,
		// Type-1 constraint with a non-empty VS tuple.
		`{"schema":{"constraints":[{"l":"a","n":2}]},
		  "indexes":[{"entries":[{"vs":[9],"members":[3]}]}]}`,
		// More indexes than constraints.
		`{"schema":{"constraints":[{"l":"a","n":2}]},
		  "indexes":[{"entries":[]},{"entries":[]}]}`,
		// Invalid constraint (negative bound).
		`{"schema":{"constraints":[{"l":"a","n":-1}]},"indexes":[{"entries":[]}]}`,
	}
	for i, src := range cases {
		if _, err := access.ReadIndexSet(strings.NewReader(src), in); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// errReader fails partway through, simulating a torn disk read.
type errReader struct {
	data []byte
	off  int
}

func (r *errReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, fmt.Errorf("disk gone")
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	if r.off >= len(r.data) {
		return n, fmt.Errorf("disk gone")
	}
	return n, nil
}

var _ io.Reader = (*errReader)(nil)

// TestReadIndexSetReaderError: an I/O error mid-stream surfaces as an
// error, not a partial index set.
func TestReadIndexSetReaderError(t *testing.T) {
	d := workload.IMDb(0.03, 7)
	set := buildWorkloadSet(t, d)
	var buf bytes.Buffer
	if err := set.WriteJSON(&buf, d.In); err != nil {
		t.Fatal(err)
	}
	half := buf.Bytes()[:buf.Len()/2]
	if _, err := access.ReadIndexSet(&errReader{data: half}, d.In); err == nil {
		t.Fatal("mid-stream read error swallowed")
	}
}

// TestIndexBytesMatchGolden pins the on-disk index form: the file was
// written by the string-keyed index the integer-keyed one replaced, for
// IMDb at scale 0.005, seed 1. Building the same instance must reproduce
// it byte for byte, and reading it back must re-encode to the same bytes.
func TestIndexBytesMatchGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/imdb_small_index.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	d := workload.IMDb(0.005, 1)
	encode := func(set *access.IndexSet) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := set.WriteJSON(&buf, d.In); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		return buf.Bytes()
	}
	if got := encode(buildWorkloadSet(t, d)); !bytes.Equal(got, golden) {
		t.Fatalf("WriteJSON differs from the golden file (%d vs %d bytes)", len(got), len(golden))
	}
	loaded, err := access.ReadIndexSet(bytes.NewReader(golden), d.In)
	if err != nil {
		t.Fatalf("ReadIndexSet(golden): %v", err)
	}
	if got := encode(loaded); !bytes.Equal(got, golden) {
		t.Fatal("golden file does not re-encode byte for byte")
	}
}
