package access

import (
	"bytes"
	"strings"
	"testing"

	"boundedg/internal/graph"
)

func TestIndexSetPersistRoundTrip(t *testing.T) {
	g, lbl := imdbMini(t)
	schema := a0(lbl)
	set, viols := Build(g, schema)
	if viols != nil {
		t.Fatal(viols)
	}
	var buf bytes.Buffer
	if err := set.WriteJSON(&buf, g.Interner()); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	loaded, err := ReadIndexSet(bytes.NewReader(buf.Bytes()), g.Interner())
	if err != nil {
		t.Fatalf("ReadIndexSet: %v", err)
	}
	if loaded.Schema().Count() != schema.Count() {
		t.Fatalf("schema count %d vs %d", loaded.Schema().Count(), schema.Count())
	}
	// Every lookup agrees with the original (compare via brute force).
	for i := range schema.Constraints() {
		a, b := set.Index(i), loaded.Index(i)
		if a.NumEntries() != b.NumEntries() || a.SizeNodes() != b.SizeNodes() {
			t.Fatalf("constraint %d: shape differs (%d/%d vs %d/%d)",
				i, a.NumEntries(), a.SizeNodes(), b.NumEntries(), b.SizeNodes())
		}
		for key, want := range a.entries {
			if !sameIDSet(b.entries[key].membersOrNil(), want.members) {
				t.Fatalf("constraint %d key %q differs", i, key)
			}
		}
	}
	// The reloaded set supports incremental maintenance (reverse maps
	// were rebuilt): delete a movie and compare with a fresh build.
	movie := g.NodesByLabel(lbl["movie"])[0]
	d := &graph.Delta{DelNodes: []graph.NodeID{movie}}
	if _, err := loaded.ApplyDeltaTx(g, d); err != nil {
		t.Fatal(err)
	}
	assertIndexesMatchRebuild(t, g, schema, loaded)
}

func TestReadIndexSetErrors(t *testing.T) {
	in := graph.NewInterner()
	if _, err := ReadIndexSet(strings.NewReader("{bad"), in); err == nil {
		t.Fatal("malformed JSON accepted")
	}
	// Index count mismatch.
	src := `{"schema":{"constraints":[{"l":"a","n":1}]},"indexes":[]}`
	if _, err := ReadIndexSet(strings.NewReader(src), in); err == nil {
		t.Fatal("index count mismatch accepted")
	}
	// Arity mismatch in an entry.
	src = `{"schema":{"constraints":[{"s":["b"],"l":"a","n":1}]},
	        "indexes":[{"entries":[{"vs":[1,2],"members":[3]}]}]}`
	if _, err := ReadIndexSet(strings.NewReader(src), in); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}
