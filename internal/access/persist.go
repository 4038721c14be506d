package access

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"

	"boundedg/internal/graph"
)

// Index persistence: the paper builds its constraint indices offline (in
// MySQL tables) and reuses them across queries. WriteJSON/ReadIndexSet
// give this repository the same lifecycle — build once with Build, save,
// and reload next to the graph without rescanning it.
//
// The on-disk format stores, per constraint, its entries as (VS tuple,
// members) pairs using the graph's node IDs, so a saved index set is only
// valid against the exact graph it was built from (the loader re-derives
// the reverse maps; it does not re-verify entries — use Validate for
// that).

type jsonIndexSet struct {
	Schema  jsonSchema  `json:"schema"`
	Indexes []jsonIndex `json:"indexes"`
}

type jsonIndex struct {
	Entries []jsonEntry `json:"entries"`
}

type jsonEntry struct {
	VS      []graph.NodeID `json:"vs,omitempty"`
	Members []graph.NodeID `json:"members"`
}

// WriteJSON serializes the index set (schema + all entries). Label names
// are resolved through in so the file is self-contained.
func (s *IndexSet) WriteJSON(w io.Writer, in *graph.Interner) error {
	js := jsonIndexSet{}
	for _, c := range s.schema.Constraints() {
		jc := jsonConstraint{L: in.Name(c.L), N: c.N}
		for _, l := range c.S {
			jc.S = append(jc.S, in.Name(l))
		}
		js.Schema.Constraints = append(js.Schema.Constraints, jc)
	}
	type keyed struct {
		enc string
		e   *indexEntry
	}
	var vs []graph.NodeID
	var buf []byte
	for _, x := range s.indexes {
		// Entries are written in the byte order of their canonical tuple
		// encodings (appendTuple), so the file is deterministic and
		// independent of the in-memory key form.
		order := make([]keyed, 0, len(x.entries))
		for k, e := range x.entries {
			enc := e.tuple
			if enc == "" {
				vs = x.tupleOf(k, vs[:0])
				buf = appendTuple(buf[:0], vs)
				enc = string(buf)
			}
			order = append(order, keyed{enc, e})
		}
		slices.SortFunc(order, func(a, b keyed) int { return strings.Compare(a.enc, b.enc) })
		ji := jsonIndex{Entries: make([]jsonEntry, 0, len(order))}
		for _, o := range order {
			ji.Entries = append(ji.Entries, jsonEntry{VS: decodeTuple(o.enc, nil), Members: slices.Clone(o.e.members)})
		}
		js.Indexes = append(js.Indexes, ji)
	}
	bw := bufio.NewWriter(w)
	if err := json.NewEncoder(bw).Encode(js); err != nil {
		return fmt.Errorf("access: encode index set: %w", err)
	}
	return bw.Flush()
}

// ReadIndexSet loads an index set written by WriteJSON. Node IDs are
// taken verbatim, so the result is only meaningful against the graph the
// set was built from.
func ReadIndexSet(r io.Reader, in *graph.Interner) (*IndexSet, error) {
	var js jsonIndexSet
	dec := json.NewDecoder(bufio.NewReader(r))
	// Strict field checking: a misspelled or foreign document (say, a
	// schema or graph file passed by mistake) must error, not decode to
	// an empty index set.
	dec.DisallowUnknownFields()
	if err := dec.Decode(&js); err != nil {
		return nil, fmt.Errorf("access: decode index set: %w", err)
	}
	schema := NewSchema()
	for i, jc := range js.Schema.Constraints {
		labels := make([]graph.Label, len(jc.S))
		for j, name := range jc.S {
			labels[j] = in.Intern(name)
		}
		c, err := New(labels, in.Intern(jc.L), jc.N)
		if err != nil {
			return nil, fmt.Errorf("access: constraint %d: %w", i, err)
		}
		schema.Add(c)
	}
	if len(js.Indexes) != schema.Count() {
		return nil, fmt.Errorf("access: %d indexes for %d constraints", len(js.Indexes), schema.Count())
	}
	set := &IndexSet{schema: schema, indexes: make([]*Index, schema.Count())}
	for i, ji := range js.Indexes {
		x := newIndex(schema.At(i))
		for _, e := range ji.Entries {
			if len(e.VS) != x.c.Arity() {
				return nil, fmt.Errorf("access: constraint %d: entry arity %d != |S| %d", i, len(e.VS), x.c.Arity())
			}
			for _, m := range e.Members {
				x.insert(e.VS, m)
			}
		}
		x.rf = x.freeze()
		set.indexes[i] = x
	}
	return set, nil
}
