package core

import (
	"errors"
	"fmt"
	"strings"

	"boundedg/internal/access"
	"boundedg/internal/pattern"
)

// ErrNotBounded is returned by NewPlan when the pattern is not effectively
// bounded under the schema; inspect the CoverResult from EBnd for the
// uncovered nodes/edges.
var ErrNotBounded = errors.New("core: pattern is not effectively bounded under the schema")

// FetchOp is one node-fetching operation ft(u, VS, φ, gQ(u)) of a query
// plan (§IV): retrieve candidate matches cmat(u) for pattern node u as the
// common neighbors of the (already fetched) candidates of Deps, using the
// index of constraint CIdx, filtered by u's predicate. A nil Deps means a
// type-1 fetch (all l-labeled nodes via the constraint's index).
type FetchOp struct {
	U    pattern.Node
	Deps []pattern.Node // one per label of S, in S order; nil for type-1
	CIdx int            // constraint index in the schema
}

// EdgeCheck records how plan execution verifies candidates for one pattern
// edge: candidates for Target are fetched as common neighbors of Deps
// (which include the opposite endpoint) through constraint CIdx, and each
// returned node is tested for membership in cmat(Target) plus the edge
// direction.
type EdgeCheck struct {
	From, To pattern.Node // the pattern edge
	Target   pattern.Node // one endpoint; fQ(Target) = constraint's l
	CIdx     int
	Deps     []pattern.Node // VS pattern nodes (include Other), in S order
}

// Other returns the edge endpoint that is not the Target.
func (ec EdgeCheck) Other() pattern.Node {
	if ec.Target == ec.To {
		return ec.From
	}
	return ec.To
}

// Plan is an effectively bounded, worst-case-optimal query plan for Q
// under A (Theorems 4 and 9). Execute it with Fetch, or with Exec to
// materialize GQ.
type Plan struct {
	Sem Semantics
	Q   *pattern.Pattern
	A   *access.Schema

	// Ops are executed in order; later ops for the same node reduce its
	// candidate set.
	Ops []FetchOp
	// EdgeChecks lists one verification strategy per pattern edge.
	EdgeChecks []EdgeCheck

	// EstSize[u] is the final worst-case bound on |cmat(u)| used by the
	// optimizer (a function of A and Q only, independent of any graph).
	EstSize []float64
}

// EstGQNodes returns the worst-case bound on the number of nodes of GQ —
// the sum of the final candidate-set estimates.
func (p *Plan) EstGQNodes() float64 {
	t := 0.0
	for _, s := range p.EstSize {
		t += s
	}
	return t
}

// String renders the plan in the style of the paper's Example 6.
func (p *Plan) String() string {
	var b strings.Builder
	in := p.Q.Interner()
	fmt.Fprintf(&b, "plan (%s) for:\n", p.Sem)
	for i, op := range p.Ops {
		c := p.A.At(op.CIdx)
		deps := "nil"
		if op.Deps != nil {
			names := make([]string, len(op.Deps))
			for j, d := range op.Deps {
				names[j] = p.Q.Name(d)
			}
			deps = "{" + strings.Join(names, ", ") + "}"
		}
		pred := p.Q.PredOf(op.U).String()
		fmt.Fprintf(&b, "  ft%d(%s, %s, %s, %s)\n", i+1, p.Q.Name(op.U), deps, c.Format(in), pred)
	}
	for _, ec := range p.EdgeChecks {
		fmt.Fprintf(&b, "  check edge (%s, %s) via %s\n", p.Q.Name(ec.From), p.Q.Name(ec.To), p.A.At(ec.CIdx).Format(in))
	}
	return b.String()
}
