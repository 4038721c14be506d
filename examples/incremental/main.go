// Incremental maintenance of access-constraint indices (§II of the paper,
// "Maintaining access constraints"). The indices that power bounded query
// plans must track the graph as it changes; re-building them from scratch
// on every update would reintroduce the |G| dependence the whole approach
// removes. This example applies a stream of updates — new movies, new
// cast edges, deletions — maintaining the indices incrementally (touching
// only ΔG ∪ Nb(ΔG)) and re-answering a bounded query after each batch. An
// update that would break a cardinality bound is rejected whole.
package main

import (
	"errors"
	"fmt"
	"log"

	"boundedg/internal/access"
	"boundedg/internal/core"
	"boundedg/internal/graph"
	"boundedg/internal/match"
	"boundedg/internal/pattern"
	"boundedg/internal/workload"
)

func main() {
	d := workload.IMDb(0.1, 99)
	idx, viols := access.Build(d.G, d.Schema)
	if viols != nil {
		log.Fatalf("schema violated: %v", viols[0])
	}

	q := pattern.MustParse(`
		a: award
		y: year (>= 1980)
		m: movie
		m -> a
		m -> y
	`, d.In)
	plan, err := core.NewPlan(q, d.Schema, core.Subgraph)
	if err != nil {
		log.Fatal(err)
	}
	count := func() int {
		res, _, err := plan.EvalSubgraph(d.G, idx, match.SubgraphOptions{})
		if err != nil {
			log.Fatal(err)
		}
		return res.Count
	}
	fmt.Printf("initial award-winning movies (>= 1980): %d matches\n", count())

	lMovie := d.In.Intern("movie")
	lYear := d.In.Intern("year")
	lAward := d.In.Intern("award")

	// Pick a (year >= 1980, award) pair with spare winner capacity.
	var year, award graph.NodeID = graph.InvalidNode, graph.InvalidNode
	for _, y := range d.G.NodesByLabel(lYear) {
		if v := d.G.ValueOf(y); v.Kind == graph.KindInt && v.I >= 1980 {
			year = y
			break
		}
	}
	for _, a := range d.G.NodesByLabel(lAward) {
		award = a
		break
	}
	if year == graph.InvalidNode || award == graph.InvalidNode {
		log.Fatal("fixture missing year/award")
	}

	// Batch 1: insert a new award-winning movie.
	delta := &graph.Delta{
		AddNodes: []graph.NodeSpec{{Label: lMovie, Value: graph.IntValue(999999)}},
		AddEdges: [][2]graph.NodeID{
			{graph.NewNodeRef(0), year},
			{graph.NewNodeRef(0), award},
		},
	}
	res, err := idx.ApplyDeltaTx(d.G, delta)
	var verr *access.ViolationError
	switch {
	case errors.As(err, &verr):
		// The (year, award) pair already holds its bound of winners: the
		// update is rejected whole, and graph and indices stay as they were.
		fmt.Printf("update rejected, graph untouched: %v\n", verr.Violations[0])
	case err != nil:
		log.Fatal(err)
	default:
		fmt.Printf("after inserting a winner:                 %d matches\n", count())

		// Batch 2: retract the award edge again.
		retract := &graph.Delta{DelEdges: [][2]graph.NodeID{{res.NewIDs[0], award}}}
		if _, err := idx.ApplyDeltaTx(d.G, retract); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("after retracting the award:               %d matches\n", count())
	}

	// Verify incremental state equals a from-scratch rebuild.
	fresh, fviols := access.Build(d.G, d.Schema)
	if fviols != nil {
		log.Fatalf("rebuild: %v", fviols[0])
	}
	if fresh.SizeNodes() != idx.SizeNodes() {
		log.Fatalf("incremental index diverged from rebuild: %d vs %d",
			idx.SizeNodes(), fresh.SizeNodes())
	}
	fmt.Println("incremental indices match a full rebuild")
}
