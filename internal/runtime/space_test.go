package runtime_test

import (
	"fmt"
	"os"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"boundedg/internal/access"
	"boundedg/internal/core"
	"boundedg/internal/graph"
	"boundedg/internal/match"
	"boundedg/internal/pattern"
	"boundedg/internal/shard"
	"boundedg/internal/workload"
)

// TestCandidateSpaceMatchesGQ holds the serving path's matching, on the
// candidate space Plan.Fetch returns, to the paper's matching inside the
// GQ that Plan.ExecWith materializes from the same fetch. It runs on all
// three datasets, served from one store and from 2- and 3-shard routers
// (BOUNDEDG_SHARDS=N pins one count), freshly built and after accepted
// writes, over generated bounded patterns and their twins: a copy of the
// pattern with one more node that repeats an existing node's label and
// edge, so two edge checks verify edges between the same labels and GQ's
// edge count must be deduplicated across them. IMDb's |S| = 2 edge checks
// are required to occur. For each pattern and semantics:
//   - Fetch and ExecWith return equal candidates, ID maps and stats, and
//     Fetch returns the space an unsharded fetch of the freshly built
//     graph does, run for run;
//   - the space VF2 and the GQ VF2 find the same match set and count;
//   - under MaxMatches 3, both stop at the limit (or complete below it),
//     and every match returned is an embedding in G;
//   - the space gsim relation is the GQ gsim relation.
func TestCandidateSpaceMatchesGQ(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three datasets at nine source shapes")
	}
	shardCounts := []int{1, 2, 3}
	if s := os.Getenv("BOUNDEDG_SHARDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 || n > shard.MaxShards {
			t.Fatalf("bad BOUNDEDG_SHARDS %q", s)
		}
		shardCounts = []int{n}
	}
	gens := []struct {
		name    string
		gen     func() *workload.Dataset
		queries int
	}{
		{"imdb", func() *workload.Dataset { return workload.IMDb(0.05, 1) }, 80},
		{"dbpedia", func() *workload.Dataset { return workload.DBpedia(0.05, 2) }, 40},
		{"webbase", func() *workload.Dataset { return workload.WebBase(0.05, 3) }, 40},
	}
	for _, d := range gens {
		ref := d.gen() // the logical graph every source serves
		refIdx, viols := access.Build(ref.G, ref.Schema)
		if viols != nil {
			t.Fatalf("%s violates its schema: %v", d.name, viols[0])
		}
		refCfg := &core.ExecConfig{Frozen: ref.G.Freeze()}
		var qs []*pattern.Pattern
		for _, q := range workload.DefaultQueryGen.Generate(ref, d.queries, 7) {
			qs = append(qs, q)
			if tw := twin(q); tw != nil {
				qs = append(qs, tw)
			}
		}
		for _, k := range shardCounts {
			for _, writes := range []int{0, 10} {
				t.Run(fmt.Sprintf("%s/shards%d/writes%d", d.name, k, writes), func(t *testing.T) {
					src := datasetSource(t, d.gen(), k, writes)
					defer src.Close()
					cut := src.AcquireCut()
					defer cut.Release()
					cfg := &core.ExecConfig{ShardOf: cut.ShardOf}
					for _, sn := range cut.Snaps {
						cfg.Shards = append(cfg.Shards, core.ShardView{G: sn.G, Fz: sn.Fz, Idx: sn.Idx})
					}
					var c spaceCoverage
					for i, q := range qs {
						for _, sem := range []core.Semantics{core.Subgraph, core.Simulation} {
							p, err := core.NewPlan(q, src.Schema(), sem)
							if err != nil {
								continue
							}
							name := fmt.Sprintf("pattern %d/%s", i, sem)
							checkSpaceAgainstGQ(t, name, p, cfg, ref.G, &c)
							// A plan serves the schema it was built against.
							rp, err := core.NewPlan(q, ref.Schema, sem)
							if err != nil {
								t.Fatal(err)
							}
							want, _, err := rp.Fetch(ref.G, refIdx, refCfg)
							if err != nil {
								t.Fatal(err)
							}
							if got, _, _ := p.Fetch(nil, nil, cfg); !reflect.DeepEqual(got.Space, want.Space) {
								t.Fatalf("%s: the space differs from an unsharded fetch of the fresh graph", name)
							}
						}
					}
					if c.plans == 0 || c.matched == 0 || c.shared == 0 {
						t.Fatalf("coverage %+v: no bounded plan, no match, or no edge two checks share", c)
					}
					if d.name == "imdb" && c.multiKey == 0 {
						t.Fatalf("coverage %+v: no |S| = 2 edge check verified an edge", c)
					}
				})
			}
		}
	}
}

// spaceCoverage counts what TestCandidateSpaceMatchesGQ exercised: plans
// checked, plans with a match, plans where two checks verified a shared
// edge, and plans with an |S| >= 2 edge check that verified one.
type spaceCoverage struct{ plans, matched, shared, multiKey int }

// twin returns q with one more node, a copy of q's first edge's source
// (same label and predicate) joined to the edge's target the same way,
// or nil when q has no edge.
func twin(q *pattern.Pattern) *pattern.Pattern {
	edges := q.EdgeList()
	if len(edges) == 0 {
		return nil
	}
	tw := q.Clone()
	from, to := edges[0][0], edges[0][1]
	u := tw.AddNode(q.LabelOf(from), q.PredOf(from))
	tw.MustAddEdge(u, to)
	return tw
}

func checkSpaceAgainstGQ(t *testing.T, name string, p *core.Plan, cfg *core.ExecConfig, g *graph.Graph, c *spaceCoverage) {
	t.Helper()
	sbg, sst, err := p.Fetch(nil, nil, cfg)
	if err != nil {
		t.Fatalf("%s: Fetch: %v", name, err)
	}
	gbg, gst, err := p.ExecWith(nil, nil, cfg)
	if err != nil {
		t.Fatalf("%s: ExecWith: %v", name, err)
	}
	switch {
	case sbg.G != nil || sbg.Fz != nil:
		t.Fatalf("%s: Fetch built GQ", name)
	case *sst != *gst:
		t.Fatalf("%s: Fetch stats %+v, ExecWith %+v", name, *sst, *gst)
	case !slices.Equal(sbg.ToOrig, gbg.ToOrig) || !reflect.DeepEqual(sbg.Cands, gbg.Cands):
		t.Fatalf("%s: Fetch and ExecWith differ in ToOrig or Cands", name)
	case sst.GQEdges != gbg.G.NumEdges():
		t.Fatalf("%s: GQEdges %d, GQ has %d edges", name, sst.GQEdges, gbg.G.NumEdges())
	}
	c.plans++
	verified := 0
	for ci, ec := range p.EdgeChecks {
		off := sbg.Space.Off[2*ci*(sbg.Space.N+1):][:sbg.Space.N+1]
		n := int(off[sbg.Space.N] - off[0])
		verified += n
		if len(ec.Deps) > 1 && n > 0 {
			c.multiKey++
		}
	}
	if verified > sst.GQEdges {
		c.shared++
	}

	q := p.Q
	full := match.SubgraphOptions{StoreMatches: true, MaxSteps: 100_000}
	onSpace := match.VF2InSpace(q, sbg.Space, full)
	onGQ := match.VF2WithCandidatesFrozen(q, gbg.G, gbg.Fz, gbg.Cands, full)
	if onSpace.Completed && onGQ.Completed {
		match.SortMatches(onSpace.Matches)
		match.SortMatches(onGQ.Matches)
		if onSpace.Count != onGQ.Count || !reflect.DeepEqual(onSpace.Matches, onGQ.Matches) {
			t.Fatalf("%s: space VF2 finds %d matches, GQ VF2 %d, or the sets differ", name, onSpace.Count, onGQ.Count)
		}
		if onSpace.Count > 0 {
			c.matched++
		}
		const limit = 3
		want := min(onSpace.Count, limit)
		lim := match.SubgraphOptions{StoreMatches: true, MaxMatches: limit, MaxSteps: full.MaxSteps}
		for _, r := range []*match.SubgraphResult{match.VF2InSpace(q, sbg.Space, lim), match.VF2WithCandidatesFrozen(q, gbg.G, gbg.Fz, gbg.Cands, lim)} {
			if r.Count != want || len(r.Matches) != want || r.Completed != (onSpace.Count < limit) {
				t.Fatalf("%s: MaxMatches %d: count %d, %d stored, completed %v; the full search found %d", name, limit, r.Count, len(r.Matches), r.Completed, onSpace.Count)
			}
			for _, m := range r.Matches {
				if _, ok := slices.BinarySearchFunc(onSpace.Matches, m, slices.Compare); !ok {
					t.Fatalf("%s: truncated match %v is not in the full set", name, m)
				}
				embedded := make([]graph.NodeID, len(m))
				for u, v := range m {
					embedded[u] = sbg.ToOrig[v]
				}
				if why := notEmbedding(q, g, embedded); why != "" {
					t.Fatalf("%s: truncated match %v: %s", name, embedded, why)
				}
			}
		}
	}

	simSpace := match.GSimInSpace(q, sbg.Space)
	simGQ := match.GSimWithCandidates(q, gbg.G, gbg.Cands)
	if simSpace.Matched != simGQ.Matched || !reflect.DeepEqual(simSpace.Sim, simGQ.Sim) {
		t.Fatalf("%s: space gsim %v (%d pairs), GQ gsim %v (%d pairs)", name, simSpace.Matched, simSpace.Pairs(), simGQ.Matched, simGQ.Pairs())
	}
}

// notEmbedding says why h (pattern node -> node of g) is not a subgraph
// isomorphism embedding of q in g, or returns "".
func notEmbedding(q *pattern.Pattern, g *graph.Graph, h []graph.NodeID) string {
	seen := map[graph.NodeID]bool{}
	for u, v := range h {
		if seen[v] {
			return fmt.Sprintf("node %d is matched twice", v)
		}
		seen[v] = true
		if !q.MatchesNode(pattern.Node(u), g, v) {
			return fmt.Sprintf("node %d fails pattern node %d's label or predicate", v, u)
		}
	}
	for _, e := range q.EdgeList() {
		if !g.HasEdge(h[e[0]], h[e[1]]) {
			return fmt.Sprintf("pattern edge %v has no data edge", e)
		}
	}
	return ""
}
