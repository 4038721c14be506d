package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"

	"boundedg/internal/access"
	"boundedg/internal/core"
	"boundedg/internal/exp"
	"boundedg/internal/graph"
	"boundedg/internal/match"
	"boundedg/internal/pattern"
	"boundedg/internal/server"
	"boundedg/internal/workload"
)

const (
	poolSize = 32
	// poolSeed fixes the candidate pattern texts: they are part of the
	// benchmark's definition, like a fixed query set, so every workload
	// and every -seed draws from the same texts and read.cold/read.cold.x4
	// are comparable row by row. The run seed varies the graph instance
	// and the request stream instead.
	poolSeed = 1
	// poolCandidates is how many generated patterns are scanned for the
	// pool; about one in eight plans as bounded on imdb.
	poolCandidates = 1200
	// queryLimit is the per-request match limit: the server's maximum, so
	// pool answers are complete and therefore independent of enumeration
	// order.
	queryLimit = 10000
	// maxSteps mirrors server.Config's default VF2 step budget.
	maxSteps = 5_000_000
)

// candidates generates the fixed candidate pattern texts from the scale-1
// imdb dataset, and the body of the probe query whose 200 ends a setup
// (the first candidate that plans as bounded). Boundedness depends only
// on the schema, which is the same at every scale and seed.
func candidates() (texts []string, probe []byte, err error) {
	ds, err := exp.Gen("imdb", 1, poolSeed)
	if err != nil {
		return nil, nil, err
	}
	for _, q := range workload.DefaultQueryGen.Generate(ds, poolCandidates, poolSeed+1) {
		texts = append(texts, q.String())
		if probe == nil {
			if _, err := core.NewPlan(q, ds.Schema, core.Subgraph); err == nil {
				if probe, err = json.Marshal(server.QueryRequest{Pattern: q.String(), Limit: 1}); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	if probe == nil {
		return nil, nil, fmt.Errorf("no bounded candidate pattern")
	}
	return texts, probe, nil
}

// entry is one pool request with its verified answer.
type entry struct {
	Text string
	Sem  core.Semantics
	// Body is the POST /query body.
	Body []byte
	// Want is the canonical answer computed by direct evaluation.
	Want []byte
	// Stats are the direct evaluation's access counts; Est is the plan's
	// static bound on |GQ| nodes.
	Stats core.ExecStats
	Est   float64
	// Prefix is the daemon's response body up to the cached/elapsed
	// fields, captured once the answer was verified; on an immutable
	// daemon every later response must repeat it byte for byte.
	Prefix []byte
}

// answer is the part of a /query response that is a function of the graph
// alone.
type answer struct {
	Sem      string                    `json:"sem"`
	Vars     []string                  `json:"vars"`
	Matches  [][]graph.NodeID          `json:"matches,omitempty"`
	Count    int                       `json:"count"`
	Complete bool                      `json:"complete"`
	Sim      map[string][]graph.NodeID `json:"sim,omitempty"`
	Pairs    int                       `json:"pairs,omitempty"`
}

func subOpts() match.SubgraphOptions {
	return match.SubgraphOptions{StoreMatches: true, MaxMatches: queryLimit, MaxSteps: maxSteps}
}

// direct evaluates q with core.NewPlan + EvalSubgraph/EvalSim on g, the
// reference the daemon's HTTP answers are compared against.
func direct(q *pattern.Pattern, sem core.Semantics, g *graph.Graph, idx *access.IndexSet) (*answer, *core.Plan, *core.ExecStats, error) {
	p, err := core.NewPlan(q, idx.Schema(), sem)
	if err != nil {
		return nil, nil, nil, err
	}
	a := &answer{Sem: sem.String()}
	for _, u := range q.Nodes() {
		a.Vars = append(a.Vars, q.Name(u))
	}
	var st *core.ExecStats
	switch sem {
	case core.Subgraph:
		res, s, err := p.EvalSubgraph(g, idx, subOpts())
		if err != nil {
			return nil, nil, nil, err
		}
		match.SortMatches(res.Matches)
		a.Matches, a.Count, a.Complete, st = res.Matches, res.Count, res.Completed, s
	default:
		res, s, err := p.EvalSim(g, idx)
		if err != nil {
			return nil, nil, nil, err
		}
		a.Sim = make(map[string][]graph.NodeID, len(a.Vars))
		for ui, vs := range res.Sim {
			a.Sim[a.Vars[ui]] = vs
		}
		a.Pairs, a.Complete, st = res.Pairs(), true, s
	}
	return a, p, st, nil
}

// buildPool takes the first poolSize candidates that plan as bounded on
// the reference graph's schema (alternating subgraph and simulation) and
// whose direct answer is complete within queryLimit, so the pool is
// bounded-only and a 422 or a truncated answer is never expected.
func buildPool(texts []string, g *graph.Graph, idx *access.IndexSet, in *graph.Interner) (pool []*entry, scanned int, err error) {
	for _, text := range texts {
		if len(pool) == poolSize {
			break
		}
		scanned++
		sem := core.Subgraph
		if len(pool)%2 == 1 {
			sem = core.Simulation
		}
		q, err := pattern.Parse(text, in)
		if err != nil {
			return nil, 0, fmt.Errorf("pool candidate does not parse: %w", err)
		}
		a, p, st, err := direct(q, sem, g, idx)
		if err != nil || !a.Complete {
			continue
		}
		want, err := json.Marshal(a)
		if err != nil {
			return nil, 0, err
		}
		body, err := json.Marshal(server.QueryRequest{Pattern: text, Sem: sem.String(), Limit: queryLimit})
		if err != nil {
			return nil, 0, err
		}
		pool = append(pool, &entry{Text: text, Sem: sem, Body: body, Want: want, Stats: *st, Est: p.EstGQNodes()})
	}
	if len(pool) < poolSize {
		return nil, 0, fmt.Errorf("only %d of %d candidates are bounded with complete answers; raise poolCandidates", len(pool), len(texts))
	}
	return pool, scanned, nil
}

// fingerprint identifies the pool's texts, so two rows can be checked to
// have run the same queries.
func fingerprint(pool []*entry) string {
	h := sha256.New()
	for _, e := range pool {
		fmt.Fprintf(h, "%s\x00%s\x00", e.Sem, e.Text)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

var cachedField = []byte(`,"cached":`)

// fetchAnswer posts e and returns the canonical form of the daemon's
// answer plus the response prefix.
func fetchAnswer(c *http.Client, url string, e *entry) (canon, prefix []byte, err error) {
	status, raw, err := post(c, url+"/query", e.Body)
	if err != nil {
		return nil, nil, err
	}
	if status != http.StatusOK {
		return nil, nil, fmt.Errorf("HTTP %d: %s", status, bytes.TrimSpace(raw))
	}
	var resp server.QueryResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, nil, err
	}
	canon, err = json.Marshal(answer{
		Sem: resp.Sem, Vars: resp.Vars, Matches: resp.Matches, Count: resp.Count,
		Complete: resp.Complete, Sim: resp.Sim, Pairs: resp.Pairs,
	})
	if err != nil {
		return nil, nil, err
	}
	i := bytes.LastIndex(raw, cachedField)
	if i < 0 {
		return nil, nil, fmt.Errorf("response has no cached field")
	}
	return canon, raw[:i], nil
}

// gate checks every pool answer the daemon serves against want(e) and
// returns the number of mismatches. record keeps the verified response
// prefixes for the in-run check.
func gate(c *http.Client, url string, pool []*entry, record bool) (mismatches int, first error) {
	for i, e := range pool {
		canon, prefix, err := fetchAnswer(c, url, e)
		if err == nil && !bytes.Equal(canon, e.Want) {
			err = fmt.Errorf("answer differs from direct evaluation (%d vs %d bytes)", len(canon), len(e.Want))
		}
		if err != nil {
			mismatches++
			if first == nil {
				first = fmt.Errorf("pool[%d] %s: %w", i, e.Sem, err)
			}
			continue
		}
		if record {
			e.Prefix = prefix
		}
	}
	return mismatches, first
}
