package exp

import (
	"fmt"
	"sort"
	"time"

	"boundedg/internal/access"
	"boundedg/internal/core"
	"boundedg/internal/match"
	"boundedg/internal/pattern"
	"boundedg/internal/workload"
)

// Options configures an experiment run. Zero-value fields fall back to
// Default().
type Options struct {
	// Dataset is "imdb", "dbpedia" or "webbase".
	Dataset string
	// Seed drives all data and query generation.
	Seed int64
	// NumQueries is the query-load size per dataset (paper: 100).
	NumQueries int
	// BaselineSteps is the search budget for VF2/optVF2 before a run is
	// declared "did not complete" (the paper's 40000s timeout analog).
	BaselineSteps int
	// MatchLimit caps enumerated matches for all subgraph algorithms
	// (bounded and baseline alike), keeping result sets finite.
	MatchLimit int
	// Scales lists |G| scale factors for Fig 5(a/e/i).
	Scales []float64
}

// Default returns the harness defaults: paper shapes at laptop scale.
func Default() Options {
	return Options{
		Dataset:       "imdb",
		Seed:          1,
		NumQueries:    100,
		BaselineSteps: 3_000_000,
		// Near-full enumeration: both bounded and baseline algorithms get
		// the same generous cap, mirroring the paper's exact Q(G).
		MatchLimit: 200_000,
		// The sweep extends past 1.0 so bounded evaluation's plateau is
		// visible once the constraint caps bind.
		Scales: []float64{0.25, 0.5, 1.0, 2.0, 3.0},
	}
}

func (o Options) withDefaults() Options {
	d := Default()
	if o.Dataset == "" {
		o.Dataset = d.Dataset
	}
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	if o.NumQueries == 0 {
		o.NumQueries = d.NumQueries
	}
	if o.BaselineSteps == 0 {
		o.BaselineSteps = d.BaselineSteps
	}
	if o.MatchLimit == 0 {
		o.MatchLimit = d.MatchLimit
	}
	if len(o.Scales) == 0 {
		o.Scales = d.Scales
	}
	return o
}

// Gen builds the named dataset at the given scale.
func Gen(name string, scale float64, seed int64) (*workload.Dataset, error) {
	switch name {
	case "imdb":
		return workload.IMDb(scale, seed), nil
	case "dbpedia":
		return workload.DBpedia(scale, seed), nil
	case "webbase":
		return workload.WebBase(scale, seed), nil
	}
	return nil, fmt.Errorf("exp: unknown dataset %q (want imdb, dbpedia or webbase)", name)
}

// DatasetNames lists the supported dataset generators.
func DatasetNames() []string { return []string{"imdb", "dbpedia", "webbase"} }

// splitBounded partitions queries by effective boundedness under sem.
func splitBounded(qs []*pattern.Pattern, a *access.Schema, sem core.Semantics) (bounded, unbounded []*pattern.Pattern) {
	for _, q := range qs {
		if core.EBnd(q, a, sem).Bounded {
			bounded = append(bounded, q)
		} else {
			unbounded = append(unbounded, q)
		}
	}
	return bounded, unbounded
}

// BoundedPct reproduces Exp-1(1): the percentage of randomly generated
// queries that are effectively bounded, per dataset and semantics. The
// paper reports 61/67/58% (subgraph) and 32/41/33% (simulation) for
// IMDbG/DBpediaG/WebBG.
func BoundedPct(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	t := &Table{
		Title:  "Exp-1(1): effectively bounded queries (%)",
		Header: []string{"dataset", "|V|", "|E|", "‖A‖", "subgraph", "simulation"},
	}
	for _, name := range DatasetNames() {
		d, err := Gen(name, 0.25, opt.Seed) // boundedness is |G|-independent
		if err != nil {
			return nil, err
		}
		qs := workload.DefaultQueryGen.Generate(d, opt.NumQueries, opt.Seed+7)
		sub, _ := splitBounded(qs, d.Schema, core.Subgraph)
		sim, _ := splitBounded(qs, d.Schema, core.Simulation)
		t.AddRow(d.Name,
			fmt.Sprint(d.G.NumNodes()), fmt.Sprint(d.G.NumEdges()),
			fmt.Sprint(d.Schema.Count()),
			fmt.Sprintf("%d%%", 100*len(sub)/len(qs)),
			fmt.Sprintf("%d%%", 100*len(sim)/len(qs)))
	}
	return t, nil
}

// timed runs f and returns seconds elapsed.
func timed(f func()) float64 {
	start := time.Now()
	f()
	return time.Since(start).Seconds()
}

// algoTimes accumulates per-algorithm totals plus incompleteness marks.
type algoTimes struct {
	total      map[string]float64
	n          map[string]int
	incomplete map[string]int
}

func newAlgoTimes() *algoTimes {
	return &algoTimes{
		total:      make(map[string]float64),
		n:          make(map[string]int),
		incomplete: make(map[string]int),
	}
}

func (a *algoTimes) add(name string, secs float64, complete bool) {
	a.total[name] += secs
	a.n[name]++
	if !complete {
		a.incomplete[name]++
	}
}

// avg renders the average time; a trailing '+' marks runs cut off by the
// step budget (the paper's "did not run to completion").
func (a *algoTimes) avg(name string) string {
	if a.n[name] == 0 {
		return "n/a"
	}
	s := fmtSecs(a.total[name] / float64(a.n[name]))
	if a.incomplete[name] > 0 {
		s += "+"
	}
	return s
}

// runAll evaluates the six algorithms of Fig 5 on the given graph: the
// bounded plans (bVF2/bSim, pre-planned), then the conventional baselines
// with the step budget.
func runAll(at *algoTimes, g *workload.Dataset, idx *access.IndexSet,
	subPlans, simPlans []*core.Plan, subQs, simQs []*pattern.Pattern, opt Options) error {

	mopt := match.SubgraphOptions{MaxMatches: opt.MatchLimit}
	bopt := match.SubgraphOptions{MaxMatches: opt.MatchLimit, MaxSteps: opt.BaselineSteps}

	for _, p := range subPlans {
		var err error
		secs := timed(func() { _, _, err = p.EvalSubgraph(g.G, idx, mopt) })
		if err != nil {
			return err
		}
		at.add("bvf2", secs, true)
	}
	for _, p := range simPlans {
		var err error
		secs := timed(func() { _, _, err = p.EvalSim(g.G, idx) })
		if err != nil {
			return err
		}
		at.add("bsim", secs, true)
	}
	for _, q := range subQs {
		var res *match.SubgraphResult
		secs := timed(func() { res = match.VF2(q, g.G, bopt) })
		at.add("vf2", secs, res.Completed)
		secs = timed(func() { res = match.OptVF2(q, g.G, idx, bopt) })
		at.add("optvf2", secs, res.Completed)
	}
	for _, q := range simQs {
		secs := timed(func() { match.GSim(q, g.G) })
		at.add("gsim", secs, true)
		secs = timed(func() { match.OptGSim(q, g.G, idx) })
		at.add("optgsim", secs, true)
	}
	return nil
}

// prepare generates the full-scale dataset, the query load, the bounded
// subsets and their plans.
func prepare(opt Options) (*workload.Dataset, []*pattern.Pattern, []*pattern.Pattern, []*core.Plan, []*core.Plan, error) {
	d, err := Gen(opt.Dataset, 1.0, opt.Seed)
	if err != nil {
		return nil, nil, nil, nil, nil, err
	}
	qs := workload.DefaultQueryGen.Generate(d, opt.NumQueries, opt.Seed+7)
	subQs, _ := splitBounded(qs, d.Schema, core.Subgraph)
	simQs, _ := splitBounded(qs, d.Schema, core.Simulation)
	var subPlans, simPlans []*core.Plan
	for _, q := range subQs {
		p, err := core.NewPlan(q, d.Schema, core.Subgraph)
		if err != nil {
			return nil, nil, nil, nil, nil, err
		}
		subPlans = append(subPlans, p)
	}
	for _, q := range simQs {
		p, err := core.NewPlan(q, d.Schema, core.Simulation)
		if err != nil {
			return nil, nil, nil, nil, nil, err
		}
		simPlans = append(simPlans, p)
	}
	return d, subQs, simQs, subPlans, simPlans, nil
}

// Fig5VaryG reproduces Fig 5(a/e/i): average evaluation time per
// algorithm as |G| scales from 0.1 to 1.0. Bounded plans stay flat;
// conventional algorithms grow with |G|.
func Fig5VaryG(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	dFull, subQs, simQs, subPlans, simPlans, err := prepare(opt)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("Fig 5 varying |G| — %s (avg per query; '+' = hit step budget)", dFull.Name),
		Header: []string{"scale", "|V|+|E|", "bvf2", "bsim", "vf2", "optvf2", "gsim", "optgsim"},
	}
	for _, scale := range opt.Scales {
		g, err := Gen(opt.Dataset, scale, opt.Seed)
		if err != nil {
			return nil, err
		}
		idx, viols := access.Build(g.G, dFull.Schema)
		if viols != nil {
			return nil, fmt.Errorf("exp: scale %v violates schema: %v", scale, viols[0])
		}
		at := newAlgoTimes()
		if err := runAll(at, g, idx, subPlans, simPlans, subQs, simQs, opt); err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%.2f", scale), fmt.Sprint(g.G.Size()),
			at.avg("bvf2"), at.avg("bsim"), at.avg("vf2"), at.avg("optvf2"), at.avg("gsim"), at.avg("optgsim"))
	}
	return t, nil
}

// Fig5VaryQ reproduces Fig 5(b/f/j): average evaluation time as the query
// size #n sweeps 3..7, at full scale.
func Fig5VaryQ(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	d, err := Gen(opt.Dataset, 1.0, opt.Seed)
	if err != nil {
		return nil, err
	}
	idx, viols := access.Build(d.G, d.Schema)
	if viols != nil {
		return nil, fmt.Errorf("exp: %v", viols[0])
	}
	t := &Table{
		Title:  fmt.Sprintf("Fig 5 varying #n — %s (avg per query; '+' = hit step budget)", d.Name),
		Header: []string{"#n", "bvf2", "bsim", "vf2", "optvf2", "gsim", "optgsim"},
	}
	for nn := 3; nn <= 7; nn++ {
		qs := workload.DefaultQueryGen.GenerateSized(d, opt.NumQueries, nn, opt.Seed+int64(nn))
		subQs, _ := splitBounded(qs, d.Schema, core.Subgraph)
		simQs, _ := splitBounded(qs, d.Schema, core.Simulation)
		var subPlans, simPlans []*core.Plan
		for _, q := range subQs {
			p, err := core.NewPlan(q, d.Schema, core.Subgraph)
			if err != nil {
				return nil, err
			}
			subPlans = append(subPlans, p)
		}
		for _, q := range simQs {
			p, err := core.NewPlan(q, d.Schema, core.Simulation)
			if err != nil {
				return nil, err
			}
			simPlans = append(simPlans, p)
		}
		at := newAlgoTimes()
		if err := runAll(at, d, idx, subPlans, simPlans, subQs, simQs, opt); err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(nn),
			at.avg("bvf2"), at.avg("bsim"), at.avg("vf2"), at.avg("optvf2"), at.avg("gsim"), at.avg("optgsim"))
	}
	return t, nil
}

// Fig5VaryA reproduces Fig 5(c/g/k): bVF2/bSim time as the number of
// available access constraints ‖A‖ sweeps (paper: 12..20) — more
// constraints let QPlan pick better plans.
func Fig5VaryA(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	d, err := Gen(opt.Dataset, 1.0, opt.Seed)
	if err != nil {
		return nil, err
	}
	qs := workload.DefaultQueryGen.Generate(d, opt.NumQueries, opt.Seed+7)
	total := d.Schema.Count()
	// Queries must be bounded under the SMALLEST schema of the sweep so
	// every sweep point can evaluate them (coverage is monotone in A).
	// Start the sweep at the smallest prefix that bounds at least one
	// query of the load under each semantics.
	kMin := total
	for k := 1; k <= total; k++ {
		sub := d.Schema.Subset(k)
		nSub, _ := splitBounded(qs, sub, core.Subgraph)
		nSim, _ := splitBounded(qs, sub, core.Simulation)
		if len(nSub) > 0 && len(nSim) > 0 {
			kMin = k
			break
		}
	}
	minSchema := d.Schema.Subset(kMin)
	subQs, _ := splitBounded(qs, minSchema, core.Subgraph)
	simQs, _ := splitBounded(qs, minSchema, core.Simulation)

	t := &Table{
		Title:  fmt.Sprintf("Fig 5 varying ‖A‖ — %s (avg per bounded query)", d.Name),
		Header: []string{"‖A‖", "bvf2", "bsim", "#subQ", "#simQ"},
	}
	step := (total - kMin) / 4
	if step < 1 {
		step = 1
	}
	for k := kMin; k <= total; k += step {
		sub := d.Schema.Subset(k)
		idx, viols := access.Build(d.G, sub)
		if viols != nil {
			return nil, fmt.Errorf("exp: %v", viols[0])
		}
		at := newAlgoTimes()
		for _, q := range subQs {
			p, err := core.NewPlan(q, sub, core.Subgraph)
			if err != nil {
				return nil, err
			}
			secs := timed(func() {
				_, _, err = p.EvalSubgraph(d.G, idx, match.SubgraphOptions{MaxMatches: opt.MatchLimit})
			})
			if err != nil {
				return nil, err
			}
			at.add("bvf2", secs, true)
		}
		for _, q := range simQs {
			p, err := core.NewPlan(q, sub, core.Simulation)
			if err != nil {
				return nil, err
			}
			secs := timed(func() { _, _, err = p.EvalSim(d.G, idx) })
			if err != nil {
				return nil, err
			}
			at.add("bsim", secs, true)
		}
		t.AddRow(fmt.Sprint(k), at.avg("bvf2"), at.avg("bsim"),
			fmt.Sprint(len(subQs)), fmt.Sprint(len(simQs)))
	}
	return t, nil
}

// Fig5Accessed reproduces Fig 5(d/h/l): the fraction of |G| accessed by
// bounded plans and the fraction occupied by the indices they use, as #n
// sweeps 3..7. The paper reports ≤0.13% accessed with indices <8% of |G|.
func Fig5Accessed(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	d, err := Gen(opt.Dataset, 1.0, opt.Seed)
	if err != nil {
		return nil, err
	}
	idx, viols := access.Build(d.G, d.Schema)
	if viols != nil {
		return nil, fmt.Errorf("exp: %v", viols[0])
	}
	gsize := float64(d.G.Size())
	idxTotal := float64(idx.SizeNodes()) / gsize
	t := &Table{
		Title:  fmt.Sprintf("Fig 5 accessed data — %s (|index|/|G| total = %s)", d.Name, fmtPct(idxTotal)),
		Header: []string{"#n", "bvf2 accessed/|G|", "bsim accessed/|G|", "bvf2 index/|G|", "bsim index/|G|"},
	}
	for nn := 3; nn <= 7; nn++ {
		qs := workload.DefaultQueryGen.GenerateSized(d, opt.NumQueries, nn, opt.Seed+int64(nn))
		accTot := map[string]float64{}
		idxUsed := map[string]float64{}
		cnt := map[string]int{}
		record := func(key string, p *core.Plan, st *core.ExecStats) {
			accTot[key] += float64(st.Accessed()) / gsize
			used := 0
			seen := map[int]bool{}
			for _, op := range p.Ops {
				if !seen[op.CIdx] {
					seen[op.CIdx] = true
					used += idx.Index(op.CIdx).SizeNodes()
				}
			}
			for _, ec := range p.EdgeChecks {
				if !seen[ec.CIdx] {
					seen[ec.CIdx] = true
					used += idx.Index(ec.CIdx).SizeNodes()
				}
			}
			idxUsed[key] += float64(used) / gsize
			cnt[key]++
		}
		for _, q := range qs {
			if p, err := core.NewPlan(q, d.Schema, core.Subgraph); err == nil {
				if _, st, err := p.Exec(d.G, idx); err == nil {
					record("sub", p, st)
				}
			}
			if p, err := core.NewPlan(q, d.Schema, core.Simulation); err == nil {
				if _, st, err := p.Exec(d.G, idx); err == nil {
					record("sim", p, st)
				}
			}
		}
		row := []string{fmt.Sprint(nn)}
		for _, key := range []string{"sub", "sim"} {
			if cnt[key] == 0 {
				row = append(row, "n/a")
			} else {
				row = append(row, fmtPct(accTot[key]/float64(cnt[key])))
			}
		}
		for _, key := range []string{"sub", "sim"} {
			if cnt[key] == 0 {
				row = append(row, "n/a")
			} else {
				row = append(row, fmtPct(idxUsed[key]/float64(cnt[key])))
			}
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Fig6 reproduces Fig 6(a/b): the minimum M making x% of the query load
// instance-bounded under M-bounded extensions of the dataset schema.
func Fig6(opt Options, sem core.Semantics) (*Table, error) {
	opt = opt.withDefaults()
	levels := []int{60, 70, 80, 90, 95, 100}
	if sem == core.Simulation {
		levels = []int{30, 40, 50, 60, 70, 80, 90, 95, 100}
	}
	t := &Table{
		Title: fmt.Sprintf("Fig 6 (%s): minimum M for x%% instance-bounded", sem),
		Header: append([]string{"dataset", "|G|"}, func() []string {
			h := make([]string, len(levels))
			for i, x := range levels {
				h[i] = fmt.Sprintf("x=%d%%", x)
			}
			return h
		}()...),
	}
	for _, name := range DatasetNames() {
		d, err := Gen(name, 0.25, opt.Seed)
		if err != nil {
			return nil, err
		}
		qs := workload.DefaultQueryGen.Generate(d, opt.NumQueries, opt.Seed+7)
		ms := make([]int, 0, len(qs))
		unreachable := 0
		for _, q := range qs {
			m, ok := core.MinimalM(q, d.Schema, d.G, sem)
			if !ok {
				unreachable++
				continue
			}
			ms = append(ms, m)
		}
		sort.Ints(ms)
		row := []string{d.Name, fmt.Sprint(d.G.Size())}
		for _, x := range levels {
			// M making x% of ALL queries instance-bounded.
			need := (x*len(qs) + 99) / 100
			if need > len(ms) {
				row = append(row, "∄")
				continue
			}
			if need == 0 {
				row = append(row, "0")
				continue
			}
			row = append(row, fmt.Sprint(ms[need-1]))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Exp3 reproduces the paper's efficiency measurements: EBChk, QPlan,
// sEBChk and sQPlan must take milliseconds at most (the paper reports
// ≤ 7/37/6/32 ms).
func Exp3(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	t := &Table{
		Title:  "Exp-3: decision and planning efficiency (max over all queries)",
		Header: []string{"dataset", "EBChk", "QPlan", "sEBChk", "sQPlan"},
	}
	for _, name := range DatasetNames() {
		d, err := Gen(name, 0.1, opt.Seed)
		if err != nil {
			return nil, err
		}
		qs := workload.DefaultQueryGen.Generate(d, opt.NumQueries, opt.Seed+7)
		var maxEB, maxQP, maxSEB, maxSQP float64
		for _, q := range qs {
			secs := timed(func() { core.EBChk(q, d.Schema) })
			if secs > maxEB {
				maxEB = secs
			}
			secs = timed(func() { core.SEBChk(q, d.Schema) })
			if secs > maxSEB {
				maxSEB = secs
			}
			if core.EBnd(q, d.Schema, core.Subgraph).Bounded {
				secs = timed(func() { _, _ = core.NewPlan(q, d.Schema, core.Subgraph) })
				if secs > maxQP {
					maxQP = secs
				}
			}
			if core.EBnd(q, d.Schema, core.Simulation).Bounded {
				secs = timed(func() { _, _ = core.NewPlan(q, d.Schema, core.Simulation) })
				if secs > maxSQP {
					maxSQP = secs
				}
			}
		}
		t.AddRow(d.Name, fmtSecs(maxEB), fmtSecs(maxQP), fmtSecs(maxSEB), fmtSecs(maxSQP))
	}
	return t, nil
}
