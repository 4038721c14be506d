// Command benchrunner regenerates the paper's evaluation tables and
// figures (§VII) on the synthetic datasets. Each -exp value corresponds to
// one figure/table; "all" runs everything, and -csv DIR also writes each
// table as CSV.
//
// Usage:
//
//	benchrunner -exp all
//	benchrunner -exp fig5-varyg -dataset webbase -n 20
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"boundedg/internal/core"
	"boundedg/internal/exp"
)

func main() {
	var (
		expName  = flag.String("exp", "all", "experiment: bounded-pct, fig5-varyg, fig5-varyq, fig5-varya, fig5-accessed, fig6, exp3, all")
		dataset  = flag.String("dataset", "", "dataset for fig5 experiments: imdb, dbpedia, webbase (empty = all)")
		n        = flag.Int("n", 0, "queries per load (default 100)")
		seed     = flag.Int64("seed", 0, "generation seed (default 1)")
		budget   = flag.Int("budget", 0, "step budget for VF2/optVF2 baselines")
		matchCap = flag.Int("match-cap", 0, "match-count cap for subgraph algorithms")
		scales   = flag.String("scales", "", "comma-separated |G| scale factors for fig5-varyg (may exceed 1.0)")
		csvDir   = flag.String("csv", "", "also write each table as CSV into this directory")
	)
	flag.Parse()
	outCSV = *csvDir
	opt := exp.Options{NumQueries: *n, Seed: *seed, BaselineSteps: *budget, MatchLimit: *matchCap}
	if *scales != "" {
		for _, s := range strings.Split(*scales, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchrunner: bad -scales:", err)
				os.Exit(1)
			}
			opt.Scales = append(opt.Scales, v)
		}
	}
	if err := run(*expName, *dataset, opt); err != nil {
		fmt.Fprintln(os.Stderr, "benchrunner:", err)
		os.Exit(1)
	}
}

// outCSV, when non-empty, is a directory that receives one CSV file per
// emitted table (for plotting).
var outCSV string

// emit prints the table and optionally writes it as CSV.
func emit(tab *exp.Table) error {
	tab.Render(os.Stdout)
	if outCSV == "" {
		return nil
	}
	if err := os.MkdirAll(outCSV, 0o755); err != nil {
		return err
	}
	name := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		default:
			return '-'
		}
	}, tab.Title)
	f, err := os.Create(filepath.Join(outCSV, name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return tab.WriteCSV(f)
}

func run(expName, dataset string, opt exp.Options) error {
	datasets := exp.DatasetNames()
	if dataset != "" {
		datasets = []string{dataset}
	}
	names := strings.Split(expName, ",")
	if expName == "all" {
		names = []string{"bounded-pct", "fig5-varyg", "fig5-varyq", "fig5-varya", "fig5-accessed", "fig6", "exp3", "ablation"}
	}
	for _, name := range names {
		switch strings.TrimSpace(name) {
		case "bounded-pct":
			tab, err := exp.BoundedPct(opt)
			if err != nil {
				return err
			}
			if err := emit(tab); err != nil {
				return err
			}
		case "fig5-varyg":
			for _, ds := range datasets {
				o := opt
				o.Dataset = ds
				tab, err := exp.Fig5VaryG(o)
				if err != nil {
					return err
				}
				if err := emit(tab); err != nil {
					return err
				}
			}
		case "fig5-varyq":
			for _, ds := range datasets {
				o := opt
				o.Dataset = ds
				tab, err := exp.Fig5VaryQ(o)
				if err != nil {
					return err
				}
				if err := emit(tab); err != nil {
					return err
				}
			}
		case "fig5-varya":
			for _, ds := range datasets {
				o := opt
				o.Dataset = ds
				tab, err := exp.Fig5VaryA(o)
				if err != nil {
					return err
				}
				if err := emit(tab); err != nil {
					return err
				}
			}
		case "fig5-accessed":
			for _, ds := range datasets {
				o := opt
				o.Dataset = ds
				tab, err := exp.Fig5Accessed(o)
				if err != nil {
					return err
				}
				if err := emit(tab); err != nil {
					return err
				}
			}
		case "fig6":
			for _, sem := range []core.Semantics{core.Subgraph, core.Simulation} {
				tab, err := exp.Fig6(opt, sem)
				if err != nil {
					return err
				}
				if err := emit(tab); err != nil {
					return err
				}
			}
		case "exp3":
			tab, err := exp.Exp3(opt)
			if err != nil {
				return err
			}
			if err := emit(tab); err != nil {
				return err
			}
		case "ablation":
			tab, err := exp.Ablation(opt)
			if err != nil {
				return err
			}
			if err := emit(tab); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
	}
	return nil
}
