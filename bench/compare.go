package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkDef is the part of BENCHMARK.json that -compare needs.
type benchmarkDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// compareDocs prints, per workload and end-to-end metric, both documents'
// values, how much worse B is than A as a share of A, the bound from the
// benchmark definition, and a verdict:
//
//	ok          B is not worse than A by more than the bound
//	worse       it is, and both runs were steadier than the bound
//	unresolved  it is, but a run's own spread exceeds the bound, so the
//	            difference cannot be told from noise
//
// It returns 1 when any row is worse.
func compareDocs(aPath, bPath, bmPath string, stdout, stderr io.Writer) int {
	var def benchmarkDef
	var a, b document
	for _, in := range []struct {
		path string
		v    any
	}{{bmPath, &def}, {aPath, &a}, {bPath, &b}} {
		if err := readJSON(in.path, in.v); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", in.path, err)
			return 2
		}
	}
	if a.Env.NProc != b.Env.NProc || a.Env.GoVersion != b.Env.GoVersion || a.Env.MeasureSec != b.Env.MeasureSec || a.Env.FlushPolicy != b.Env.FlushPolicy {
		fmt.Fprintf(stdout, "warning: the env blocks differ (nproc %d/%d, go %s/%s, window %gs/%gs); the rows below compare different conditions\n",
			a.Env.NProc, b.Env.NProc, a.Env.GoVersion, b.Env.GoVersion, a.Env.MeasureSec, b.Env.MeasureSec)
	}
	inB := map[string]*result{}
	for _, r := range b.Workloads {
		inB[r.Name] = r
	}
	fmt.Fprintf(stdout, "%-14s %-16s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "worse by", "bound", "verdict")
	worse := 0
	for _, ra := range a.Workloads {
		rb := inB[ra.Name]
		if rb == nil {
			continue
		}
		if !ra.Correct || !rb.Correct {
			fmt.Fprintf(stdout, "%-14s a run was not correct (A=%v B=%v)\n", ra.Name, ra.Correct, rb.Correct)
			worse++
		}
		for _, m := range def.EndToEnd {
			ma, okA := ra.Metrics[m.Name]
			mb, okB := rb.Metrics[m.Name]
			if !okA || !okB || ma.Value == 0 {
				continue
			}
			delta := (mb.Value - ma.Value) / ma.Value
			if m.Better == "higher" {
				delta = -delta
			}
			verdict := "ok"
			if delta > m.Bound {
				if ma.Spread > m.Bound || mb.Spread > m.Bound {
					verdict = "unresolved"
				} else {
					verdict = "worse"
					worse++
				}
			}
			fmt.Fprintf(stdout, "%-14s %-16s %14.4f %14.4f %+8.1f%% %6.0f%%  %s\n",
				ra.Name, m.Name+" "+m.Unit, ma.Value, mb.Value, 100*delta, 100*m.Bound, verdict)
		}
	}
	if worse > 0 {
		return 1
	}
	return 0
}
