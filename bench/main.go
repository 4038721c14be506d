// Command bench is the repository's benchmark: it builds each named
// workload's daemon in-process, drives it over loopback HTTP with two
// closed-loop clients, checks every answer, and prints each metric by
// name and unit. See README.md in this directory.
//
//	bash bench/run.sh -seed 1 -out bench/out/run.json     # every workload, end to end + traced
//	bash bench/run.sh -workload read.cold -seed 1 -seconds 10 -trace 0
//	bash bench/run.sh -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// env records where a document was measured; two documents are only
// comparable when their env blocks agree.
type env struct {
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	Commit      string  `json:"commit"`
	Kernel      string  `json:"kernel"`
	Seed        int64   `json:"seed"`
	Clients     int     `json:"clients"`
	MeasureSec  float64 `json:"measure_sec"`
	WarmupSec   float64 `json:"warmup_sec"`
	FlushPolicy string  `json:"flush_policy"`
	Note        string  `json:"note"`
}

// document is the one JSON document an invocation writes with -out.
type document struct {
	Env       env       `json:"env"`
	Workloads []*result `json:"workloads"`
}

// contractLine is the last line of standard output when one workload is
// run in one mode: the form the benchmark driver reads.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted uint64                    `json:"attempted"`
	Failed    uint64                    `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func cmdOutput(name string, args ...string) string {
	out, err := exec.Command(name, args...).Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		names   = fs.String("workload", "", "comma-separated workload names (default: all)")
		seed    = fs.Int64("seed", 1, "seed of the graph instance and the request streams")
		seconds = fs.Float64("seconds", 20, "measured window per run, in seconds")
		warmup  = fs.Duration("warmup", 2*time.Second, "unmeasured warm-up before the window")
		trace   = fs.String("trace", "both", "0 = end-to-end run only (tracing off), 1 = traced layered-replay run only, both = one after the other")
		out     = fs.String("out", "", "write the JSON document to this file")
		outDir  = fs.String("outdir", filepath.Join("bench", "out"), "directory for trace files and scratch WAL directories")
		compare = fs.Bool("compare", false, "compare two -out documents given as arguments against the bounds in -benchmark")
		bmFile  = fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding the regression bounds (for -compare)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two documents: -compare A.json B.json")
			return 2
		}
		return compareDocs(fs.Arg(0), fs.Arg(1), *bmFile, stdout, stderr)
	}
	var e2e, traced bool
	switch *trace {
	case "0", "false":
		e2e = true
	case "1", "true":
		traced = true
	case "both":
		e2e, traced = true, true
	default:
		fmt.Fprintf(stderr, "bench: -trace must be 0, 1 or both, got %q\n", *trace)
		return 2
	}
	var specs []spec
	if *names == "" {
		specs = workloads
	} else {
		for _, n := range strings.Split(*names, ",") {
			sp, ok := findWorkload(n)
			if !ok {
				fmt.Fprintf(stderr, "bench: unknown workload %q\n", n)
				return 2
			}
			specs = append(specs, sp)
		}
	}
	opt := options{
		seed:   *seed,
		window: time.Duration(*seconds * float64(time.Second)),
		warmup: *warmup,
		outDir: *outDir,
	}
	doc := &document{Env: env{
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		Commit:      cmdOutput("git", "rev-parse", "HEAD"),
		Kernel:      cmdOutput("uname", "-sr"),
		Seed:        *seed,
		Clients:     numClients,
		MeasureSec:  opt.window.Seconds(),
		WarmupSec:   opt.warmup.Seconds(),
		FlushPolicy: flushPolicy,
		Note:        "latencies are client-observed loopback round trips on a shared sandbox; fsync here may be cheap, so wal.sync_us is the sandbox's, not a device's",
	}}
	eb, _ := json.Marshal(doc.Env)
	fmt.Fprintf(stdout, "env %s\n", eb)

	failed := false
	for _, sp := range specs {
		var res *result
		if e2e {
			r, err := runEndToEnd(sp, opt)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", sp.Name, err)
				return 1
			}
			res = r
		}
		if traced {
			r, err := runTraced(sp, opt)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s (traced): %v\n", sp.Name, err)
				return 1
			}
			if res == nil {
				res = r
			} else {
				res.merge(r)
			}
		}
		printResult(stdout, res)
		if !res.Correct {
			failed = true
		}
		doc.Workloads = append(doc.Workloads, res)
	}
	if *out != "" {
		b, err := json.MarshalIndent(doc, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: write %s: %v\n", *out, err)
			return 1
		}
	}
	if len(specs) == 1 && e2e != traced {
		res := doc.Workloads[0]
		ms := res.Metrics
		if traced {
			ms = res.Layers
		}
		line := contractLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]contractMetric{}}
		for k, m := range ms {
			line.Metrics[k] = contractMetric{Value: m.Value, Unit: m.Unit}
		}
		b, _ := json.Marshal(line)
		fmt.Fprintf(stdout, "%s\n", b)
	}
	if failed {
		return 1
	}
	return 0
}

// merge folds a traced run's section into the end-to-end one.
func (r *result) merge(t *result) {
	r.Layers = t.Layers
	r.Attempted += t.Attempted
	r.Failed += t.Failed
	r.Errors = append(r.Errors, t.Errors...)
	r.Correct = r.Correct && t.Correct
	for k, v := range t.Diagnostics {
		r.Diagnostics["traced."+k] = v
	}
}

func printResult(w io.Writer, r *result) {
	fmt.Fprintf(w, "\n== %s  correct=%v attempted=%d failed=%d\n   %s\n", r.Name, r.Correct, r.Attempted, r.Failed, r.Why)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "   ERROR %s\n", e)
	}
	printMetrics(w, "end to end (tracing off)", r.Metrics)
	printMetrics(w, "per layer (traced layered replay, one goroutine)", r.Layers)
	if len(r.Diagnostics) > 0 {
		fmt.Fprintln(w, "   diagnostics (not gated):")
		keys := make([]string, 0, len(r.Diagnostics))
		for k := range r.Diagnostics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			b, _ := json.Marshal(r.Diagnostics[k])
			fmt.Fprintf(w, "     %-34s %s\n", k, b)
		}
	}
}

func printMetrics(w io.Writer, title string, ms map[string]metric) {
	if len(ms) == 0 {
		return
	}
	fmt.Fprintf(w, "   %s:\n", title)
	keys := make([]string, 0, len(ms))
	for k := range ms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := ms[k]
		fmt.Fprintf(w, "     %-34s %14.4f %-6s", k, m.Value, m.Unit)
		if m.Spread != 0 {
			fmt.Fprintf(w, " (within-run spread %.1f%%)", 100*m.Spread)
		}
		fmt.Fprintln(w)
	}
}
