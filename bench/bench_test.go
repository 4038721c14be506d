package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// definition is the part of BENCHMARK.json the smoke test holds the
// program to.
type definition struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

func readDefinition(t *testing.T) definition {
	t.Helper()
	var def definition
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &def); err != nil {
		t.Fatal(err)
	}
	return def
}

// TestSmoke runs every workload small and short with all gates on: the
// output must name every metric BENCHMARK.json lists, nothing may fail,
// durable workloads must pass the durability gate, and the exact counts
// must repeat between two runs of one seed.
func TestSmoke(t *testing.T) {
	def := readDefinition(t)
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(def.Workloads), len(workloads))
	}
	for i, w := range def.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, w.Name, workloads[i].Name)
		}
	}
	opt := options{seed: 7, window: 300 * time.Millisecond, warmup: 100 * time.Millisecond, outDir: t.TempDir(), scaleMul: 0.1}
	for _, sp := range workloads {
		t.Run(sp.Name, func(t *testing.T) {
			e2e, err := runEndToEnd(sp, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !e2e.Correct || e2e.Failed != 0 {
				t.Fatalf("end-to-end run not correct: failed=%d errors=%v", e2e.Failed, e2e.Errors)
			}
			if ff := e2e.Diagnostics["failed_frac"]; ff != 0.0 {
				t.Errorf("failed_frac = %v, want 0", ff)
			}
			for _, m := range def.EndToEnd {
				if got, ok := e2e.Metrics[m.Name]; !ok || got.Value <= 0 {
					t.Errorf("end-to-end metric %s = %+v, want a positive value", m.Name, got)
				}
			}
			if len(e2e.Metrics) != len(def.EndToEnd) {
				t.Errorf("run reports %d end-to-end metrics, BENCHMARK.json lists %d", len(e2e.Metrics), len(def.EndToEnd))
			}
			if sp.Durable && e2e.Diagnostics["durability_ok"] != true {
				t.Errorf("durability_ok = %v", e2e.Diagnostics["durability_ok"])
			}

			var traced [2]*result
			for i := range traced {
				if traced[i], err = runTraced(sp, opt); err != nil {
					t.Fatal(err)
				}
				if !traced[i].Correct {
					t.Fatalf("traced run not correct: %v", traced[i].Errors)
				}
			}
			for _, m := range def.PerLayer {
				if _, ok := traced[0].Layers[m.Name]; !ok {
					t.Errorf("per-layer metric %s missing", m.Name)
				}
			}
			if len(traced[0].Layers) != len(def.PerLayer) {
				t.Errorf("run reports %d per-layer metrics, BENCHMARK.json lists %d", len(traced[0].Layers), len(def.PerLayer))
			}
			for _, name := range []string{"core.accessed_per_query", "core.gq_nodes"} {
				a, b := traced[0].Layers[name].Value, traced[1].Layers[name].Value
				if a != b || a <= 0 {
					t.Errorf("%s does not repeat: %v then %v", name, a, b)
				}
			}
			// One client, one fsync per commit: exact on the unsharded
			// log; a sharded commit syncs each participant.
			syncs := traced[0].Layers["wal.syncs_per_update"].Value
			switch {
			case !sp.Durable:
				if syncs != 0 {
					t.Errorf("wal.syncs_per_update = %v on a workload without a WAL", syncs)
				}
			case sp.Shards > 1:
				if syncs < 1 || syncs > float64(sp.Shards) {
					t.Errorf("wal.syncs_per_update = %v, want within [1, %d]", syncs, sp.Shards)
				}
			default:
				if syncs != 1 || traced[1].Layers["wal.syncs_per_update"].Value != 1 {
					t.Errorf("wal.syncs_per_update = %v, want exactly 1 with one client", syncs)
				}
			}
			var tf struct{ Spans []span }
			if err := readJSON(filepath.Join(opt.outDir, "trace-"+sp.Name+".json"), &tf); err != nil {
				t.Fatal(err)
			}
			ids := map[int]bool{}
			for _, s := range tf.Spans {
				ids[s.ID] = true
			}
			for _, s := range tf.Spans {
				if s.Parent != 0 && !ids[s.Parent] {
					t.Fatalf("span %d (%s) names parent %d, which is not in the trace", s.ID, s.Name, s.Parent)
				}
			}
			if len(tf.Spans) == 0 {
				t.Error("trace file holds no spans")
			}
		})
	}
}

// TestResultLine checks the form the benchmark driver reads: one workload,
// one mode, and a last line holding exactly the contract's keys.
func TestResultLine(t *testing.T) {
	def := readDefinition(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "read.cold", "--seed", "3", "--seconds", "1", "--trace", "0", "-warmup", "200ms", "-outdir", t.TempDir()}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := line[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(line) != 4 {
		t.Errorf("result line has %d keys, want 4", len(line))
	}
	var ms map[string]contractMetric
	if err := json.Unmarshal(line["metrics"], &ms); err != nil {
		t.Fatal(err)
	}
	if len(ms) != len(def.EndToEnd) {
		t.Errorf("result line has %d metrics, want the %d end-to-end ones", len(ms), len(def.EndToEnd))
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, ops, spread float64) string {
		doc := document{Workloads: []*result{{Name: "read.cold", Correct: true, Metrics: map[string]metric{
			"ops_per_s":      {Value: ops, Unit: "1/s", Spread: spread},
			"primary_p50_us": {Value: 100, Unit: "us"},
		}}}}
		b, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 1000, 0.01)
	bm := filepath.Join("..", "BENCHMARK.json")
	for _, tc := range []struct {
		name string
		path string
		code int
		want string
	}{
		{"same", write("same.json", 990, 0.01), 0, "ok"},
		{"worse", write("worse.json", 500, 0.01), 1, "worse"},
		{"noisy", write("noisy.json", 500, 0.9), 0, "unresolved"},
	} {
		var stdout, stderr bytes.Buffer
		if code := compareDocs(base, tc.path, bm, &stdout, &stderr); code != tc.code {
			t.Errorf("%s: exit %d, want %d\n%s%s", tc.name, code, tc.code, stdout.String(), stderr.String())
		}
		if !strings.Contains(stdout.String(), tc.want) {
			t.Errorf("%s: output lacks %q:\n%s", tc.name, tc.want, stdout.String())
		}
	}
}
