package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke runs every workload and every harness of the traced run for a
// moment on shrunken key ranges with all oracles on, so that the tests
// exercise every code path the benchmark has.
func TestSmoke(t *testing.T) {
	var out bytes.Buffer
	if err := runSmoke(t.TempDir(), 1, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if got := strings.Count(out.String(), " ok: "); got != 2*len(workloads) {
		t.Errorf("%d runs reported ok, want %d:\n%s", got, 2*len(workloads), out.String())
	}
}

// TestRunPrintsTheSummaryLine checks one run's output against the driver's
// contract: the last line of standard output is one JSON object with
// exactly correct, attempted, failed and metrics, and the metrics are the
// end-to-end ones untraced and the per-layer ones traced.
func TestRunPrintsTheSummaryLine(t *testing.T) {
	dir := t.TempDir()
	for _, traced := range []bool{false, true} {
		res, err := runWorkload(findWorkload("srv-write-durable"), traced, runOpts{seed: 3, seconds: 0.35, dir: dir, shrink: 64})
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		printResult(&out, res)
		if err := printSummaryLine(&out, res); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var summary map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil {
			t.Fatalf("last line is not JSON: %v", err)
		}
		if len(summary) != 4 || summary["correct"] == nil || summary["attempted"] == nil || summary["failed"] == nil {
			t.Errorf("summary keys: %v", summary)
		}
		if string(summary["correct"]) != "true" {
			t.Errorf("correct: %s", summary["correct"])
		}
		var metrics map[string]struct {
			Value float64
			Unit  string
		}
		if err := json.Unmarshal(summary["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		defs := metricDefs(traced)
		if len(metrics) != len(defs) {
			t.Errorf("traced %v: %d metrics, want %d", traced, len(metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := metrics[d.Name]
			if !ok || m.Unit != d.Unit {
				t.Errorf("traced %v: metric %s missing or in %q", traced, d.Name, m.Unit)
			}
			if !traced && m.Value <= 0 {
				t.Errorf("end-to-end metric %s is %v; it must never be 0", d.Name, m.Value)
			}
			if !strings.Contains(out.String(), d.Name+" ") {
				t.Errorf("metric %s is not printed by name", d.Name)
			}
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "trace-srv-write-durable.json")); err != nil {
		t.Errorf("the traced run wrote no trace file: %v", err)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "data-*")); len(left) != 0 {
		t.Errorf("data directories left behind: %v", left)
	}
}

func TestUnknownWorkloadAndBadFlagsFail(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-workload", "no-such", "-dir", t.TempDir()}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, out.String())
	}
	if code := run([]string{"-compare", "only-one.json"}, &out, &errOut); code != 2 {
		t.Errorf("-compare with one file: exit %d", code)
	}
}

func TestCompareRefusesDifferentWorkersOrSeed(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, workers int, seed uint64, opsPerS float64) string {
		s := suiteResult{Fingerprint: fingerprint{Workers: workers}, Seed: seed, Seconds: 1, Rounds: 3, Workloads: map[string]*suiteWorkload{}}
		for _, w := range workloads {
			sw := &suiteWorkload{EndToEnd: map[string][]float64{}}
			for _, d := range endToEnd {
				sw.EndToEnd[d.Name] = []float64{1, 1.001, 0.999}
			}
			sw.EndToEnd["ops_per_s"] = []float64{opsPerS, opsPerS * 1.01, opsPerS * 0.99}
			s.Workloads[w.Name] = sw
		}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, s); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 2, 1, 1000)
	var out, errOut bytes.Buffer
	if code := compareFiles(base, write("same.json", 2, 1, 1005), &out, &errOut); code != 0 {
		t.Errorf("A/A: exit %d\n%s%s", code, out.String(), errOut.String())
	}
	if code := compareFiles(base, write("slow.json", 2, 1, 700), &out, &errOut); code != 1 || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("a 30%% drop of ops_per_s: exit %d", code)
	}
	if code := compareFiles(base, write("workers.json", 4, 1, 1000), &out, &errOut); code != 2 {
		t.Errorf("different workers: exit %d, want 2", code)
	}
	if code := compareFiles(base, write("seed.json", 2, 2, 1000), &out, &errOut); code != 2 {
		t.Errorf("different seed: exit %d, want 2", code)
	}
}
