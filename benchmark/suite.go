package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
)

// suiteResult is what the suite writes and -compare reads: for every
// workload, each end-to-end metric's value in every round, and the
// per-layer metrics of the one traced run.
type suiteResult struct {
	Fingerprint fingerprint               `json:"fingerprint"` // of the first run; calib_ns of every run is per workload
	Seed        uint64                    `json:"seed"`
	Seconds     float64                   `json:"seconds"`
	Rounds      int                       `json:"rounds"`
	Workloads   map[string]*suiteWorkload `json:"workloads"`
}

type suiteWorkload struct {
	EndToEnd  map[string][]float64 `json:"end_to_end"`
	PerLayer  map[string]float64   `json:"per_layer"`
	CalibNS   []int64              `json:"calib_ns"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
}

// runSuite runs every workload once per round, in a process of its own each
// time and with the round's seed, so that a slow phase of the machine lands
// on one round of every workload instead of on every run of one; then one
// traced run per workload.
func runSuite(dir string, seed uint64, secs float64, rounds int, stdout, stderr io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	suite := &suiteResult{Seed: seed, Seconds: secs, Rounds: rounds, Workloads: map[string]*suiteWorkload{}}
	for _, w := range workloads {
		suite.Workloads[w.Name] = &suiteWorkload{EndToEnd: map[string][]float64{}}
	}
	child := func(name string, seed uint64, traced bool) (*runResult, error) {
		out := filepath.Join(dir, "run.json")
		trace := "0"
		if traced {
			trace = "1"
		}
		cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.FormatFloat(secs, 'g', -1, 64), "-trace", trace, "-dir", dir, "-result", out)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s (seed %d, trace %s): %w", name, seed, trace, err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			return nil, err
		}
		res := &runResult{}
		return res, json.Unmarshal(data, res)
	}
	for round := 0; round < rounds; round++ {
		for _, w := range workloads {
			res, err := child(w.Name, seed+uint64(round), false)
			if err != nil {
				return err
			}
			if round == 0 && w.Name == workloads[0].Name {
				suite.Fingerprint = res.Fingerprint
			}
			sw := suite.Workloads[w.Name]
			for _, d := range endToEnd {
				sw.EndToEnd[d.Name] = append(sw.EndToEnd[d.Name], res.Metrics[d.Name])
			}
			sw.CalibNS = append(sw.CalibNS, res.Fingerprint.CalibNS)
			sw.Attempted += res.Attempted
			sw.Failed += res.Failed
		}
	}
	for _, w := range workloads {
		res, err := child(w.Name, seed, true)
		if err != nil {
			return err
		}
		sw := suite.Workloads[w.Name]
		sw.PerLayer = res.Metrics
		sw.Attempted += res.Attempted
		sw.Failed += res.Failed
	}
	os.Remove(filepath.Join(dir, "run.json"))

	fmt.Fprintf(stdout, "\nsuite: seed %d, %d rounds of %g s, workers %d\n", seed, rounds, secs, suite.Fingerprint.Workers)
	for _, w := range workloads {
		sw := suite.Workloads[w.Name]
		fmt.Fprintf(stdout, "\n%s (%d failed of %d attempted)\n", w.Name, sw.Failed, sw.Attempted)
		for _, d := range endToEnd {
			q1, q2, q3 := quartiles(sw.EndToEnd[d.Name])
			fmt.Fprintf(stdout, "  %-22s median %14.6g %-5s quartiles %.6g .. %.6g  spread %.2f%% of the median (bound %.0f%%)\n",
				d.Name, q2, d.Unit, q1, q3, spread(sw.EndToEnd[d.Name])*100, d.Bound*100)
		}
	}
	path := filepath.Join(dir, "result.json")
	fmt.Fprintf(stdout, "\nresult written to %s\n", path)
	return writeJSON(path, suite)
}

// Verdicts of -compare, one per pairing of workload and end-to-end metric.
const (
	verdictBetter     = "better"
	verdictWithin     = "within bound"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares the runs of a change (b) with the runs of its parent (a).
// The change is worse when its median is worse than the parent's by more
// than the bound. Where either side's spread is wider than the bound the
// medians decide nothing: the pairing is unresolved, unless every run of
// one side beats every run of the other.
func judge(d metricDef, a, b []float64) (verdict string, change, spreadA, spreadB float64) {
	sign := 1.0 // positive change: worse
	if d.Better == "higher" {
		sign = -1
	}
	ma, mb := median(a), median(b)
	if ma != 0 {
		change = sign * (mb - ma) / ma
	}
	spreadA, spreadB = spread(a), spread(b)
	allBetter, allWorse := everyRunBeats(d, b, a), everyRunBeats(d, a, b)
	switch {
	case max(spreadA, spreadB) > d.Bound:
		switch {
		case allBetter:
			return verdictBetter, change, spreadA, spreadB
		case allWorse && change > d.Bound:
			return verdictWorse, change, spreadA, spreadB
		}
		return verdictUnresolved, change, spreadA, spreadB
	case change > d.Bound:
		return verdictWorse, change, spreadA, spreadB
	case change < -max(spreadA, spreadB) && allBetter:
		return verdictBetter, change, spreadA, spreadB
	}
	return verdictWithin, change, spreadA, spreadB
}

// everyRunBeats says whether every value of x is better than every value of y.
func everyRunBeats(d metricDef, x, y []float64) bool {
	if d.Better == "higher" {
		return slices.Min(x) > slices.Max(y)
	}
	return slices.Max(x) < slices.Min(y)
}

func readSuite(path string) (*suiteResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := &suiteResult{}
	if err := json.Unmarshal(data, s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// compareFiles judges suite result b against a. Exit status: 0 when nothing
// is worse, 1 when something is, 2 when the two files cannot be compared.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readSuite(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	b, err := readSuite(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if a.Fingerprint.Workers != b.Fingerprint.Workers || a.Seed != b.Seed || a.Seconds != b.Seconds {
		fmt.Fprintf(stderr, "benchmark: not comparable: workers %d vs %d, seed %d vs %d, seconds %g vs %g\n",
			a.Fingerprint.Workers, b.Fingerprint.Workers, a.Seed, b.Seed, a.Seconds, b.Seconds)
		return 2
	}
	fmt.Fprintf(stdout, "calib_ns medians: %.0f vs %.0f (the box, not the program)\n", calibMedian(a), calibMedian(b))
	worse := 0
	for _, w := range workloads {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		if wa == nil || wb == nil {
			fmt.Fprintf(stderr, "benchmark: workload %s missing from a result file\n", w.Name)
			return 2
		}
		fmt.Fprintf(stdout, "\n%s\n", w.Name)
		if wb.Failed > wa.Failed {
			worse++
			fmt.Fprintf(stdout, "  %-22s %d failed operations vs %d: %s\n", "failed", wb.Failed, wa.Failed, verdictWorse)
		}
		for _, d := range endToEnd {
			va, vb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(stderr, "benchmark: %s %s missing from a result file\n", w.Name, d.Name)
				return 2
			}
			verdict, change, sa, sb := judge(d, va, vb)
			if verdict == verdictWorse {
				worse++
			}
			fmt.Fprintf(stdout, "  %-22s %14.6g -> %-14.6g %-5s %+7.2f%% worse (bound %.0f%%, spreads %.1f%% %.1f%%): %s\n",
				d.Name, median(va), median(vb), d.Unit, change*100, d.Bound*100, sa*100, sb*100, verdict)
		}
	}
	if worse > 0 {
		fmt.Fprintf(stdout, "\n%d pairings worse\n", worse)
		return 1
	}
	fmt.Fprintln(stdout, "\nno pairing worse")
	return 0
}

func calibMedian(s *suiteResult) float64 {
	var all []float64
	for _, w := range s.Workloads {
		for _, c := range w.CalibNS {
			all = append(all, float64(c))
		}
	}
	return median(all)
}
