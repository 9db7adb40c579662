// Command benchmark is the repository's benchmark: five named workloads,
// from the bare engine to the durable server over loopback, each measured
// end to end with tracing off and, in a separate traced run, layer by layer.
// README.md in this directory describes the workloads, the metrics and the
// protocol; BENCHMARK.json at the root of the repository is its contract.
//
//	benchmark --workload W --seed N --seconds S --trace 0|1   one run of one workload
//	benchmark [-rounds R] [-seconds S] [-seed N]              the whole suite, into <dir>/result.json
//	benchmark -compare a.json b.json                          judge two suite results
//	benchmark -smoke                                          every code path, in a second or two
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadName := fs.String("workload", "", "run this one workload once (default: the whole suite)")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	secs := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced harnesses")
	dir := fs.String("dir", ".bench_build/run", "scratch and output directory (data directories, trace-*.json, result.json)")
	resultFile := fs.String("result", "", "with -workload: also write the run's full result, as JSON, to this file")
	rounds := fs.Int("rounds", 3, "suite: untraced runs per workload, each with the next seed")
	compare := fs.Bool("compare", false, "compare two suite result files given as arguments")
	smoke := fs.Bool("smoke", false, "run every workload and harness briefly on shrunken key ranges, oracles on")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare wants two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *smoke:
		if err := runSmoke(*dir, *seed, stdout); err != nil {
			return fail(err)
		}
		return 0
	case *workloadName == "":
		if err := runSuite(*dir, *seed, *secs, *rounds, stdout, stderr); err != nil {
			return fail(err)
		}
		return 0
	}
	spec := findWorkload(*workloadName)
	if spec == nil {
		return fail(fmt.Errorf("unknown workload %q", *workloadName))
	}
	if *secs <= 0 || (*trace != 0 && *trace != 1) {
		return fail(fmt.Errorf("-seconds must be positive and -trace 0 or 1"))
	}
	res, err := runWorkload(spec, *trace == 1, runOpts{seed: *seed, seconds: *secs, dir: *dir, shrink: 1})
	if err != nil {
		return fail(err)
	}
	printResult(stdout, res)
	if *resultFile != "" {
		if err := writeJSON(*resultFile, res); err != nil {
			return fail(err)
		}
	}
	if err := printSummaryLine(stdout, res); err != nil {
		return fail(err)
	}
	if res.Failed > 0 {
		return fail(fmt.Errorf("%s: %d of %d operations failed their check", res.Workload, res.Failed, res.Attempted))
	}
	return 0
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func metricDefs(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// printResult prints every metric by name with its unit, then the notes.
func printResult(w io.Writer, res *runResult) {
	f := res.Fingerprint
	fmt.Fprintf(w, "workload %s seed %d traced %v\n", res.Workload, res.Seed, res.Traced)
	fmt.Fprintf(w, "machine nproc %d gomaxprocs %d workers %d %s kernel %s calib_ns %d\n",
		f.NProc, f.GOMAXPROCS, f.Workers, f.GoVersion, f.Kernel, f.CalibNS)
	for _, d := range metricDefs(res.Traced) {
		fmt.Fprintf(w, "%-36s %16.6g %s\n", d.Name, res.Metrics[d.Name], d.Unit)
	}
	failedShare := 0.0
	if res.Attempted > 0 {
		failedShare = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(w, "%-36s %16.6g ratio (%d failed of %d attempted)\n", "failed_share", failedShare, res.Failed, res.Attempted)
	for _, n := range res.Notes {
		fmt.Fprintln(w, "#", n)
	}
}

// printSummaryLine prints the one JSON object a driver reads from the last
// line of standard output.
func printSummaryLine(w io.Writer, res *runResult) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, map[string]value{}}
	for _, d := range metricDefs(res.Traced) {
		out.Metrics[d.Name] = value{res.Metrics[d.Name], d.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// runSmoke runs every workload, untraced and traced, with windows of a
// tenth of a second on key ranges shrunk 64-fold, and fails on any oracle.
func runSmoke(dir string, seed uint64, stdout io.Writer) error {
	for i := range workloads {
		for _, traced := range []bool{false, true} {
			o := runOpts{seed: seed, seconds: 0.1, dir: dir, shrink: 64}
			if traced {
				o.seconds = 0.7 // split over up to seven harnesses
			}
			res, err := runWorkload(&workloads[i], traced, o)
			if err != nil {
				return err
			}
			if res.Failed > 0 {
				return fmt.Errorf("%s (traced %v): %d of %d operations failed their check", res.Workload, traced, res.Failed, res.Attempted)
			}
			fmt.Fprintf(stdout, "smoke %-18s traced %-5v ok: %d operations checked, %d metrics\n", res.Workload, traced, res.Attempted, len(res.Metrics))
		}
	}
	return nil
}
