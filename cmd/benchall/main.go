// Command benchall regenerates the paper's tables and figures (see DESIGN.md
// for the experiment index) and prints them as text tables.
//
// Usage:
//
//	benchall [-quick] [-instances N] [-seed S] [-id T4 -id F3a ...]
//	benchall -json BENCH_2026-08-05.json
//
// Without -id, every registered experiment runs in order. -quick shrinks
// datasets and sample counts for a fast end-to-end pass; omit it to run at
// the paper's scale (Table 1 sizes, 100 explained instances per dataset).
//
// -json switches to the micro-benchmark suite (internal/benchsuite): each
// hot-path case runs under testing.Benchmark and the results — name, ns/op,
// allocs/op, bytes/op, plus the host's gomaxprocs/num_cpu — are written as a
// JSON document to the given file, the machine-readable perf baseline
// `make bench-json` records per date (schema:
// internal/benchsuite/benchjson.go). Adding -smoke runs each case
// for a single iteration: a fast CI check that the whole pipeline still
// builds its datasets and solves, with timings marked as meaningless in the
// output document.
//
//	benchall -compare OLD.json NEW.json
//
// -compare diffs two baseline files case by case, listing a case only the
// old file has as "(case removed)", and prints the warnings that qualify the
// diff — differing CPU counts, GOMAXPROCS or architectures between the
// recording hosts, and smoke documents.
//
//	benchall -gate BENCH_2026-08-07.json [-json BENCH_NEW.json]
//
// -gate is the CI perf gate: it runs the micro-benchmark suite fresh (full
// benchtime — smoke timings are not gateable), writes the new baseline
// (default BENCH_<today>.json), and fails when any srk_lazy case regressed
// more than 25% in ns/op or any case's allocs/op increased at all. When the
// recording hosts differ (CPU count, GOMAXPROCS) the timing gate is skipped
// with a warning — cross-host ns/op is noise — while the host-independent
// allocation gate still applies.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/xai-db/relativekeys/internal/benchsuite"
	"github.com/xai-db/relativekeys/internal/experiments"
)

type idList []string

func (l *idList) String() string { return strings.Join(*l, ",") }

func (l *idList) Set(v string) error {
	*l = append(*l, v)
	return nil
}

func main() {
	var (
		quick     = flag.Bool("quick", false, "shrink datasets and samples for a fast pass")
		instances = flag.Int("instances", 0, "explained instances per dataset (default 100; 12 with -quick)")
		seed      = flag.Int64("seed", 0, "harness seed (default fixed)")
		jsonOut   = flag.String("json", "", "run the micro-benchmark suite and write JSON results to this file instead of the experiments")
		smoke     = flag.Bool("smoke", false, "with -json: run each case once to verify the pipeline; timings are marked meaningless")
		compare   = flag.Bool("compare", false, "diff two baseline JSON files given as positional args")
		gate      = flag.String("gate", "", "run the suite fresh and fail on perf regressions vs this baseline file")
		ids       idList
	)
	flag.Var(&ids, "id", "experiment id to run (repeatable); default: all")
	// Register the testing flags before parsing so -smoke can shorten
	// benchtime below (testing.Benchmark reads them, flag-registered or not).
	testing.Init()
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchall -compare OLD.json NEW.json")
			os.Exit(2)
		}
		if err := runCompare(flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *gate != "" {
		ok, err := runGate(*gate, *jsonOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if *jsonOut != "" {
		if err := runBenchJSON(*jsonOut, *smoke); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	env := experiments.NewEnv(experiments.Config{
		Quick:     *quick,
		Instances: *instances,
		Seed:      *seed,
	})
	run := []string(ids)
	if len(run) == 0 {
		run = experiments.IDs()
	}
	failed := 0
	for _, id := range run {
		start := time.Now()
		tab, err := experiments.Run(env, id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			failed++
			continue
		}
		fmt.Println(tab.Render())
		fmt.Printf("(%s took %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// runBenchJSON runs the benchsuite (schema and runner live in
// internal/benchsuite/benchjson.go) and writes the baseline to path. Smoke
// mode drops benchtime to one iteration per case: enough to prove every case
// still builds its dataset and solves, cheap enough for CI.
func runBenchJSON(path string, smoke bool) error {
	if smoke {
		if err := flag.Set("test.benchtime", "1x"); err != nil {
			return err
		}
	}
	doc := benchsuite.RunSuite(os.Stderr, smoke)
	if err := doc.WriteFile(path); err != nil {
		return err
	}
	fmt.Printf("wrote %d benchmark results to %s\n", len(doc.Results), path)
	return nil
}

// runGate records a fresh full-benchtime baseline, writes it to outPath
// (default BENCH_<today>.json), and gates it against the committed baseline.
// Returns ok=false when the gate fails.
func runGate(baselinePath, outPath string) (bool, error) {
	oldDoc, err := benchsuite.ReadDoc(baselinePath)
	if err != nil {
		return false, err
	}
	newDoc := benchsuite.RunSuite(os.Stderr, false)
	if outPath == "" {
		outPath = "BENCH_" + newDoc.Date + ".json"
	}
	failures, warnings := benchsuite.Gate(oldDoc, newDoc)
	// The skip reasons ride in the artifact itself: a green gate whose timing
	// rule never applied (host mismatch) must say so durably, not just in a
	// log line.
	newDoc.GateSkips = warnings
	if err := newDoc.WriteFile(outPath); err != nil {
		return false, err
	}
	fmt.Printf("wrote %d benchmark results to %s\n", len(newDoc.Results), outPath)
	for _, w := range warnings {
		fmt.Printf("WARNING: %s\n", w)
	}
	for _, f := range failures {
		fmt.Printf("GATE FAILED: %s\n", f)
	}
	if len(failures) > 0 {
		fmt.Printf("bench gate: %d regression(s) vs %s\n", len(failures), baselinePath)
		return false, nil
	}
	fmt.Printf("bench gate: clean vs %s\n", baselinePath)
	return true, nil
}

// runCompare diffs two baseline files and prints the qualifying warnings
// first, so a cross-host comparison can't masquerade as a regression report.
func runCompare(oldPath, newPath string) error {
	oldDoc, err := benchsuite.ReadDoc(oldPath)
	if err != nil {
		return err
	}
	newDoc, err := benchsuite.ReadDoc(newPath)
	if err != nil {
		return err
	}
	table, warnings := benchsuite.Compare(oldDoc, newDoc)
	for _, w := range warnings {
		fmt.Printf("WARNING: %s\n", w)
	}
	if len(warnings) > 0 {
		fmt.Println()
	}
	for _, line := range table {
		fmt.Println(line)
	}
	return nil
}
