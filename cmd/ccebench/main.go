// Command ccebench load-tests a live cceserver (DESIGN.md §15): a
// reproducible mixed workload of interactive explains — with a configurable
// duplication rate, the knob that decides how much the explanation cache can
// help — optionally fanned out across follower replicas, with an async
// ExplainAll batch riding alongside. It reports throughput, latency
// percentiles, the client-observed X-RK-Cache source mix, and the
// server-side cache counter deltas, as JSON on stdout.
//
// Usage:
//
//	ccebench -targets http://127.0.0.1:8080[,http://follower:8081,...]
//	         [-duration 5s] [-concurrency 8] [-dup 0.8] [-hot 16] [-pool 256]
//	         [-warm 200] [-batch 0] [-seed 1] [-alpha 0] [-deadline-ms 0]
//	         [-no-cache] [-name serving/interactive] [-bench-json FILE]
//
// -no-cache sends no_cache on every request: the cache-bypass baseline the
// cached run is compared against. -bench-json merges the run into a
// BENCH_<date>.json baseline document (internal/benchsuite schema) as a
// serving-path record, replacing any previous record with the same name.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/xai-db/relativekeys/internal/benchsuite"
	"github.com/xai-db/relativekeys/internal/loadgen"
)

func main() {
	var (
		targets     = flag.String("targets", "http://127.0.0.1:8080", "comma-separated base URLs; the first is the primary (warm + batch), explains fan out over all")
		duration    = flag.Duration("duration", 5*time.Second, "interactive phase length")
		concurrency = flag.Int("concurrency", 8, "concurrent interactive workers")
		dup         = flag.Float64("dup", 0.8, "fraction of requests drawn from the hot set (repeated instances)")
		hot         = flag.Int("hot", 16, "distinct instances in the hot set")
		pool        = flag.Int("pool", 256, "distinct instances overall")
		warmN       = flag.Int("warm", 200, "observations posted before the run (0 = context as found)")
		batch       = flag.Int("batch", 0, "items in one async ExplainAll job submitted alongside the interactive phase (0 = none)")
		seed        = flag.Int64("seed", 1, "workload seed")
		alpha       = flag.Float64("alpha", 0, "explain alpha (0 = server default)")
		deadlineMS  = flag.Int64("deadline-ms", 0, "per-request solve deadline in ms (0 = server default)")
		noCache     = flag.Bool("no-cache", false, "bypass the cache on every request (baseline run)")
		name        = flag.String("name", "serving/interactive", "record name for -bench-json")
		benchJSON   = flag.String("bench-json", "", "merge the result into this BENCH_<date>.json baseline as a serving record")
	)
	flag.Parse()

	cfg := loadgen.Config{
		Targets:     strings.Split(*targets, ","),
		Duration:    *duration,
		Concurrency: *concurrency,
		DupRate:     *dup,
		HotSet:      *hot,
		Pool:        *pool,
		Warm:        *warmN,
		BatchItems:  *batch,
		Seed:        *seed,
		Alpha:       *alpha,
		DeadlineMS:  *deadlineMS,
		NoCache:     *noCache,
	}
	res, err := loadgen.Run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccebench:", err)
		os.Exit(1)
	}
	res.Name = *name

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "ccebench:", err)
		os.Exit(1)
	}

	if *benchJSON != "" {
		if err := merge(*benchJSON, res); err != nil {
			fmt.Fprintln(os.Stderr, "ccebench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "ccebench: merged serving record %q into %s\n", *name, *benchJSON)
	}
}

// merge upserts the run as a serving record in the baseline document,
// creating the document if the file does not exist yet.
func merge(path string, res *loadgen.Result) error {
	doc, err := benchsuite.ReadDoc(path)
	if os.IsNotExist(err) {
		doc = benchsuite.Doc{
			Date:   time.Now().Format("2006-01-02"),
			GoOS:   runtime.GOOS,
			GoArch: runtime.GOARCH,
			Procs:  runtime.GOMAXPROCS(0),
			NumCPU: runtime.NumCPU(),
		}
	} else if err != nil {
		return err
	}
	rec := benchsuite.ServingRecord{
		Name:          res.Name,
		Targets:       res.Targets,
		Concurrency:   res.Concurrency,
		DupRate:       res.DupRate,
		Requests:      res.Requests,
		Errors:        res.Errors,
		Seconds:       res.Seconds,
		Throughput:    res.Throughput,
		P50MS:         res.P50MS,
		P90MS:         res.P90MS,
		P99MS:         res.P99MS,
		MaxMS:         res.MaxMS,
		CacheHits:     res.CacheHits,
		CacheMisses:   res.CacheMisses,
		CacheBypassed: res.CacheBypassed,
		JobItems:      res.JobItems,
	}
	replaced := false
	for i := range doc.Serving {
		if doc.Serving[i].Name == rec.Name {
			doc.Serving[i] = rec
			replaced = true
			break
		}
	}
	if !replaced {
		doc.Serving = append(doc.Serving, rec)
	}
	return doc.WriteFile(path)
}
