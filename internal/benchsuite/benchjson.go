package benchsuite

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Machine-readable perf baselines (BENCH_<date>.json). The schema lives here,
// next to the cases that produce it, so `benchall -json`, `benchall -compare`,
// and any future tooling agree on one definition.
//
// Baselines are only comparable between like machines, so the document
// records the host's num_cpu, gomaxprocs and architecture, and Compare
// refuses to stay silent when the hosts differ.

// Record is one suite result in the JSON baseline.
type Record struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// Doc is one benchmark baseline document.
type Doc struct {
	Date   string `json:"date"`
	GoOS   string `json:"goos"`
	GoArch string `json:"goarch,omitempty"`
	Procs  int    `json:"gomaxprocs"`
	NumCPU int    `json:"num_cpu"`
	Smoke  bool   `json:"smoke,omitempty"`
	// GateSkips records, in the gate's output document, why any gate rule was
	// skipped (host mismatch, smoke mode) — so a green CI run whose timing
	// gate never actually applied says so in the artifact, not only in a log
	// line that scrolled away.
	GateSkips []string `json:"gate_skip_reasons,omitempty"`
	Results   []Record `json:"results"`
	// Serving holds end-to-end serving-path results recorded by cmd/ccebench
	// against a live cceserver — throughput and latency percentiles, not
	// ns/op micro-timings.
	Serving []ServingRecord `json:"serving,omitempty"`
}

// ServingRecord is one ccebench run: request-plane throughput and latency
// against a live server, alongside the cache counters that explain them.
type ServingRecord struct {
	Name        string  `json:"name"`
	Targets     int     `json:"targets"`
	Concurrency int     `json:"concurrency"`
	DupRate     float64 `json:"dup_rate"`
	Requests    int64   `json:"requests"`
	Errors      int64   `json:"errors,omitempty"`
	Seconds     float64 `json:"seconds"`
	Throughput  float64 `json:"req_per_sec"`
	P50MS       float64 `json:"p50_ms"`
	P90MS       float64 `json:"p90_ms"`
	P99MS       float64 `json:"p99_ms"`
	MaxMS       float64 `json:"max_ms"`

	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	CacheCoalesced int64 `json:"cache_coalesced"`
	CacheBypassed  int64 `json:"cache_bypassed"`
	JobItems       int64 `json:"job_items,omitempty"`
}

// Arch reports the document's recorded architecture, falling back to the arch
// half of a combined "goos/goarch" GoOS string (the format RunSuite wrote
// before goarch had its own field); "" = unknown.
func (d Doc) Arch() string {
	if d.GoArch != "" {
		return d.GoArch
	}
	if _, arch, ok := strings.Cut(d.GoOS, "/"); ok {
		return arch
	}
	return ""
}

// RunSuite runs every case under testing.Benchmark and returns the baseline
// document for this host, echoing one human-readable line per case to
// progress (pass io.Discard to silence). Smoke marks a single-iteration
// pipeline check whose timings are meaningless; callers arrange the short
// benchtime themselves (see benchall -smoke) — RunSuite only records the flag
// so a smoke file can never be mistaken for a baseline.
func RunSuite(progress io.Writer, smoke bool) Doc {
	doc := Doc{
		Date:   time.Now().Format("2006-01-02"),
		GoOS:   runtime.GOOS,
		GoArch: runtime.GOARCH,
		Procs:  runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(),
		Smoke:  smoke,
	}
	for _, c := range Cases() {
		r := testing.Benchmark(c.Fn)
		rec := Record{
			Name:        c.Name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		fmt.Fprintf(progress, "%-28s %12.1f ns/op %8d B/op %6d allocs/op\n",
			rec.Name, rec.NsPerOp, rec.BytesPerOp, rec.AllocsPerOp)
		doc.Results = append(doc.Results, rec)
	}
	return doc
}

// WriteFile writes the document as indented JSON to path.
func (d Doc) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&d); err != nil {
		f.Close() //rkvet:ignore dropperr encode already failed; surface that error
		return err
	}
	return f.Close()
}

// ReadDoc loads a baseline document. Documents written before num_cpu was
// recorded load with NumCPU == 0, which Compare reports as an unknown host.
func ReadDoc(path string) (Doc, error) {
	var d Doc
	data, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(data, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// Compare renders a per-case delta table between two baselines and the
// warnings that qualify it: differing or unknown CPU counts, differing
// GOMAXPROCS or architectures, and smoke documents. The ratio column is
// new/old ns/op — below 1.0 is a speedup.
func Compare(old, new Doc) (table []string, warnings []string) {
	if old.Smoke || new.Smoke {
		warnings = append(warnings, "comparing smoke-mode results: timings are single-iteration noise")
	}
	switch {
	case old.NumCPU == 0 || new.NumCPU == 0:
		warnings = append(warnings, "CPU count unknown on one side (file predates num_cpu): timings may not be comparable")
	case old.NumCPU != new.NumCPU:
		warnings = append(warnings, fmt.Sprintf("CPU counts differ (%d vs %d): parallel timings are not comparable", old.NumCPU, new.NumCPU))
	}
	if old.Procs != new.Procs {
		warnings = append(warnings, fmt.Sprintf("GOMAXPROCS differs (%d vs %d): parallel timings are not comparable", old.Procs, new.Procs))
	}
	switch oa, na := old.Arch(), new.Arch(); {
	case oa == "" || na == "":
		warnings = append(warnings, "architecture unknown on one side (file predates goarch): timings may not be comparable")
	case oa != na:
		warnings = append(warnings, fmt.Sprintf("architectures differ (%s vs %s): timings are not comparable", oa, na))
	}
	prev := make(map[string]Record, len(old.Results))
	for _, r := range old.Results {
		prev[r.Name] = r
	}
	seen := make(map[string]bool, len(new.Results))
	for _, r := range new.Results {
		seen[r.Name] = true
		o, ok := prev[r.Name]
		if !ok {
			table = append(table, fmt.Sprintf("%-28s %12.1f ns/op %6d allocs/op  (new case)", r.Name, r.NsPerOp, r.AllocsPerOp))
			continue
		}
		ratio := 0.0
		if o.NsPerOp > 0 {
			ratio = r.NsPerOp / o.NsPerOp
		}
		table = append(table, fmt.Sprintf("%-28s %12.1f -> %12.1f ns/op  x%.2f  allocs %d -> %d",
			r.Name, o.NsPerOp, r.NsPerOp, ratio, o.AllocsPerOp, r.AllocsPerOp))
	}
	for _, r := range old.Results {
		if !seen[r.Name] {
			table = append(table, fmt.Sprintf("%-28s (case removed)", r.Name))
		}
	}
	return table, warnings
}

// gatedCase reports whether a case's ns/op is under the timing gate: the
// srk_lazy cases (the served solve engine) and the service/ serving-path
// cases (the request plane the solver sits behind).
func gatedCase(name string) bool {
	return strings.Contains(name, "srk_lazy") || strings.HasPrefix(name, "service/")
}

// GateNsRatio is the regression threshold on the srk_lazy timing gate:
// new ns/op above old × 1.25 fails. Wide enough to ride out scheduler noise
// on a busy CI box, tight enough to catch an accidental O(F) → O(F·rounds)
// slip in the hot loop.
const GateNsRatio = 1.25

// Gate applies the CI perf gate between a committed baseline and a freshly
// recorded document:
//
//   - every srk_lazy case (the production solve path) and every service/ case
//     (the serving path in front of it) fails on a >25% ns/op regression;
//   - every case present in both documents fails on ANY allocs/op increase —
//     the pool discipline means steady-state allocation counts are exact, so
//     one extra alloc is a real leak into the hot path, not noise.
//
// Timings are only comparable between like hosts: when the CPU counts or
// GOMAXPROCS differ (or are unknown), or either document is a smoke run, the
// ns/op gate is skipped with a warning instead of failing spuriously — but
// the allocation gate still applies on non-smoke pairs, because allocs/op is
// host-independent. Smoke documents skip the allocation gate too: a single
// iteration charges the pools' cold-start allocations to the one op.
func Gate(old, new Doc) (failures, warnings []string) {
	hostMatch := true
	switch {
	case old.Smoke || new.Smoke:
		warnings = append(warnings, "gate skipped: smoke-mode document (single-iteration timings and cold-pool allocs are not gateable)")
		return nil, warnings
	case old.NumCPU == 0 || new.NumCPU == 0:
		hostMatch = false
		warnings = append(warnings, "ns/op gate skipped: CPU count unknown on one side")
	case old.NumCPU != new.NumCPU:
		hostMatch = false
		warnings = append(warnings, fmt.Sprintf("ns/op gate skipped: CPU counts differ (%d vs %d)", old.NumCPU, new.NumCPU))
	case old.Procs != new.Procs:
		hostMatch = false
		warnings = append(warnings, fmt.Sprintf("ns/op gate skipped: GOMAXPROCS differs (%d vs %d)", old.Procs, new.Procs))
	case old.Arch() == "" || new.Arch() == "":
		hostMatch = false
		warnings = append(warnings, "ns/op gate skipped: architecture unknown on one side")
	case old.Arch() != new.Arch():
		hostMatch = false
		warnings = append(warnings, fmt.Sprintf("ns/op gate skipped: architectures differ (%s vs %s)", old.Arch(), new.Arch()))
	}
	prev := make(map[string]Record, len(old.Results))
	for _, r := range old.Results {
		prev[r.Name] = r
	}
	for _, r := range new.Results {
		o, ok := prev[r.Name]
		if !ok {
			continue // new case: nothing to gate against
		}
		if hostMatch && gatedCase(r.Name) && o.NsPerOp > 0 && r.NsPerOp > o.NsPerOp*GateNsRatio {
			failures = append(failures, fmt.Sprintf("%s: %.1f -> %.1f ns/op (x%.2f exceeds the x%.2f gate)",
				r.Name, o.NsPerOp, r.NsPerOp, r.NsPerOp/o.NsPerOp, GateNsRatio))
		}
		if r.AllocsPerOp > o.AllocsPerOp {
			failures = append(failures, fmt.Sprintf("%s: allocs/op rose %d -> %d (any increase fails: steady-state allocation is pooled and exact)",
				r.Name, o.AllocsPerOp, r.AllocsPerOp))
		}
	}
	return failures, warnings
}
