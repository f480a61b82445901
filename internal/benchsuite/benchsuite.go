// Package benchsuite names the repository's hot-path micro-benchmarks as
// plain functions so they can run outside `go test` via testing.Benchmark —
// the seam `benchall -json` uses to emit machine-readable perf baselines
// (BENCH_<date>.json) without shelling out to the test binary.
//
// Cases here are intentionally small and deterministic: each one pins a
// single hot path (greedy solve, online observe, window advance, WAL append,
// metric increments) whose regression would matter in production, not a
// whole experiment.
package benchsuite

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/xai-db/relativekeys/internal/cce"
	"github.com/xai-db/relativekeys/internal/core"
	"github.com/xai-db/relativekeys/internal/dataset"
	"github.com/xai-db/relativekeys/internal/feature"
	"github.com/xai-db/relativekeys/internal/model"
	"github.com/xai-db/relativekeys/internal/obs"
	"github.com/xai-db/relativekeys/internal/persist"
)

// Case is one named micro-benchmark.
type Case struct {
	Name string
	Fn   func(b *testing.B)
}

// Cases returns the suite in a stable order.
func Cases() []Case {
	cases := []Case{
		{Name: "core/srk", Fn: benchSRK(1.0)},
		{Name: "core/srk_alpha09", Fn: benchSRK(0.9)},
		{Name: "core/osrk_observe", Fn: benchOSRKObserve},
		{Name: "cce/drift_observe", Fn: benchDriftObserve},
		{Name: "dataset/load_schema", Fn: benchLoadSchema},
		{Name: "persist/snapshot_load", Fn: benchSnapshotLoad},
		{Name: "core/bulk_load", Fn: benchBulkLoad},
		{Name: fmt.Sprintf("core/srk_adult/n=%d", bulkLoadRows), Fn: benchSRKAdult},
		{Name: "cce/window_advance", Fn: benchWindowAdvance},
		{Name: "persist/wal_append", Fn: benchWALAppend},
		{Name: "obs/counter_inc", Fn: benchCounterInc},
		{Name: "obs/histogram_observe", Fn: benchHistogramObserve},
		{Name: "obs/span_unsampled", Fn: benchSpanUnsampled},
	}
	cases = append(cases, lazyCases()...)
	cases = append(cases, parallelCases()...)
	cases = append(cases, replicaCases()...)
	return append(cases, servingCases()...)
}

// loanContext builds the deterministic Loan benchmark context: the test-split
// instances labeled by a trained forest, matching the repo's bench_test.go.
func loanContext(b *testing.B) (*core.Context, []feature.Labeled, *feature.Schema) {
	b.Helper()
	ds, err := dataset.Load("loan", dataset.Options{})
	if err != nil {
		b.Fatal(err)
	}
	m, err := model.TrainForest(ds.Schema, ds.Train(), model.ForestConfig{NumTrees: 11, MaxDepth: 5, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	var inference []feature.Labeled
	for _, li := range ds.Test() {
		inference = append(inference, feature.Labeled{X: li.X, Y: m.Predict(li.X)})
	}
	ctx, err := core.NewContext(ds.Schema, inference)
	if err != nil {
		b.Fatal(err)
	}
	return ctx, inference, ds.Schema
}

func benchSRK(alpha float64) func(b *testing.B) {
	return func(b *testing.B) {
		ctx, inference, _ := loanContext(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			li := inference[i%len(inference)]
			if _, err := core.SRK(ctx, li.X, li.Y, alpha); err != nil && err != core.ErrNoKey {
				b.Fatal(err)
			}
		}
	}
}

func benchOSRKObserve(b *testing.B) {
	_, inference, schema := loanContext(b)
	o, err := core.NewOSRK(schema, inference[0].X, inference[0].Y, 1.0, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.Observe(inference[i%len(inference)]); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDriftObserve feeds the loan inference stream to a full 10-member drift
// panel, cceserver's default -panel 10: one op is one arrival across the
// whole panel, the per-row cost of /observe's monitor stage. The panel
// replay at boot takes the batch path (DriftMonitor.ObserveIndex), which
// core/bulk_load times.
func benchDriftObserve(b *testing.B) {
	_, inference, schema := loanContext(b)
	d, err := cce.NewDriftMonitor(schema, 1.0, 10, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, li := range inference { // fill the panel
		if err := d.Observe(li); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Observe(inference[i%len(inference)]); err != nil {
			b.Fatal(err)
		}
	}
}

// benchLoadSchema times boot's first stage without -warm: the built-in
// adult schema from its recorded numeric ranges (dataset.LoadSchema).
func benchLoadSchema(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dataset.LoadSchema("adult"); err != nil {
			b.Fatal(err)
		}
	}
}

// bulkLoadSnapshot encodes the core/bulk_load table once per process.
var bulkLoadSnapshot = sync.OnceValues(func() ([]byte, error) {
	ds, err := bulkLoadTable()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = persist.EncodeSnapshot(&buf, ds.Schema, ds.Instances, bulkLoadRows)
	return buf.Bytes(), err
})

// benchSnapshotLoad times boot's second stage: one op reads the
// core/bulk_load table's snapshot file and decodes it, checking every code
// (persist.LoadSnapshot), into the table core/bulk_load then builds from.
func benchSnapshotLoad(b *testing.B) {
	snap, err := bulkLoadSnapshot()
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "context.snap")
	if err := os.WriteFile(path, snap, 0o600); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := persist.LoadSnapshot(path); err != nil {
			b.Fatal(err)
		}
	}
}

// bulkLoadRows is the row count of the core/bulk_load table.
const bulkLoadRows = 100_000

// bulkLoadTable draws the core/bulk_load rows once per process.
var bulkLoadTable = sync.OnceValues(func() (*dataset.Dataset, error) {
	return dataset.Load("adult", dataset.Options{Seed: 28500, Size: bulkLoadRows})
})

// benchBulkLoad times what boot recovery and snapshot install do with the
// recovered rows (service loadLocked): one op builds the context over a
// 100k-row adult table with the generator's labels (Retained.ReplaceRows,
// the column-at-a-time index build), then replays a fresh 10-member α=1
// drift panel, cceserver's default, over that index
// (DriftMonitor.ObserveIndex).
func benchBulkLoad(b *testing.B) {
	ds, err := bulkLoadTable()
	if err != nil {
		b.Fatal(err)
	}
	schema := ds.Schema
	rows := feature.NewRows(schema, len(ds.Instances))
	for _, li := range ds.Instances {
		rows.Append(li)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := core.NewRetained(schema, 0)
		if err != nil {
			b.Fatal(err)
		}
		// The context takes the table's storage, but nothing adds to it.
		if err := r.ReplaceRows(rows); err != nil {
			b.Fatal(err)
		}
		d, err := cce.NewDriftMonitor(schema, 1.0, 10, 1)
		if err != nil {
			b.Fatal(err)
		}
		if err := d.ObserveIndex(r.Context()); err != nil {
			b.Fatal(err)
		}
	}
}

// srkAdultQueries is the number of distinct instances core/srk_adult cycles.
const srkAdultQueries = 4096

// srkAdultWarm is core/srk_adult's context and queries: the core/bulk_load
// table indexed once, and srkAdultQueries distinct generator instances
// (seed 30501) with the generator's labels. Before any op is timed, every
// query is solved srkAdultWarmPasses times, so the pair-count tables the
// served engine's rent-or-buy rule would build under this traffic are built
// (DESIGN.md §11).
var srkAdultWarm = sync.OnceValues(func() (*srkAdultData, error) {
	ds, err := bulkLoadTable()
	if err != nil {
		return nil, err
	}
	ctx, err := core.NewContext(ds.Schema, ds.Instances)
	if err != nil {
		return nil, err
	}
	draw, err := dataset.Load("adult", dataset.Options{Seed: 30501, Size: 2 * srkAdultQueries})
	if err != nil {
		return nil, err
	}
	d := &srkAdultData{ctx: ctx}
	seen := map[string]bool{}
	for _, li := range draw.Instances {
		if k := fmt.Sprint(li.X); !seen[k] && len(d.queries) < srkAdultQueries {
			seen[k] = true
			d.queries = append(d.queries, li)
		}
	}
	if len(d.queries) < srkAdultQueries {
		return nil, fmt.Errorf("only %d distinct adult instances drawn, want %d", len(d.queries), srkAdultQueries)
	}
	for pass := 0; pass < srkAdultWarmPasses; pass++ {
		for _, li := range d.queries {
			if _, err := solveServed(ctx, li.X, li.Y, 1.0); err != nil && err != core.ErrNoKey {
				return nil, err
			}
		}
	}
	return d, nil
})

// srkAdultWarmPasses is the number of untimed passes over core/srk_adult's
// queries.
const srkAdultWarmPasses = 4

type srkAdultData struct {
	ctx     *core.Context
	queries []feature.Labeled
}

// benchSRKAdult times one served α=1 solve over the 100k-row core/bulk_load
// context, the benchmark's adult data at a third of its size, cycling
// srkAdultQueries distinct instances.
func benchSRKAdult(b *testing.B) {
	d, err := srkAdultWarm()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		li := d.queries[i%len(d.queries)]
		if _, err := solveServed(d.ctx, li.X, li.Y, 1.0); err != nil && err != core.ErrNoKey {
			b.Fatal(err)
		}
	}
}

func benchWindowAdvance(b *testing.B) {
	_, inference, schema := loanContext(b)
	w, err := cce.NewWindow(schema, 128, 16, 1.0, cce.LastWins)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Observe(inference[i%len(inference)]); err != nil {
			b.Fatal(err)
		}
	}
}

// nopSync satisfies persist.WriteSyncer over any writer; the benchmark pins
// the append path (marshal + checksum + single write), not disk behaviour.
type nopSync struct{ io.Writer }

func (nopSync) Sync() error { return nil }

func benchWALAppend(b *testing.B) {
	_, inference, _ := loanContext(b)
	w := persist.NewWAL(nopSync{io.Discard})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Append(uint64(i)+1, inference[i%len(inference)]); err != nil {
			b.Fatal(err)
		}
	}
}

func benchCounterInc(b *testing.B) {
	c := obs.NewRegistry().NewCounter("rk_benchsuite_total", "bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func benchHistogramObserve(b *testing.B) {
	h := obs.NewRegistry().NewHistogram("rk_benchsuite_seconds", "bench", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(0.00042)
	}
}

func benchSpanUnsampled(b *testing.B) {
	ctx := context.Background() //rkvet:ignore ctxflow the benchmark measures the unsampled-span fast path; the fresh root is the fixture, there is no caller deadline
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := obs.StartSpan(ctx, "bench")
		sp.End()
	}
}
