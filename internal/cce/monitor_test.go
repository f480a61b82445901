package cce

import (
	"runtime"
	"testing"

	"github.com/xai-db/relativekeys/internal/feature"
)

// An arrival the schema rejects — here a prediction outside the label space —
// must not enroll a panel member or touch any existing one: the monitor's
// history afterwards matches one that never saw the row.
func TestDriftMonitorRejectedArrivalLeavesPanelUntouched(t *testing.T) {
	s := testSchema(t)
	rows := []feature.Labeled{
		{X: feature.Instance{0, 0, 0, 0}, Y: 0},
		{X: feature.Instance{1, 0, 1, 0}, Y: 1},
		{X: feature.Instance{0, 1, 2, 1}, Y: 1},
	}
	clean, err := NewDriftMonitor(s, 1.0, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	dirty, err := NewDriftMonitor(s, 1.0, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	bad := []feature.Labeled{
		{X: feature.Instance{0, 0, 0, 0}, Y: 5},
		{X: feature.Instance{0, 0, 0, 0}, Y: -1},
		{X: feature.Instance{0, 0, 9, 0}, Y: 0},
	}
	for _, li := range bad {
		if err := dirty.Observe(li); err == nil {
			t.Fatalf("arrival %v accepted", li)
		}
	}
	for i, li := range rows {
		if err := clean.Observe(li); err != nil {
			t.Fatal(err)
		}
		if err := dirty.Observe(li); err != nil {
			t.Fatal(err)
		}
		// Rejections after enrollment must leave every member untouched too.
		if err := dirty.Observe(bad[i%len(bad)]); err == nil {
			t.Fatalf("arrival %v accepted", bad[i%len(bad)])
		}
	}
	want, got := clean.History(), dirty.History()
	if len(got) != len(want) {
		t.Fatalf("history %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] { //rkvet:ignore floateq both histories come from the same integer sums; any difference is a bug
			t.Fatalf("history %v, want %v", got, want)
		}
	}
	if dirty.Arrivals() != len(rows) {
		t.Fatalf("arrivals = %d, want %d", dirty.Arrivals(), len(rows))
	}
}

// Once the panel is full, feeding an arrival must not allocate: members
// report their key size without copying the key, and no member indexes the
// stream. Only the history append allocates, amortized to zero per arrival.
func TestDriftMonitorObserveAllocFree(t *testing.T) {
	stream, schema := goldenStream(t, 20000)
	d, err := NewDriftMonitor(schema, 1.0, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Warm up: fill the panel and let the keys settle.
	const warm = 10000
	for _, li := range stream[:warm] {
		if err := d.Observe(li); err != nil {
			t.Fatal(err)
		}
	}
	next := warm
	allocs := testing.AllocsPerRun(5000, func() {
		if err := d.Observe(stream[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if allocs != 0 {
		t.Fatalf("DriftMonitor.Observe allocates %v times per arrival, want 0", allocs)
	}
}

// The panel keeps |I_t|, p_t and the violators per member — not a copy of
// the stream — so 100k arrivals through a 10-member panel retain little more
// than the one-float-per-arrival history (0.8 MB).
func TestDriftMonitorRetainedHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("feeds 100k rows")
	}
	stream, schema := goldenStream(t, 100000)
	heapAlloc := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heapAlloc()
	d, err := NewDriftMonitor(schema, 1.0, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, li := range stream {
		if err := d.Observe(li); err != nil {
			t.Fatal(err)
		}
	}
	after := heapAlloc()
	runtime.KeepAlive(d)
	runtime.KeepAlive(stream)
	const limit = 8 << 20
	t.Logf("heap growth after %d arrivals: %d bytes", len(stream), int64(after)-int64(before))
	if after > before && after-before > limit {
		t.Fatalf("panel retains %.1f MiB after %d arrivals, want < %d MiB",
			float64(after-before)/(1<<20), len(stream), limit>>20)
	}
}
