package obs

import (
	"context"
	"testing"
	"time"
)

// The acceptance bar (ISSUE 4): an enabled or disabled counter increment
// costs < 20 ns/op and zero allocations, so instrumentation can sit directly
// on the SRK/WAL hot paths.

func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.NewCounter("rk_bench_total", "bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncDisabled(b *testing.B) {
	var c *Counter // disabled instrumentation is a nil pointer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncParallel(b *testing.B) {
	r := NewRegistry()
	c := r.NewCounter("rk_bench_par_total", "bench")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkGaugeAdd(b *testing.B) {
	r := NewRegistry()
	g := r.NewGauge("rk_bench_gauge", "bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Add(1)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.NewHistogram("rk_bench_seconds", "bench", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(0.00042)
	}
}

func BenchmarkHistogramObserveDisabled(b *testing.B) {
	var h *Histogram
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(0.00042)
	}
}

func BenchmarkHistogramObserveSince(b *testing.B) {
	r := NewRegistry()
	h := r.NewHistogram("rk_bench_since_seconds", "bench", nil)
	start := time.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ObserveSince(start)
	}
}

func BenchmarkStartSpanUnsampled(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := StartSpan(ctx, "bench")
		sp.End()
	}
}
