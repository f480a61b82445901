package obs

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/xai-db/relativekeys/internal/sortedkeys"
)

// --- Counter ---

// Counter is a monotonically increasing integer metric. Increments are a
// single atomic add — no locks, no allocation — so counters may sit on the
// solver and WAL hot paths. All methods are no-ops on a nil *Counter, which
// is how instrumentation is disabled.
type Counter struct {
	desc
	pairs string // pre-rendered label pairs; "" for a plain counter
	v     atomic.Int64
}

// NewCounter registers a counter in the registry. Counter names end in
// _total by convention.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{desc: desc{name: name, help: help}}
	r.register(c)
	return c
}

// NewCounter registers a counter in the Default registry.
func NewCounter(name, help string) *Counter { return Default.NewCounter(name, help) }

// Inc adds 1.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n (n must be ≥ 0; counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value reads the current total.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

func (c *Counter) metricType() string { return "counter" }

func (c *Counter) expose(buf *bytes.Buffer) {
	seriesLine(buf, c.name, c.pairs, strconv.FormatInt(c.v.Load(), 10))
}

// --- CounterVec ---

// CounterVec is a counter family partitioned by a fixed set of label names.
// Resolve children once (at init, ideally) with With; the child is a plain
// Counter, so the increment path pays nothing for the labels.
type CounterVec struct {
	desc
	labels   []string
	mu       sync.RWMutex
	children map[string]*Counter // guarded by mu; key = joined label values
}

// NewCounterVec registers a labelled counter family.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	v := &CounterVec{desc: desc{name: name, help: help}, labels: checkLabels(name, labels), children: map[string]*Counter{}}
	r.register(v)
	return v
}

// NewCounterVec registers a labelled counter family in the Default registry.
func NewCounterVec(name, help string, labels ...string) *CounterVec {
	return Default.NewCounterVec(name, help, labels...)
}

// With returns (creating on first use) the child counter for the given label
// values, which must match the declared label names positionally.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	key := childKey(v.name, v.labels, values)
	v.mu.RLock()
	c := v.children[key]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c := v.children[key]; c != nil {
		return c
	}
	c = &Counter{desc: v.desc, pairs: labelPairs(v.labels, values)}
	v.children[key] = c
	return c
}

func (v *CounterVec) metricType() string { return "counter" }

func (v *CounterVec) expose(buf *bytes.Buffer) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	for _, k := range sortedkeys.Of(v.children) {
		v.children[k].expose(buf)
	}
}

// --- Gauge ---

// Gauge is an integer value that can go up and down (in-flight requests,
// queue depths). Nil gauges are no-ops.
type Gauge struct {
	desc
	pairs string
	v     atomic.Int64
}

// NewGauge registers a gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{desc: desc{name: name, help: help}}
	r.register(g)
	return g
}

// NewGauge registers a gauge in the Default registry.
func NewGauge(name, help string) *Gauge { return Default.NewGauge(name, help) }

// Inc adds 1.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.Add(-1) }

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value reads the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

func (g *Gauge) metricType() string { return "gauge" }

func (g *Gauge) expose(buf *bytes.Buffer) {
	seriesLine(buf, g.name, g.pairs, strconv.FormatInt(g.v.Load(), 10))
}

// --- GaugeFunc ---

// GaugeFunc is a gauge sampled at scrape time from a callback — the fit for
// values the owning struct already maintains under its own lock (context
// size, cache occupancy). fn must be safe to call from the scrape goroutine.
type GaugeFunc struct {
	desc
	fn func() float64
}

// NewGaugeFunc registers a callback-backed gauge.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) *GaugeFunc {
	g := &GaugeFunc{desc: desc{name: name, help: help}, fn: fn}
	r.register(g)
	return g
}

// NewGaugeFunc registers a callback-backed gauge in the Default registry.
func NewGaugeFunc(name, help string, fn func() float64) *GaugeFunc {
	return Default.NewGaugeFunc(name, help, fn)
}

func (g *GaugeFunc) metricType() string { return "gauge" }

func (g *GaugeFunc) expose(buf *bytes.Buffer) {
	seriesLine(buf, g.name, "", formatFloat(g.fn()))
}

// --- Histogram ---

// DefBuckets are the default latency buckets in seconds: 10 µs to 10 s,
// roughly logarithmic — wide enough for both a sub-millisecond SRK solve and
// a stalled fsync.
var DefBuckets = []float64{
	1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// SizeBuckets are byte-size buckets (64 B to 16 MiB) for payload histograms.
var SizeBuckets = []float64{
	64, 256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304, 16777216,
}

// Histogram is a fixed-bucket histogram with lock-free observations: one
// binary search over the (small, immutable) bound array, two atomic adds and
// one CAS loop for the float sum. Nil histograms are no-ops.
type Histogram struct {
	desc
	pairs  string
	bounds []float64      // immutable upper bounds, ascending
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, updated by CAS
}

func newHistogram(d desc, pairs string, buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	if !sort.Float64sAreSorted(buckets) {
		panic(fmt.Sprintf("obs: histogram %q buckets are not ascending", d.name))
	}
	bounds := append([]float64(nil), buckets...)
	return &Histogram{desc: d, pairs: pairs, bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// NewHistogram registers a histogram with the given bucket upper bounds
// (nil = DefBuckets). Histogram names end in a unit suffix (_seconds,
// _bytes) by convention.
func (r *Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	h := newHistogram(desc{name: name, help: help}, "", buckets)
	r.register(h)
	return h
}

// NewHistogram registers a histogram in the Default registry.
func NewHistogram(name, help string, buckets []float64) *Histogram {
	return Default.NewHistogram(name, help, buckets)
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// SearchFloat64s returns the smallest i with bounds[i] >= v — exactly the
	// first bucket whose inclusive upper bound `le` admits v.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since start — the idiom for
// latency histograms: start := time.Now(); defer h.ObserveSince(start).
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(start).Seconds())
}

// Count reads the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reads the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

func (h *Histogram) metricType() string { return "histogram" }

func (h *Histogram) expose(buf *bytes.Buffer) {
	cum := int64(0)
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatFloat(h.bounds[i])
		}
		pairs := `le="` + le + `"`
		if h.pairs != "" {
			pairs = h.pairs + "," + pairs
		}
		seriesLine(buf, h.name+"_bucket", pairs, strconv.FormatInt(cum, 10))
	}
	seriesLine(buf, h.name+"_sum", h.pairs, formatFloat(h.Sum()))
	seriesLine(buf, h.name+"_count", h.pairs, strconv.FormatInt(h.count.Load(), 10))
}

// --- HistogramVec ---

// HistogramVec is a histogram family partitioned by label names; children
// share the bucket layout. Resolve children once with With.
type HistogramVec struct {
	desc
	labels   []string
	buckets  []float64
	mu       sync.RWMutex
	children map[string]*Histogram // guarded by mu
}

// NewHistogramVec registers a labelled histogram family (nil buckets =
// DefBuckets).
func (r *Registry) NewHistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	v := &HistogramVec{
		desc:     desc{name: name, help: help},
		labels:   checkLabels(name, labels),
		buckets:  buckets,
		children: map[string]*Histogram{},
	}
	r.register(v)
	return v
}

// NewHistogramVec registers a labelled histogram family in the Default
// registry.
func NewHistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return Default.NewHistogramVec(name, help, buckets, labels...)
}

// With returns (creating on first use) the child histogram for the given
// label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	key := childKey(v.name, v.labels, values)
	v.mu.RLock()
	h := v.children[key]
	v.mu.RUnlock()
	if h != nil {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h := v.children[key]; h != nil {
		return h
	}
	h = newHistogram(v.desc, labelPairs(v.labels, values), v.buckets)
	v.children[key] = h
	return h
}

func (v *HistogramVec) metricType() string { return "histogram" }

func (v *HistogramVec) expose(buf *bytes.Buffer) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	for _, k := range sortedkeys.Of(v.children) {
		v.children[k].expose(buf)
	}
}

// --- shared helpers ---

// checkLabels validates label names at registration time.
func checkLabels(metric string, labels []string) []string {
	if len(labels) == 0 {
		panic(fmt.Sprintf("obs: vec metric %q declared without labels", metric))
	}
	for _, l := range labels {
		if !validLabelName(l) {
			panic(fmt.Sprintf("obs: metric %q has invalid label name %q", metric, l))
		}
	}
	return append([]string(nil), labels...)
}

// childKey joins label values into a map key, panicking on arity mismatch
// (a positional-values API error is a bug, not an input).
func childKey(metric string, labels, values []string) string {
	if len(values) != len(labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", metric, len(labels), len(values)))
	}
	var b bytes.Buffer
	for _, v := range values {
		b.WriteString(v)
		b.WriteByte('\xff') // never appears in label values
	}
	return b.String()
}

// formatFloat renders a float the shortest way that round-trips, matching
// the exposition format's expectations ("+Inf" handled by callers).
func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}
