package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// percentile is the nearest-rank p-quantile of an ascending slice: the
// smallest sample with at least ⌈p·n⌉ samples at or below it. It is 0 for an
// empty slice, which the per-layer metrics read as "not exercised here".
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	// The epsilon keeps p·n from rounding up past an exact integer rank
	// (0.07·100 is 7.000000000000001 in binary floating point).
	rank := int(math.Ceil(p*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// quantile sorts a copy of xs and reads its nearest-rank p-quantile.
func quantile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, p)
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// dueLatency is an open-loop latency: from the time the request was due, not
// the time it was sent, so a stall counts against every request it delayed.
func dueLatency(start time.Time, due time.Duration, done time.Time) time.Duration {
	return done.Sub(start.Add(due))
}

// sliceLen is the length of the slices of the timed window the end-to-end
// figures are read from.
const sliceLen = time.Second

// figures are the end-to-end readings of one run.
type figures struct {
	p50, rate float64
}

// windowSlices is how many slices of sliceLen the window holds, and their
// exact length.
func windowSlices(window time.Duration) (int, time.Duration) {
	n := max(int(window/sliceLen), 1)
	return n, window / time.Duration(n)
}

// sliceFigures splits the timed window into slices of sliceLen by when each
// sample was answered and returns the medians, across slices, of each
// slice's p50 and answers per second. A snapshot stall then moves a slice or
// two rather than the run's figure. steal holds the host's CPU steal during
// each slice (nil when unknown); only slices with at most the median slice's
// steal count, since time the hypervisor gives other guests is no property of
// the program, and on a shared 2-vCPU host it halved hot throughput for
// minutes at a time.
func sliceFigures(samples []sample, start time.Time, window time.Duration, steal []float64) figures {
	n, w := windowSlices(window)
	slices := make([][]float64, n)
	for _, s := range samples {
		i := min(max(int(s.rep.done.Sub(start)/w), 0), n-1)
		slices[i] = append(slices[i], ms(s.lat))
	}
	limit := math.Inf(1)
	if len(steal) == n {
		limit = quantile(steal, 0.50)
	}
	var parts []figures
	for i, sl := range slices {
		if len(sl) > 0 && (len(steal) != n || steal[i] <= limit) {
			parts = append(parts, figures{p50: quantile(sl, 0.50), rate: float64(len(sl)) / w.Seconds()})
		}
	}
	return medianFigures(parts)
}

// stealTicks reads the host's cumulative CPU steal, in clock ticks, from the
// aggregate cpu line of /proc/stat.
func stealTicks() (float64, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, false
	}
	v, err := strconv.ParseFloat(f[8], 64)
	return v, err == nil
}

// sampleSteal reads the host's CPU steal at each slice boundary of the window
// opening at start and sends each slice's steal once the window has closed;
// it sends nil when /proc/stat has no steal counter.
func sampleSteal(start time.Time, window time.Duration) <-chan []float64 {
	out := make(chan []float64, 1)
	go func() {
		n, w := windowSlices(window)
		prev, ok := stealTicks()
		steal := make([]float64, n)
		for i := 0; ok && i < n; i++ {
			time.Sleep(time.Until(start.Add(time.Duration(i+1) * w)))
			var cur float64
			cur, ok = stealTicks()
			steal[i], prev = cur-prev, cur
		}
		if !ok {
			steal = nil
		}
		out <- steal
	}()
	return out
}

// medianFigures takes the median of each figure across parts.
func medianFigures(parts []figures) figures {
	var p50s, rates []float64
	for _, f := range parts {
		p50s, rates = append(p50s, f.p50), append(rates, f.rate)
	}
	return figures{p50: quantile(p50s, 0.50), rate: quantile(rates, 0.50)}
}

// latencies lists the samples' latencies in milliseconds.
func latencies(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = ms(s.lat)
	}
	return out
}
