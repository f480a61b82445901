package experiments

import (
	"errors"
	"math"
	"testing"
	"time"

	"github.com/xai-db/relativekeys/internal/feature"
	"github.com/xai-db/relativekeys/internal/metrics"
)

// TestTimedRun: a method's time is its fastest pass plus its setup, spread
// over the explained instances; its explanations are the first pass's; a
// pass that spends the whole budget is not repeated; and a failing pass
// fails the run.
func TestTimedRun(t *testing.T) {
	t.Run("fastest_pass", func(t *testing.T) {
		var spans [][2]time.Time // each pass's entry and exit
		pass := func() ([]metrics.Explained, error) {
			in := time.Now()
			if len(spans) == 0 {
				time.Sleep(20 * time.Millisecond) // as a preempted pass would
			}
			spans = append(spans, [2]time.Time{in, time.Now()})
			return []metrics.Explained{{Y: feature.Label(len(spans))}}, nil
		}
		const setup, n = 10 * time.Millisecond, 2
		before := time.Now()
		run, err := timedRun("M", setup, n, pass)
		after := time.Now()
		if err != nil {
			t.Fatal(err)
		}
		if len(spans) < 1 || len(spans) > timingPasses {
			t.Fatalf("%d passes, want 1..%d", len(spans), timingPasses)
		}
		if run.Method != "M" || len(run.Explained) != 1 || run.Explained[0].Y != 1 {
			t.Fatalf("run %+v, want method M with the first pass's explanations", run)
		}
		// timedRun times each pass over no less than the pass's own span and
		// no more than from the previous pass's exit (or the call) to the
		// next pass's entry (or the return), so the fastest pass's time lies
		// between the least of each bound.
		lo, hi := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
		for i, s := range spans {
			start, end := before, after
			if i > 0 {
				start = spans[i-1][1]
			}
			if i+1 < len(spans) {
				end = spans[i+1][0]
			}
			lo, hi = min(lo, s[1].Sub(s[0])), min(hi, end.Sub(start))
		}
		got := time.Duration(run.AvgMillis*n*float64(time.Millisecond)) - setup
		if got < lo-time.Microsecond || got > hi+time.Microsecond {
			t.Fatalf("fastest pass read as %v, want within [%v, %v] (%d passes)", got, lo, hi, len(spans))
		}
	})
	t.Run("slow_pass_timed_once", func(t *testing.T) {
		calls := 0
		run, err := timedRun("M", 0, 1, func() ([]metrics.Explained, error) {
			calls++
			time.Sleep(timingBudget)
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if calls != 1 {
			t.Fatalf("a pass as long as the budget ran %d times, want once", calls)
		}
		if want := float64(timingBudget) / float64(time.Millisecond); run.AvgMillis < want {
			t.Fatalf("%.3f ms per instance, want at least the pass's %.0f ms", run.AvgMillis, want)
		}
	})
	t.Run("failing_pass", func(t *testing.T) {
		boom := errors.New("boom")
		run, err := timedRun("M", 0, 1, func() ([]metrics.Explained, error) {
			return nil, boom
		})
		if !errors.Is(err, boom) || run != nil {
			t.Fatalf("run %v, err %v; want no run and the pass's error", run, err)
		}
	})
}
