package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"github.com/xai-db/relativekeys/internal/core"
	"github.com/xai-db/relativekeys/internal/dataset"
	"github.com/xai-db/relativekeys/internal/feature"
	"github.com/xai-db/relativekeys/internal/model"
	"github.com/xai-db/relativekeys/internal/persist"
)

// streams renders every request stream of in, the open-loop schedule
// included, as the bytes a run would send.
func streams(t *testing.T, seed int64, in *inputs) [][]byte {
	t.Helper()
	r := renderer{schema: in.schema}
	hot, distinct, observes := r.reqs(in.hot), r.reqs(in.distinct), r.reqs(in.observes)
	var out [][]byte
	for _, q := range append(append(append([]req(nil), hot...), distinct...), observes...) {
		out = append(out, q.body)
	}
	ops, err := mixedSchedule(seed, hot, distinct, observes, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range ops {
		out = append(out, []byte(o.at.String()), o.body)
	}
	return out
}

func snapshotBytes(t *testing.T, in *inputs) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := persist.EncodeSnapshot(&b, in.schema, in.rows, contextRows); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func TestSameSeedSameInputs(t *testing.T) {
	a, err := generate(7, hotSetSize, 300, 2*observeRate)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generate(7, hotSetSize, 300, 2*observeRate)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapshotBytes(t, a), snapshotBytes(t, b)) {
		t.Fatal("one seed produced two different snapshots")
	}
	sa, sb := streams(t, 7, a), streams(t, 7, b)
	if len(sa) != len(sb) {
		t.Fatalf("one seed produced request streams of %d and %d entries", len(sa), len(sb))
	}
	for i := range sa {
		if !bytes.Equal(sa[i], sb[i]) {
			t.Fatalf("request stream entry %d differs: %s vs %s", i, sa[i], sb[i])
		}
	}
	c, err := generate(8, hotSetSize, 300, 2*observeRate)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(snapshotBytes(t, a), snapshotBytes(t, c)) {
		t.Fatal("two seeds produced the same snapshot")
	}
}

func TestColdStreamNeverRepeats(t *testing.T) {
	in, err := generate(11, hotSetSize, 4000, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, li := range in.hot {
		seen[instanceKey(li.X)] = true
	}
	r := renderer{schema: in.schema}
	n := 0
	for _, s := range coldStreams(r.reqs(in.distinct), clients) {
		for _, q := range s {
			k := instanceKey(q.li.X)
			if seen[k] {
				t.Fatalf("instance %v repeats", q.li.X)
			}
			seen[k] = true
			n++
		}
	}
	if n != 4000 {
		t.Fatalf("cold streams hold %d instances, want 4000", n)
	}
}

// TestColdStreamOutlastsFasterServer sizes a real 10 s cold run and checks
// that each client's distinct stream outlasts five times the fastest cold
// rate measured so far (2424 explains per second on a 2-vCPU host, with two
// clients), so a much faster server is measured instead of running out of
// instances.
func TestColdStreamOutlastsFasterServer(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a full-size cold stream")
	}
	const window, measured = 10 * time.Second, 2424
	hotN, distinctN, _, err := streamSizes(wlCold, window)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	in, err := generate(3, hotN, distinctN, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("generated %d distinct instances in %v", len(in.distinct), time.Since(start))
	r := renderer{schema: in.schema}
	n := closedClients(wlCold)
	need := 5 * measured * int(window.Seconds()) / n
	for k, s := range coldStreams(r.reqs(in.distinct[clients*warmPerClient:]), n) {
		if len(s) < need {
			t.Errorf("client %d has %d distinct instances, a run at 5x the measured rate needs %d", k, len(s), need)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{
		{0.001, 1}, {0.01, 1}, {0.07, 7}, {0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100},
	} {
		if got := quantile(xs, c.p); got != c.want {
			t.Errorf("p%v of 1..100 = %v, want %v", c.p*100, got, c.want)
		}
	}
	if got := quantile([]float64{3, 1, 2}, 0.5); got != 2 {
		t.Errorf("median of {3,1,2} = %v, want 2", got)
	}
	if got := quantile([]float64{4}, 0.99); got != 4 {
		t.Errorf("p99 of {4} = %v, want 4", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
}

func TestLatencyFromDueTime(t *testing.T) {
	start := time.Unix(1000, 0)
	// Due at +10ms, held back by a stall until +20ms, answered at +25ms: the
	// stall counts, so the latency is 15ms, not the 5ms since sending.
	if got := dueLatency(start, 10*time.Millisecond, start.Add(25*time.Millisecond)); got != 15*time.Millisecond {
		t.Fatalf("latency from due time = %v, want 15ms", got)
	}
}

func TestSliceFiguresDropStolenSlices(t *testing.T) {
	start := time.Unix(1000, 0)
	var samples []sample
	add := func(slice, n int, lat time.Duration) {
		for i := 0; i < n; i++ {
			done := start.Add(time.Duration(slice)*time.Second + 500*time.Millisecond)
			samples = append(samples, sample{rep: reply{done: done}, lat: lat})
		}
	}
	// Two quick slices, then three slowed by host steal.
	add(0, 4, 1*time.Millisecond)
	add(1, 4, 2*time.Millisecond)
	for s := 2; s < 5; s++ {
		add(s, 1, 9*time.Millisecond)
	}
	window := 5 * time.Second
	if got := sliceFigures(samples, start, window, nil); got != (figures{p50: 9, rate: 1}) {
		t.Errorf("without steal readings = %+v, want the median of every slice {9 1}", got)
	}
	// The median slice steal is 30 ticks: slices 3 and 4 stole more and drop.
	if got := sliceFigures(samples, start, window, []float64{0, 0, 30, 40, 50}); got != (figures{p50: 2, rate: 4}) {
		t.Errorf("with steal readings = %+v, want the median of slices 0-2 {2 4}", got)
	}
}

// smallOracle builds a checker over a small seeded context and returns it
// with an instance that has a key.
func smallOracle(t *testing.T) (*checker, feature.Labeled) {
	t.Helper()
	base, err := dataset.Load("adult", dataset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	forest, err := model.TrainForest(base.Schema, base.Train(), model.ForestConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := labelled(forest, 5, "context", 3000)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := core.NewContext(base.Schema, rows)
	if err != nil {
		t.Fatal(err)
	}
	probes, err := labelled(forest, 5, "requests", 50)
	if err != nil {
		t.Fatal(err)
	}
	for _, li := range probes {
		c := newChecker(5, base.Schema, oracle, []feature.Labeled{li})
		if !c.solve(li).noKey {
			return c, li
		}
	}
	t.Fatal("no probe instance has a key")
	return nil, feature.Labeled{}
}

func encode(t *testing.T, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func TestCheckerRejectsTamperedResponse(t *testing.T) {
	c, li := smallOracle(t)
	want := c.solve(li).resp
	good := encode(t, want)
	answer := func(body []byte, source string) sample {
		return sample{q: req{li: li}, rep: reply{status: http.StatusOK, source: source, body: body}}
	}

	c.explains([]sample{answer(good, "miss"), answer(good, "hit")}, false)
	if c.failed != 0 {
		t.Fatalf("the oracle's own answer failed the check: %v", c.notes)
	}

	tampered := want
	tampered.Coverage++
	bad := encode(t, tampered)
	c.explains([]sample{answer(bad, "miss")}, false)
	if c.failed == 0 {
		t.Fatal("a response with a tampered coverage passed the check")
	}

	c.failed = 0
	c.explains([]sample{answer(good, "miss"), answer(bad, "hit")}, false)
	if c.failed == 0 {
		t.Fatal("a cache hit that differs from the first miss passed the check")
	}

	c.failed = 0
	c.explains([]sample{answer(good, "hit")}, true)
	if c.failed == 0 {
		t.Fatal("a cold explain served from the cache passed the check")
	}
}
