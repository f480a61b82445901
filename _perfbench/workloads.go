package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Workload names, as BENCHMARK.json lists them.
const (
	wlCold  = "explain_cold_300k"
	wlHot   = "explain_hot_300k"
	wlMixed = "observe_mixed_300k"
)

const (
	clients    = 2  // hot closed-loop clients, open-loop senders, and the connection cap
	hotSetSize = 32 // hot: instances the hot set repeats
	// mixed: a wider hot set, so the explain figures do not hang on the solve
	// cost of a few seeded instances (most mixed explains miss anyway: every
	// observe bumps the context version).
	mixedHotSetSize = 256
	warmPerClient   = 16   // untimed distinct explains per client before timing
	hotFrac         = 0.95 // hot: share of requests drawn from the hot set
	mixedHotFrac    = 0.90 // mixed: share of explains drawn from the hot set
	observeRate     = 50   // mixed: observes per second
	explainRate     = 100  // mixed: explains per second; 200 saturated a contended 2-CPU host

	// Ceilings that size the distinct streams, about six times the fastest
	// rates seen on a 2-vCPU host (2424 cold and 10606 hot explains per
	// second), so a much faster server is measured rather than running out. A
	// run that outpaces one fails rather than repeat an instance.
	maxColdRate = 15000 // cold explains per second
	maxHotRate  = 60000 // hot explains per second
)

func workloadNames() []string { return []string{wlCold, wlHot, wlMixed} }

// closedClients is how many closed-loop clients a workload runs. Cold runs
// one: with two on a 2-vCPU host each solve either ran alone (~0.8 ms) or
// overlapped the other client's (~1.5 ms), and the p50 jumped between the two
// modes with the clients' relative phase (IQR/median 0.21-0.27 over ten
// seeds).
func closedClients(wl string) int {
	if wl == wlCold {
		return 1
	}
	return clients
}

// streamSizes returns the workload's hot-set size and how many distinct
// instances and observed rows it can consume in one window.
func streamSizes(wl string, window time.Duration) (hot, distinct, observes int, err error) {
	secs := int(math.Ceil(window.Seconds()))
	warm := clients * warmPerClient
	switch wl {
	case wlCold:
		return hotSetSize, warm + maxColdRate*secs, 0, nil
	case wlHot:
		return hotSetSize, warm + int((1-hotFrac)*maxHotRate)*secs, 0, nil
	case wlMixed:
		return mixedHotSetSize, warm + explainRate*secs, observeRate * secs, nil
	}
	return 0, 0, 0, fmt.Errorf("unknown workload %q (have %s)", wl, strings.Join(workloadNames(), ", "))
}

// sample is one timed operation.
type sample struct {
	q   req
	rep reply
	// lat is send to last byte in a closed loop, due time to last byte in the
	// open loop.
	lat time.Duration
}

// outcome is what one pass of a workload produced.
type outcome struct {
	warm      []sample      // untimed warm-up answers: checked, not timed
	explains  []sample      // timed explains
	observes  []sample      // timed observes (mixed)
	late      []float64     // open loop: ms each request left the generator after its due time
	start     time.Time     // when the timed window opened
	perClient []int         // closed loop: timed requests each client sent
	cpu       time.Duration // the generator's own CPU time over the timed window
	steal     []float64     // the host's CPU steal in each slice of the window; nil in replays
}

// pass runs one workload once against one server.
type pass struct {
	t        transport
	wl       string
	seed     int64
	window   time.Duration
	r        renderer
	hot      []req
	distinct []req
	observes []req
	chk      *checker
	replay   *outcome // in-process replays repeat this pass's request counts
	onStart  func()   // called as the timed window opens
}

// run drives the workload: warm-up, the timed window, then the output checks.
func (p *pass) run() (*outcome, error) {
	switch p.wl {
	case wlMixed:
		return p.openLoop()
	default:
		return p.closedLoop()
	}
}

func (p *pass) explain(q req) sample {
	rep := p.t.do(http.MethodPost, "/explain", q.body)
	return sample{q: q, rep: rep, lat: rep.done.Sub(rep.sent)}
}

// warmUp sends the untimed warm-up: the hot set once each when primeHot,
// then each client's share of the first distinct instances.
func (p *pass) warmUp(primeHot bool) []sample {
	var out []sample
	if primeHot {
		for _, q := range p.hot {
			out = append(out, p.explain(q))
		}
	}
	for _, q := range p.distinct[:clients*warmPerClient] {
		out = append(out, p.explain(q))
	}
	return out
}

// start opens the timed window and, unless replaying, samples the host's CPU
// steal over it.
func (p *pass) start() (time.Time, time.Duration, <-chan []float64) {
	if p.onStart != nil {
		p.onStart()
	}
	start := time.Now()
	var steal <-chan []float64
	if p.replay == nil {
		steal = sampleSteal(start, p.window)
	}
	return start, cpuTime(), steal
}

// closedLoop runs the cold and hot workloads: each client sends its next
// explain as soon as the previous one is answered, until the window closes.
func (p *pass) closedLoop() (*outcome, error) {
	hot := p.wl == wlHot
	out := &outcome{warm: p.warmUp(hot)}
	n := closedClients(p.wl)
	streams := coldStreams(p.distinct[clients*warmPerClient:], n)
	per := make([][]sample, n)
	errs := make([]error, n)
	start, cpu0, steal := p.start()
	out.start = start
	deadline := start.Add(p.window)
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(subSeed(p.seed, fmt.Sprintf("client%d", k))))
			next := 0
			for i := 0; p.more(k, i, deadline); i++ {
				var q req
				if hot && rng.Float64() < hotFrac {
					q = p.hot[rng.Intn(len(p.hot))]
				} else {
					if next == len(streams[k]) {
						errs[k] = fmt.Errorf("client %d used all %d of its distinct instances", k, next)
						return
					}
					q = streams[k][next]
					next++
				}
				per[k] = append(per[k], p.explain(q))
			}
		}()
	}
	wg.Wait()
	out.cpu = cpuTime() - cpu0
	if steal != nil {
		out.steal = <-steal
	}
	for k := range per {
		if errs[k] != nil {
			return nil, errs[k]
		}
		out.perClient = append(out.perClient, len(per[k]))
		out.explains = append(out.explains, per[k]...)
	}
	p.chk.explains(append(append([]sample(nil), out.warm...), out.explains...), !hot)
	return out, nil
}

// coldStreams deals the distinct instances round-robin into one stream for
// each of n clients, so no two requests of a run share an instance.
func coldStreams(distinct []req, n int) [][]req {
	streams := make([][]req, n)
	for i, q := range distinct {
		streams[i%n] = append(streams[i%n], q)
	}
	return streams
}

// more reports whether client k sends its i-th timed request: while the
// window is open or, in a replay, until it has sent as many as recorded.
func (p *pass) more(k, i int, deadline time.Time) bool {
	if p.replay != nil {
		return i < p.replay.perClient[k]
	}
	return time.Now().Before(deadline)
}

// openLoop runs the mixed workload on its fixed schedule: a dispatcher
// releases each request at its due time to the senders, whatever the server
// is doing, so a stall delays every request queued behind it.
func (p *pass) openLoop() (*outcome, error) {
	out := &outcome{warm: p.warmUp(true)}
	p.chk.explains(out.warm, false)
	ops, err := mixedSchedule(p.seed, p.hot, p.distinct[clients*warmPerClient:], p.observes, p.window)
	if err != nil {
		return nil, err
	}
	results := make([]sample, len(ops))
	out.late = make([]float64, len(ops))
	// Sized to the whole schedule, so the dispatcher never waits on a sender.
	queue := make(chan int, len(ops))
	start, cpu0, steal := p.start()
	out.start = start
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				path := "/explain"
				if ops[i].observe {
					path = "/observe"
				}
				rep := p.t.do(http.MethodPost, path, ops[i].body)
				results[i] = sample{q: ops[i].req, rep: rep, lat: dueLatency(start, ops[i].at, rep.done)}
			}
		}()
	}
	for i, o := range ops {
		due := start.Add(o.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		out.late[i] = ms(time.Since(due))
		queue <- i
	}
	close(queue)
	wg.Wait()
	out.cpu = cpuTime() - cpu0
	if steal != nil {
		out.steal = <-steal
	}
	for i, o := range ops {
		if o.observe {
			out.observes = append(out.observes, results[i])
		} else {
			out.explains = append(out.explains, results[i])
		}
	}
	seq, err := p.seq()
	if err != nil {
		return nil, err
	}
	p.chk.mixed(out.explains, out.observes, contextRows, seq)
	return out, nil
}

// seq reads the server's last observation sequence number from /stats.
func (p *pass) seq() (uint64, error) {
	rep := p.t.do(http.MethodGet, "/stats", nil)
	if rep.err != nil || rep.status != http.StatusOK {
		return 0, fmt.Errorf("GET /stats: status %d, err %v", rep.status, rep.err)
	}
	var st struct {
		Seq uint64 `json:"seq"`
	}
	if err := json.Unmarshal(rep.body, &st); err != nil {
		return 0, fmt.Errorf("GET /stats: %w", err)
	}
	return st.Seq, nil
}

// cpuTime is this process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF on Linux
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
