package experiments

import (
	"fmt"
	"time"

	"github.com/xai-db/relativekeys/internal/cce"
	"github.com/xai-db/relativekeys/internal/core"
	"github.com/xai-db/relativekeys/internal/metrics"
)

// This file implements the ablation studies called out in DESIGN.md §5: each
// isolates one design choice of the paper's algorithms and measures what it
// buys.

func init() {
	register("AB-SRK-ORDER", ablationSRKOrdering)
	register("AB-BITSET", ablationBitset)
	register("AB-OSRK-WEIGHTS", ablationOSRKWeights)
	register("AB-SSRK-POTENTIAL", ablationSSRKPotential)
	register("AB-WINDOW-POLICY", ablationWindowPolicy)
}

// ablationSRKOrdering compares SRK's greedy candidate choice against a fixed
// arbitrary order with the same stopping rule.
func ablationSRKOrdering(e *Env) (*Table, error) {
	t := &Table{
		ID:     "AB-SRK-ORDER",
		Title:  "Ablation: SRK greedy choice vs arbitrary feature order",
		Header: []string{"dataset", "greedy succ", "arbitrary succ", "greedy ms", "arbitrary ms"},
		Notes:  []string{"greedy selection is what earns the ln(α|I|) bound; arbitrary order only stays conformant"},
	}
	for _, ds := range []string{"loan", "compas"} {
		p, err := e.Pipeline(ds)
		if err != nil {
			return nil, err
		}
		var gSum, rSum int
		var gN, rN int
		start := time.Now()
		for _, li := range p.Sample {
			if key, err := core.SRK(p.Ctx, li.X, li.Y, 1.0); err == nil {
				gSum += key.Succinctness()
				gN++
			} else if err != core.ErrNoKey {
				return nil, err
			}
		}
		gMS := time.Since(start).Seconds() * 1000 / float64(len(p.Sample))
		start = time.Now()
		for _, li := range p.Sample {
			if key, err := core.SRKRandomOrder(p.Ctx, li.X, li.Y, 1.0); err == nil {
				rSum += key.Succinctness()
				rN++
			} else if err != core.ErrNoKey {
				return nil, err
			}
		}
		rMS := time.Since(start).Seconds() * 1000 / float64(len(p.Sample))
		t.Rows = append(t.Rows, []string{
			ds,
			avgStr(gSum, gN), avgStr(rSum, rN),
			fmtMS(gMS), fmtMS(rMS),
		})
	}
	return t, nil
}

// ablationBitset compares the posting-list SRK against the naive rescanning
// implementation.
func ablationBitset(e *Env) (*Table, error) {
	t := &Table{
		ID:     "AB-BITSET",
		Title:  "Ablation: bitset posting lists vs naive rescans in SRK",
		Header: []string{"dataset", "bitset ms", "naive ms", "speedup"},
	}
	for _, ds := range []string{"adult", "compas"} {
		p, err := e.Pipeline(ds)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		for _, li := range p.Sample {
			if _, err := core.SRK(p.Ctx, li.X, li.Y, 1.0); err != nil && err != core.ErrNoKey {
				return nil, err
			}
		}
		bMS := time.Since(start).Seconds() * 1000 / float64(len(p.Sample))
		start = time.Now()
		for _, li := range p.Sample {
			if _, err := core.SRKNaive(p.Ctx, li.X, li.Y, 1.0); err != nil && err != core.ErrNoKey {
				return nil, err
			}
		}
		nMS := time.Since(start).Seconds() * 1000 / float64(len(p.Sample))
		speedup := "-"
		if bMS > 0 {
			speedup = fmt.Sprintf("%.1fx", nMS/bMS)
		}
		t.Rows = append(t.Rows, []string{ds, fmtMS(bMS), fmtMS(nMS), speedup})
	}
	return t, nil
}

// ablationOSRKWeights compares OSRK's doubling weights against fixed-
// probability sampling.
func ablationOSRKWeights(e *Env) (*Table, error) {
	t := &Table{
		ID:     "AB-OSRK-WEIGHTS",
		Title:  "Ablation: OSRK weight doubling vs fixed-probability sampling",
		Header: []string{"dataset", "doubling succ", "fixed succ", "doubling ms", "fixed ms"},
		Notes: []string{
			"on benign streams the fixed variant yields smaller keys but needs many resampling",
			"rounds per violation and loses Theorem 5's adversarial competitive bound",
		},
	}
	for _, ds := range []string{"loan", "german"} {
		p, err := e.Pipeline(ds)
		if err != nil {
			return nil, err
		}
		stream := p.Ctx.Items()
		panel := p.Sample
		if len(panel) > 10 {
			panel = panel[:10]
		}
		var dSum, fSum int
		var dTime, fTime time.Duration
		for pi, target := range panel {
			o, err := core.NewOSRK(p.DS.Schema, target.X, target.Y, 1.0, e.cfg.Seed+int64(pi))
			if err != nil {
				return nil, err
			}
			f, err := core.NewOSRKFixedProb(p.DS.Schema, target.X, target.Y, 1.0, e.cfg.Seed+int64(pi))
			if err != nil {
				return nil, err
			}
			start := time.Now()
			for _, li := range stream {
				if _, err := o.Observe(li); err != nil {
					return nil, err
				}
			}
			dTime += time.Since(start)
			start = time.Now()
			for _, li := range stream {
				if _, err := f.Observe(li); err != nil {
					return nil, err
				}
			}
			fTime += time.Since(start)
			dSum += o.Key().Succinctness()
			fSum += f.Key().Succinctness()
		}
		t.Rows = append(t.Rows, []string{
			ds, avgStr(dSum, len(panel)), avgStr(fSum, len(panel)),
			fmtMS(dTime.Seconds() * 1000 / float64(len(panel))),
			fmtMS(fTime.Seconds() * 1000 / float64(len(panel))),
		})
	}
	return t, nil
}

// ablationSSRKPotential compares SSRK's potential-guided expansion against a
// fixed one-feature-per-violation rule.
func ablationSSRKPotential(e *Env) (*Table, error) {
	t := &Table{
		ID:     "AB-SSRK-POTENTIAL",
		Title:  "Ablation: SSRK potential-guided stop vs fixed single pick",
		Header: []string{"dataset", "potential succ", "fixed succ"},
		Notes: []string{
			"on benign data both produce similar keys; the potential function is what certifies",
			"the (log m · log n) bound of Theorem 6 against adversarial arrival orders",
		},
	}
	for _, ds := range []string{"loan", "german"} {
		p, err := e.Pipeline(ds)
		if err != nil {
			return nil, err
		}
		stream := p.Ctx.Items()
		panel := p.Sample
		if len(panel) > 10 {
			panel = panel[:10]
		}
		var pSum, fSum int
		for _, target := range panel {
			s, err := core.NewSSRK(p.DS.Schema, stream, target.X, target.Y, 1.0)
			if err != nil {
				return nil, err
			}
			f, err := core.NewSSRKFixedStop(p.DS.Schema, stream, target.X, target.Y, 1.0)
			if err != nil {
				return nil, err
			}
			for j := range stream {
				if _, err := s.Observe(j); err != nil {
					return nil, err
				}
				if _, err := f.Observe(j); err != nil {
					return nil, err
				}
			}
			pSum += s.Key().Succinctness()
			fSum += f.Key().Succinctness()
		}
		t.Rows = append(t.Rows, []string{ds, avgStr(pSum, len(panel)), avgStr(fSum, len(panel))})
	}
	return t, nil
}

// ablationWindowPolicy compares the three overlap-resolution policies on a
// drifting stream.
func ablationWindowPolicy(e *Env) (*Table, error) {
	name := "german"
	setup, err := e.dynamic(name)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "AB-WINDOW-POLICY",
		Title:  fmt.Sprintf("Ablation: window resolution policies on a dynamic model (%s)", name),
		Header: []string{"policy", "conformity", "succinctness"},
		Notes:  []string{"last-wins (CCE's default) tracks the current model; first-wins goes stale; union bloats"},
	}
	winCap := len(setup.phases[0].inference)
	if winCap < 10 {
		winCap = 10
	}
	// The policies only differ when the SAME logged entry is explained
	// against several overlapping window contexts, so a fixed panel from
	// phase 0 is re-explained after every phase.
	panel := setup.phases[0].sample
	for _, pol := range []cce.Policy{cce.FirstWins, cce.LastWins, cce.UnionKey} {
		w, err := cce.NewWindow(setup.schema, winCap, winCap/4+1, 1.0, pol)
		if err != nil {
			return nil, err
		}
		var explained []metrics.Explained
		ok := 0
		for _, ph := range setup.phases {
			for _, li := range ph.inference {
				if err := w.Observe(li); err != nil {
					return nil, err
				}
			}
			// Conformity is judged against the window context each key was
			// resolved under: stale (first-wins) and bloated (union) keys pay.
			window, err := core.NewContext(setup.schema, w.Items())
			if err != nil {
				return nil, err
			}
			for _, li := range panel {
				key, err := w.Explain(li.X, li.Y)
				if err == core.ErrNoKey {
					key = core.NewKey()
				} else if err != nil {
					return nil, err
				}
				explained = append(explained, metrics.Explained{X: li.X, Y: li.Y, Key: key})
				if core.Violations(window, li.X, li.Y, key) == 0 {
					ok++
				}
			}
		}
		t.Rows = append(t.Rows, []string{
			pol.String(),
			fmtPct(float64(ok) / float64(len(explained))),
			fmtF(metrics.Succinctness(explained)),
		})
	}
	return t, nil
}

func avgStr(sum, n int) string {
	if n == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", float64(sum)/float64(n))
}
