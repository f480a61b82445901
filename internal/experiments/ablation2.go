package experiments

import (
	"fmt"
	"runtime"
	"time"

	"github.com/xai-db/relativekeys/internal/cce"
	"github.com/xai-db/relativekeys/internal/core"
	"github.com/xai-db/relativekeys/internal/formal"
	"github.com/xai-db/relativekeys/internal/model"
)

func init() {
	register("AB-FORMAL-ORACLE", ablationFormalOracle)
	register("AB-PARALLEL", ablationParallel)
}

// ablationFormalOracle compares the two counterexample oracles behind the
// formal explainer: the exact SAT encoding (forests) against the sound but
// conservative interval bounds (boosted ensembles), on models trained over
// the same data.
func ablationFormalOracle(e *Env) (*Table, error) {
	t := &Table{
		ID:     "AB-FORMAL-ORACLE",
		Title:  "Ablation: SAT-exact vs interval-bound formal oracles",
		Header: []string{"dataset", "SAT size", "interval size", "SAT ms", "interval ms"},
		Notes: []string{
			"interval bounds over-approximate reachable scores: conservative (larger) keys, far cheaper checks",
			"both are perfectly conformant over the whole feature space",
		},
	}
	for _, ds := range []string{"loan", "german"} {
		p, err := e.Pipeline(ds)
		if err != nil {
			return nil, err
		}
		// SAT oracle over the pipeline's forest.
		if _, err := p.Run("Xreason"); err != nil {
			return nil, err
		}
		sample := p.Sample
		if len(sample) > 20 {
			sample = sample[:20]
		}
		start := time.Now()
		satSize := 0
		for _, li := range sample {
			key, err := p.xreason.ExplainKey(li.X)
			if err != nil {
				return nil, err
			}
			satSize += key.Succinctness()
		}
		satMS := time.Since(start).Seconds() * 1000 / float64(len(sample))

		// Interval oracle over a boosted ensemble on the same training data.
		gcfg := model.GBDTConfig{Rounds: 30, MaxDepth: 5, Seed: e.cfg.Seed}
		if e.cfg.Quick {
			gcfg.Rounds = 12
		}
		g, err := model.TrainGBDT(p.DS.Schema, p.DS.Train(), gcfg)
		if err != nil {
			return nil, err
		}
		gx, err := formal.NewGBDTExplainer(g, p.DS.Schema)
		if err != nil {
			return nil, err
		}
		start = time.Now()
		intSize := 0
		for _, li := range sample {
			key, err := gx.ExplainKey(li.X)
			if err != nil {
				return nil, err
			}
			intSize += key.Succinctness()
		}
		intMS := time.Since(start).Seconds() * 1000 / float64(len(sample))

		t.Rows = append(t.Rows, []string{
			ds,
			avgStr(satSize, len(sample)), avgStr(intSize, len(sample)),
			fmtMS(satMS), fmtMS(intMS),
		})
	}
	return t, nil
}

// ablationParallel measures the wall-clock speedup of parallel batch
// explanation over sequential, on the largest dataset.
func ablationParallel(e *Env) (*Table, error) {
	p, err := e.Pipeline("adult")
	if err != nil {
		return nil, err
	}
	b := cce.Batch{Ctx: p.Ctx, Alpha: 1}
	items := p.Ctx.Items()
	if len(items) > 2000 {
		items = items[:2000]
	}
	t := &Table{
		ID:     "AB-PARALLEL",
		Title:  fmt.Sprintf("Ablation: parallel batch explanation (adult, %d instances, %d cores)", len(items), runtime.GOMAXPROCS(0)),
		Header: []string{"workers", "total ms", "speedup"},
	}
	counts := []int{1, 2, 4}
	if g := runtime.GOMAXPROCS(0); g != 1 && g != 2 && g != 4 {
		counts = append(counts, g)
	}
	var baseMS float64
	for _, workers := range counts {
		start := time.Now()
		if _, err := b.ExplainAll(items, workers); err != nil && err != core.ErrNoKey {
			return nil, err
		}
		ms := time.Since(start).Seconds() * 1000
		if workers == 1 {
			baseMS = ms
		}
		speedup := "-"
		if ms > 0 && baseMS > 0 {
			speedup = fmt.Sprintf("%.1fx", baseMS/ms)
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(workers), fmtMS(ms), speedup})
	}
	return t, nil
}
