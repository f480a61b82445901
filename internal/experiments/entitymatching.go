package experiments

import (
	"fmt"
	"math/rand"

	"github.com/xai-db/relativekeys/internal/core"
	"github.com/xai-db/relativekeys/internal/em"
	"github.com/xai-db/relativekeys/internal/explain"
	"github.com/xai-db/relativekeys/internal/explain/anchor"
	"github.com/xai-db/relativekeys/internal/explain/certa"
	"github.com/xai-db/relativekeys/internal/feature"
	"github.com/xai-db/relativekeys/internal/metrics"
	"github.com/xai-db/relativekeys/internal/nn"
)

// This file regenerates §7.5: entity-matching explanation quality
// (Figures 3n–3p) and efficiency (S75). Xreason is absent by design: the
// matcher is a DNN.

func init() {
	register("F3n", fig3n)
	register("F3o", fig3o)
	register("F3p", fig3p)
	register("S75", sec75)
}

// EMPipeline is the per-EM-dataset setup: the MLP matcher (Ditto stand-in),
// the inference context, the background, and cached method runs.
type EMPipeline struct {
	Name   string
	DS     *em.Dataset
	Model  *nn.MLP
	Ctx    *core.Context
	Bg     *explain.Background
	Sample []feature.Labeled

	env  *Env
	runs map[string]*MethodRun
}

var emQuickSizes = map[string]int{"ag": 1500, "da": 1500, "dg": 2000, "wa": 1500}

// EMPipeline returns the cached pipeline for an entity-matching dataset.
func (e *Env) EMPipeline(name string) (*EMPipeline, error) {
	e.mu.Lock()
	if p, ok := e.emPipes[name]; ok {
		e.mu.Unlock()
		return p, nil
	}
	e.mu.Unlock()

	opt := em.Options{}
	if e.cfg.Quick {
		opt.Size = emQuickSizes[name]
	}
	ds, err := em.Load(name, opt)
	if err != nil {
		return nil, err
	}
	ncfg := nn.Config{Hidden: 16, Epochs: 30, Seed: e.cfg.Seed}
	if e.cfg.Quick {
		ncfg.Epochs = 12
	}
	m, err := nn.Train(ds.Schema, ds.Labeled(ds.TrainIdx), ncfg)
	if err != nil {
		return nil, err
	}
	inference := make([]feature.Labeled, len(ds.TestIdx))
	rows := make([]feature.Instance, len(ds.TestIdx))
	for i, j := range ds.TestIdx {
		x := ds.Pairs[j].X
		inference[i] = feature.Labeled{X: x, Y: m.Predict(x)}
		rows[i] = x
	}
	ctx, err := core.NewContext(ds.Schema, inference)
	if err != nil {
		return nil, err
	}
	bg, err := explain.NewBackground(ds.Schema, rows)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(e.cfg.Seed + int64(len(name)) + 7))
	nSample := e.cfg.Instances
	if nSample > len(inference) {
		nSample = len(inference)
	}
	perm := rng.Perm(len(inference))[:nSample]
	sample := make([]feature.Labeled, nSample)
	for i, j := range perm {
		sample[i] = inference[j]
	}
	p := &EMPipeline{
		Name: name, DS: ds, Model: m, Ctx: ctx, Bg: bg, Sample: sample,
		env: e, runs: map[string]*MethodRun{},
	}
	e.mu.Lock()
	e.emPipes[name] = p
	e.mu.Unlock()
	return p, nil
}

// EMMethods lists the §7.5 methods.
func EMMethods() []string { return []string{"CCE", "Anchor", "CERTA"} }

// Run executes (and caches) one method over the EM sample.
func (p *EMPipeline) Run(method string) (*MethodRun, error) {
	if r, ok := p.runs[method]; ok {
		return r, nil
	}
	ccer, err := cceRun(p.runs, p.Ctx, p.Sample)
	if err != nil {
		return nil, err
	}
	if method == "CCE" {
		return ccer, nil
	}
	var pass func() ([]metrics.Explained, error)
	switch method {
	case "Anchor":
		pass = func() ([]metrics.Explained, error) {
			var out []metrics.Explained
			for i, li := range p.Sample {
				cfg := anchor.Config{Seed: p.env.cfg.Seed + int64(i)}
				if p.env.cfg.Quick {
					cfg.BatchSize = 15
					cfg.MaxBatches = 6
				}
				if size := ccer.Explained[i].Key.Succinctness(); size > 0 {
					cfg.MaxAnchor = size
				}
				exp, err := anchor.New(p.Model, p.Bg, cfg).Explain(li.X)
				if err != nil {
					return nil, err
				}
				out = append(out, metrics.Explained{X: li.X, Y: li.Y, Key: exp.Features})
			}
			return out, nil
		}
	case "CERTA":
		pass = func() ([]metrics.Explained, error) {
			var out []metrics.Explained
			for i, li := range p.Sample {
				cfg := certa.Config{Seed: p.env.cfg.Seed + int64(i)}
				if p.env.cfg.Quick {
					cfg.Rounds = 15
				}
				exp, err := certa.New(p.Model, p.Bg, cfg).Explain(li.X)
				if err != nil {
					return nil, err
				}
				size := ccer.Explained[i].Key.Succinctness()
				key := explain.DeriveKey(exp.Scores, size)
				out = append(out, metrics.Explained{X: li.X, Y: li.Y, Key: key})
			}
			return out, nil
		}
	default:
		return nil, fmt.Errorf("experiments: unknown EM method %q", method)
	}
	run, err := timedRun(method, 0, len(p.Sample), pass)
	if err != nil {
		return nil, err
	}
	p.runs[method] = run
	return run, nil
}

func emQualityFig(e *Env, id, title string, f func(p *EMPipeline, run *MethodRun) string, notes ...string) (*Table, error) {
	t := &Table{
		ID:     id,
		Title:  title,
		Header: []string{"method", "A-G", "D-A", "D-G", "W-A"},
		Notes:  notes,
	}
	rows := map[string][]string{}
	for _, m := range EMMethods() {
		rows[m] = []string{m}
	}
	for _, name := range em.Names() {
		p, err := e.EMPipeline(name)
		if err != nil {
			return nil, err
		}
		for _, m := range EMMethods() {
			run, err := p.Run(m)
			if err != nil {
				return nil, err
			}
			rows[m] = append(rows[m], f(p, run))
		}
	}
	for _, m := range EMMethods() {
		t.Rows = append(t.Rows, rows[m])
	}
	return t, nil
}

func fig3n(e *Env) (*Table, error) {
	return emQualityFig(e, "F3n", "Entity matching: conformity",
		func(p *EMPipeline, run *MethodRun) string {
			return fmtPct(metrics.Conformity(p.Ctx, run.Explained))
		},
		"paper: CCE 100%; CERTA ≈71.0%, Anchor ≈69.8% on average")
}

func fig3o(e *Env) (*Table, error) {
	return emQualityFig(e, "F3o", "Entity matching: precision",
		func(p *EMPipeline, run *MethodRun) string {
			return fmtPct(metrics.Precision(p.Ctx, run.Explained))
		},
		"paper: CCE 100%; CERTA ≈99.2%, Anchor ≈99.0%")
}

func fig3p(e *Env) (*Table, error) {
	return emQualityFig(e, "F3p", "Entity matching: faithfulness (lower is better)",
		func(p *EMPipeline, run *MethodRun) string {
			return fmtPct(metrics.Faithfulness(p.Model, p.DS.Schema, run.Explained, 5, e.cfg.Seed))
		},
		"paper: CCE beats Anchor everywhere; on par with CERTA on D-G and W-A")
}

func sec75(e *Env) (*Table, error) {
	t := &Table{
		ID:     "S75",
		Title:  "Entity matching: average explanation time (ms)",
		Header: []string{"method", "A-G", "D-A", "D-G", "W-A"},
		Notes:  []string{"paper: CCE 4 orders of magnitude faster than CERTA on average"},
	}
	rows := map[string][]string{}
	for _, m := range EMMethods() {
		rows[m] = []string{m}
	}
	for _, name := range em.Names() {
		p, err := e.EMPipeline(name)
		if err != nil {
			return nil, err
		}
		for _, m := range EMMethods() {
			run, err := p.Run(m)
			if err != nil {
				return nil, err
			}
			rows[m] = append(rows[m], fmtMS(run.AvgMillis))
		}
	}
	for _, m := range EMMethods() {
		t.Rows = append(t.Rows, rows[m])
	}
	return t, nil
}
