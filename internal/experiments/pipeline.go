package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/xai-db/relativekeys/internal/cce"
	"github.com/xai-db/relativekeys/internal/core"
	"github.com/xai-db/relativekeys/internal/dataset"
	"github.com/xai-db/relativekeys/internal/explain"
	"github.com/xai-db/relativekeys/internal/explain/anchor"
	"github.com/xai-db/relativekeys/internal/explain/gam"
	"github.com/xai-db/relativekeys/internal/explain/lime"
	"github.com/xai-db/relativekeys/internal/explain/shap"
	"github.com/xai-db/relativekeys/internal/feature"
	"github.com/xai-db/relativekeys/internal/formal"
	"github.com/xai-db/relativekeys/internal/metrics"
	"github.com/xai-db/relativekeys/internal/model"
)

// Pipeline is the per-dataset experimental setup of §7.1: a trained
// tree-ensemble model (the XGBoost stand-in; a random forest so the formal
// explainer's SAT encoding is exact), the inference context holding the
// model's predictions on the test split, the background distribution for
// perturbation-based baselines, and the sample of explained instances.
type Pipeline struct {
	Name   string
	DS     *dataset.Dataset
	Model  *model.Forest
	Ctx    *core.Context // inference context: test instances + predictions
	Bg     *explain.Background
	Sample []feature.Labeled // explained instances with model predictions

	env *Env

	// method run cache: method name → result.
	runs map[string]*MethodRun
	// lazily built explainers.
	xreason *formal.Explainer
	gamEx   *gam.Explainer
}

// MethodRun is one explanation method applied to the pipeline's sample.
type MethodRun struct {
	Method    string
	Explained []metrics.Explained // one per sample instance
	AvgMillis float64             // per-instance time, setup amortized
}

// bucketsOverride is used by the #-bucket experiments.
type pipelineOpts struct {
	buckets map[string]int
	tag     string
}

// Pipeline returns the cached pipeline for a general dataset.
func (e *Env) Pipeline(name string) (*Pipeline, error) {
	return e.pipelineOpt(name, pipelineOpts{})
}

// PipelineBuckets returns a pipeline with a numeric column re-bucketed.
func (e *Env) PipelineBuckets(name, column string, k int) (*Pipeline, error) {
	return e.pipelineOpt(name, pipelineOpts{
		buckets: map[string]int{column: k},
		tag:     fmt.Sprintf("#%s=%d", column, k),
	})
}

func (e *Env) pipelineOpt(name string, opts pipelineOpts) (*Pipeline, error) {
	key := name + opts.tag
	e.mu.Lock()
	if p, ok := e.pipes[key]; ok {
		e.mu.Unlock()
		return p, nil
	}
	e.mu.Unlock()
	p, err := e.buildPipeline(name, opts)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.pipes[key] = p
	e.mu.Unlock()
	return p, nil
}

// quickSizes shrinks datasets in quick mode.
var quickSizes = map[string]int{
	"adult": 2000, "german": 800, "compas": 1500, "loan": 614, "recid": 1500,
}

func (e *Env) buildPipeline(name string, opts pipelineOpts) (*Pipeline, error) {
	dopt := dataset.Options{Buckets: opts.buckets}
	if e.cfg.Quick {
		dopt.Size = quickSizes[name]
	}
	ds, err := dataset.Load(name, dopt)
	if err != nil {
		return nil, err
	}
	// Full-scale models are deep ensembles (as the paper's XGBoost models
	// are): this is what makes formal whole-space explanations large and
	// expensive, reproducing the Xreason-vs-CCE gap.
	fcfg := model.ForestConfig{NumTrees: 25, MaxDepth: 10, MinLeaf: 2, FeatureFrac: 0.5, Seed: e.cfg.Seed}
	if e.cfg.Quick {
		fcfg = model.ForestConfig{NumTrees: 9, MaxDepth: 5, MinLeaf: 5, Seed: e.cfg.Seed}
	}
	m, err := model.TrainForest(ds.Schema, ds.Train(), fcfg)
	if err != nil {
		return nil, err
	}
	test := ds.Test()
	inference := make([]feature.Labeled, len(test))
	for i, li := range test {
		inference[i] = feature.Labeled{X: li.X, Y: m.Predict(li.X)}
	}
	ctx, err := core.NewContext(ds.Schema, inference)
	if err != nil {
		return nil, err
	}
	trainRows := make([]feature.Instance, 0, len(ds.TrainIdx))
	for _, li := range ds.Train() {
		trainRows = append(trainRows, li.X)
	}
	bg, err := explain.NewBackground(ds.Schema, trainRows)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(e.cfg.Seed + int64(len(name))))
	nSample := e.cfg.Instances
	if nSample > len(inference) {
		nSample = len(inference)
	}
	perm := rng.Perm(len(inference))[:nSample]
	sample := make([]feature.Labeled, nSample)
	for i, j := range perm {
		sample[i] = inference[j]
	}
	return &Pipeline{
		Name:   name,
		DS:     ds,
		Model:  m,
		Ctx:    ctx,
		Bg:     bg,
		Sample: sample,
		env:    e,
		runs:   map[string]*MethodRun{},
	}, nil
}

// GeneralMethods lists the §7.3 methods in the paper's presentation order.
func GeneralMethods() []string {
	return []string{"CCE", "LIME", "SHAP", "Anchor", "GAM", "Xreason"}
}

// Run returns the cached MethodRun for the named method on this pipeline,
// executing it on first use. For importance-based methods and Anchor, the
// derived feature explanation is size-matched to CCE's per instance (§7.1).
func (p *Pipeline) Run(method string) (*MethodRun, error) {
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
	var run *MethodRun
	switch method {
	case "LIME":
		run, err = p.importanceRun(method, ccer, func(seed int64) explain.Explainer {
			cfg := lime.Config{Seed: seed}
			if p.env.cfg.Quick {
				cfg.Samples = 120
			}
			return lime.New(p.Model, p.Bg, cfg)
		}, 0)
	case "SHAP":
		run, err = p.importanceRun(method, ccer, func(seed int64) explain.Explainer {
			cfg := shap.Config{Seed: seed}
			if p.env.cfg.Quick {
				cfg.Samples = 150
				cfg.Background = 3
			}
			return shap.New(p.Model, p.Bg, cfg)
		}, 0)
	case "GAM":
		run, err = p.gamRun(ccer)
	case "Anchor":
		run, err = p.anchorRun(ccer)
	case "Xreason":
		run, err = p.xreasonRun()
	default:
		return nil, fmt.Errorf("experiments: unknown method %q", method)
	}
	if err != nil {
		return nil, err
	}
	p.runs[method] = run
	return run, nil
}

// cceRun returns the CCE run cached in runs, on first use explaining sample
// over the inference context c with a batch at α=1 (the default of §7.1).
// The batch wraps the context the pipeline indexed, so CCE has no setup to
// time.
func cceRun(runs map[string]*MethodRun, c *core.Context, sample []feature.Labeled) (*MethodRun, error) {
	if r, ok := runs["CCE"]; ok {
		return r, nil
	}
	b := cce.Batch{Ctx: c, Alpha: 1}
	run, err := timedRun("CCE", 0, len(sample), func() ([]metrics.Explained, error) {
		var out []metrics.Explained
		for _, li := range sample {
			key, err := b.Explain(li.X, li.Y)
			if err == core.ErrNoKey {
				key = core.NewKey() // conflict rows keep an empty key
			} else if err != nil {
				return nil, err
			}
			out = append(out, metrics.Explained{X: li.X, Y: li.Y, Key: key})
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	runs["CCE"] = run
	return run, nil
}

// importanceRun explains with an importance method and derives keys
// size-matched to CCE.
func (p *Pipeline) importanceRun(name string, ccer *MethodRun, build func(seed int64) explain.Explainer, setupCost time.Duration) (*MethodRun, error) {
	return timedRun(name, setupCost, len(p.Sample), func() ([]metrics.Explained, error) {
		var out []metrics.Explained
		for i, li := range p.Sample {
			ex := build(p.env.cfg.Seed + int64(i))
			exp, err := ex.Explain(li.X)
			if err != nil {
				return nil, err
			}
			size := ccer.Explained[i].Key.Succinctness()
			key := explain.DeriveKey(exp.Scores, size)
			out = append(out, metrics.Explained{X: li.X, Y: li.Y, Key: key})
		}
		return out, nil
	})
}

func (p *Pipeline) gamRun(ccer *MethodRun) (*MethodRun, error) {
	setupStart := time.Now()
	if p.gamEx == nil {
		epochs := 20
		if p.env.cfg.Quick {
			epochs = 8
		}
		rows := p.Bg.Rows()
		if len(rows) > 4000 {
			rows = rows[:4000]
		}
		g, err := gam.New(p.Model, p.DS.Schema, rows, gam.Config{Epochs: epochs, Seed: p.env.cfg.Seed})
		if err != nil {
			return nil, err
		}
		p.gamEx = g
	}
	setup := time.Since(setupStart)
	return timedRun("GAM", setup, len(p.Sample), func() ([]metrics.Explained, error) {
		var out []metrics.Explained
		for i, li := range p.Sample {
			exp, err := p.gamEx.Explain(li.X)
			if err != nil {
				return nil, err
			}
			size := ccer.Explained[i].Key.Succinctness()
			key := explain.DeriveKey(exp.Scores, size)
			out = append(out, metrics.Explained{X: li.X, Y: li.Y, Key: key})
		}
		return out, nil
	})
}

func (p *Pipeline) anchorRun(ccer *MethodRun) (*MethodRun, error) {
	return timedRun("Anchor", 0, len(p.Sample), func() ([]metrics.Explained, error) {
		var out []metrics.Explained
		for i, li := range p.Sample {
			cfg := anchor.Config{Seed: p.env.cfg.Seed + int64(i)}
			if p.env.cfg.Quick {
				cfg.BatchSize = 15
				cfg.MaxBatches = 6
			}
			// Size control via the threshold/size parameter (§7.1): cap the
			// anchor at CCE's succinctness for this instance.
			size := ccer.Explained[i].Key.Succinctness()
			if size > 0 {
				cfg.MaxAnchor = size
			}
			ex := anchor.New(p.Model, p.Bg, cfg)
			exp, err := ex.Explain(li.X)
			if err != nil {
				return nil, err
			}
			out = append(out, metrics.Explained{X: li.X, Y: li.Y, Key: exp.Features})
		}
		return out, nil
	})
}

func (p *Pipeline) xreasonRun() (*MethodRun, error) {
	setupStart := time.Now()
	if p.xreason == nil {
		ex, err := formal.NewForestExplainer(p.Model, p.DS.Schema)
		if err != nil {
			return nil, err
		}
		p.xreason = ex
	}
	setup := time.Since(setupStart)
	return timedRun("Xreason", setup, len(p.Sample), func() ([]metrics.Explained, error) {
		var out []metrics.Explained
		for _, li := range p.Sample {
			key, err := p.xreason.ExplainKey(li.X)
			if err != nil {
				return nil, err
			}
			out = append(out, metrics.Explained{X: li.X, Y: li.Y, Key: key})
		}
		return out, nil
	})
}

// A method's loop over a quick sample takes microseconds per instance, so
// one preemption or GC pause inside a single timed pass can outweigh the
// whole loop. Each method's loop is therefore timed over up to
// timingPasses passes and the fastest is reported; passes stop once
// together they have taken timingBudget, so a slow method is timed once.
const (
	timingPasses = 5
	timingBudget = 50 * time.Millisecond
)

// timedRun runs pass as timingPasses and timingBudget allow and keeps the
// first pass's explanations with the fastest pass's per-instance time, the
// one-time setup amortized over the n explained instances. Every method
// seeds each instance alike, so the passes explain alike.
func timedRun(method string, setup time.Duration, n int, pass func() ([]metrics.Explained, error)) (*MethodRun, error) {
	run := &MethodRun{Method: method}
	var fastest, total time.Duration
	for i := 0; i < timingPasses && total < timingBudget; i++ {
		start := time.Now()
		explained, err := pass()
		took := time.Since(start)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			run.Explained, fastest = explained, took
		}
		fastest = min(fastest, took)
		total += took
	}
	run.AvgMillis = amortized(setup, fastest, n)
	return run, nil
}

// amortized spreads one-time setup over the explained instances and returns
// per-instance milliseconds.
func amortized(setup, loop time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return (setup + loop).Seconds() * 1000 / float64(n)
}
