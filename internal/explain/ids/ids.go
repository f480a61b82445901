// Package ids implements Interpretable Decision Sets (Lakkaraju et al.,
// KDD'16), the pattern-level global explanation baseline of §7.2: mine
// frequent feature-value patterns, form candidate rules pattern→class, and
// select a set of independent rules that summarizes the labeled dataset,
// trading coverage, precision, conciseness and overlap. The paper's case
// study shows that (a) a size-limited rule set can fail to cover a given
// instance and (b) the unrestricted run is orders of magnitude slower — both
// behaviours this implementation reproduces.
package ids

import (
	"fmt"
	"sort"
	"strings"

	"github.com/xai-db/relativekeys/internal/feature"
	"github.com/xai-db/relativekeys/internal/sortedkeys"
)

// Condition is one feature=value conjunct.
type Condition struct {
	Attr  int
	Value feature.Value
}

// Rule is a conjunctive pattern with a predicted class.
type Rule struct {
	Conds []Condition
	Class feature.Label

	cover   int // instances matching the pattern
	correct int // matching instances with the predicted class
}

// Matches reports whether the rule's pattern holds on x.
func (r *Rule) Matches(x feature.Instance) bool {
	for _, c := range r.Conds {
		if x[c.Attr] != c.Value {
			return false
		}
	}
	return true
}

// Precision returns correct/cover on the training data.
func (r *Rule) Precision() float64 {
	if r.cover == 0 {
		return 0
	}
	return float64(r.correct) / float64(r.cover)
}

// Render formats the rule as the paper displays it.
func (r *Rule) Render(s *feature.Schema) string {
	parts := make([]string, len(r.Conds))
	for i, c := range r.Conds {
		parts[i] = s.Attrs[c.Attr].Name + "='" + s.Attrs[c.Attr].Values[c.Value] + "'"
	}
	return "IF " + strings.Join(parts, " ∧ ") + " THEN Prediction='" + s.Labels[r.Class] + "'"
}

// RuleSet is a fitted decision set.
type RuleSet struct {
	Schema *feature.Schema
	Rules  []Rule
}

// Config tunes mining and selection.
type Config struct {
	MaxRules   int     // 0 = unrestricted ("full IDS" mode of the case study)
	MaxLen     int     // max conditions per rule, default 2
	MinSupport float64 // minimum pattern support, default 0.01
	MinPrec    float64 // minimum rule precision to be a candidate, default 0.55
}

func (c Config) normalize() Config {
	if c.MaxLen <= 0 {
		c.MaxLen = 2
	}
	if c.MinSupport <= 0 {
		c.MinSupport = 0.01
	}
	if c.MinPrec <= 0 {
		c.MinPrec = 0.55
	}
	return c
}

// Fit mines candidate rules and greedily selects a decision set.
func Fit(schema *feature.Schema, data []feature.Labeled, cfg Config) (*RuleSet, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("ids: cannot fit on empty data")
	}
	cfg = cfg.normalize()
	cands := mine(schema, data, cfg)
	if len(cands) == 0 {
		return &RuleSet{Schema: schema}, nil
	}

	// Greedy selection maximizing marginal covered-correct count with an
	// overlap penalty (a tractable stand-in for IDS's smooth local search).
	covered := make([]bool, len(data))
	var chosen []Rule
	for {
		if cfg.MaxRules > 0 && len(chosen) >= cfg.MaxRules {
			break
		}
		bestIdx, bestGain := -1, 0.0
		for i := range cands {
			if cands[i].cover == 0 {
				continue
			}
			gain := 0.0
			for j, li := range data {
				if !cands[i].Matches(li.X) {
					continue
				}
				delta := 0.0
				if li.Y == cands[i].Class {
					delta = 1
				} else {
					delta = -1
				}
				if covered[j] {
					delta *= 0.25 // overlap penalty
				}
				gain += delta
			}
			gain -= 0.5 * float64(len(cands[i].Conds)) // conciseness penalty
			if gain > bestGain {
				bestGain, bestIdx = gain, i
			}
		}
		if bestIdx < 0 {
			break
		}
		r := cands[bestIdx]
		chosen = append(chosen, r)
		cands = append(cands[:bestIdx], cands[bestIdx+1:]...)
		for j, li := range data {
			if r.Matches(li.X) {
				covered[j] = true
			}
		}
		// Unrestricted mode keeps adding rules until no candidate has
		// positive gain (covering the long tail, hence slow).
	}
	return &RuleSet{Schema: schema, Rules: chosen}, nil
}

// mine enumerates patterns up to MaxLen conditions with sufficient support
// and candidate rules with sufficient precision.
func mine(schema *feature.Schema, data []feature.Labeled, cfg Config) []Rule {
	n := schema.NumFeatures()
	minCover := int(cfg.MinSupport * float64(len(data)))
	if minCover < 1 {
		minCover = 1
	}
	var out []Rule

	evaluate := func(conds []Condition) {
		counts := make(map[feature.Label]int)
		cover := 0
		for _, li := range data {
			ok := true
			for _, c := range conds {
				if li.X[c.Attr] != c.Value {
					ok = false
					break
				}
			}
			if ok {
				cover++
				counts[li.Y]++
			}
		}
		if cover < minCover {
			return
		}
		// Argmax over sorted labels: ties break toward the smaller label code
		// instead of whichever key Go's randomized map order yields first, so
		// the mined rule set is identical across runs.
		bestY, bestC := feature.Label(0), -1
		for _, y := range sortedkeys.Of(counts) {
			if c := counts[y]; c > bestC {
				bestY, bestC = y, c
			}
		}
		prec := float64(bestC) / float64(cover)
		if prec < cfg.MinPrec {
			return
		}
		out = append(out, Rule{
			Conds:   append([]Condition(nil), conds...),
			Class:   bestY,
			cover:   cover,
			correct: bestC,
		})
	}

	// Length-1 and length-2 patterns (and deeper if configured).
	var rec func(start int, conds []Condition)
	rec = func(start int, conds []Condition) {
		if len(conds) > 0 {
			evaluate(conds)
		}
		if len(conds) >= cfg.MaxLen {
			return
		}
		for a := start; a < n; a++ {
			for v := 0; v < schema.Attrs[a].Cardinality(); v++ {
				rec(a+1, append(conds, Condition{Attr: a, Value: feature.Value(v)}))
			}
		}
	}
	rec(0, nil)

	sort.Slice(out, func(i, j int) bool {
		if out[i].correct != out[j].correct {
			return out[i].correct > out[j].correct
		}
		return len(out[i].Conds) < len(out[j].Conds)
	})
	return out
}

// Covering returns the rules of the set whose patterns hold on x — empty when
// the decision set fails to explain the instance (the paper's Loan case).
func (rs *RuleSet) Covering(x feature.Instance) []Rule {
	var out []Rule
	for _, r := range rs.Rules {
		if r.Matches(x) {
			out = append(out, r)
		}
	}
	return out
}
