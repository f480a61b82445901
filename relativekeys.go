// Package relativekeys is a client-centric feature-explanation library
// implementing relative keys (SIGMOD 2024, "Relative Keys: Putting Feature
// Explanation into Context").
//
// A relative key explains a model prediction M(x) with respect to a context I
// of inference instances: it is a minimal set E of features such that every
// instance of I agreeing with x on E receives the same prediction. Relative
// keys combine the perfect (context-bounded) conformity of formal
// explanations with the speed of heuristics, and need no access to the model:
// only the (instance, prediction) pairs observed during serving.
//
// Quick start:
//
//	schema, _ := relativekeys.NewSchema(attrs, labels)
//	cce, _ := relativekeys.NewBatch(schema, inferenceLog, 1.0)
//	key, _ := cce.Explain(x, prediction)
//	fmt.Println(key.RenderRule(schema, x, prediction))
//
// Three operating modes mirror the paper:
//
//   - Batch (algorithm SRK): the whole inference set is the context.
//   - Online (algorithm OSRK): the context is a stream; a target instance's
//     key is maintained with coherence guarantees (E_t ⊆ E_{t+1}).
//   - Static (algorithm SSRK): the universe of possible instances is known
//     offline; a deterministic monitor with a (log m·log n) bound.
//
// The conformity bound α ∈ (0,1] trades succinctness for conformity: an
// α-conformant key may disagree with at most a (1−α) fraction of the context.
//
// Subpackages under internal implement the evaluation substrate of the
// paper: dataset generators, tree/boosting/MLP models, the seven baseline
// explainers (Anchor, LIME, SHAP, GAM, IDS, CERTA and a SAT-based formal
// explainer), metrics, and the experiment harness that regenerates every
// table and figure (see DESIGN.md and EXPERIMENTS.md).
package relativekeys

import (
	"github.com/xai-db/relativekeys/internal/cce"
	"github.com/xai-db/relativekeys/internal/core"
	"github.com/xai-db/relativekeys/internal/feature"
)

// Core data-model types, re-exported for downstream users.
type (
	// Attribute is a named discrete feature with its value domain.
	Attribute = feature.Attribute
	// Schema is an ordered feature space plus the label space.
	Schema = feature.Schema
	// Instance is a tuple of value codes, one per attribute.
	Instance = feature.Instance
	// Label is a prediction code into the schema's label space.
	Label = feature.Label
	// Labeled couples an instance with its observed prediction.
	Labeled = feature.Labeled
	// Bucketer discretizes numeric features into equal-width buckets.
	Bucketer = feature.Bucketer

	// Key is a relative key: a sorted set of feature indices.
	Key = core.Key
	// Context is an indexed collection of labeled inference instances.
	Context = core.Context

	// Batch is CCE's batch mode (algorithm SRK over a full context).
	Batch = cce.Batch
	// Online monitors one instance's key over a stream (algorithm OSRK).
	Online = cce.Online
	// Static monitors over a known universe (algorithm SSRK).
	Static = cce.Static
	// Window is the sliding-window mode for dynamic models.
	Window = cce.Window
	// Policy resolves keys across overlapping windows.
	Policy = cce.Policy
	// DriftMonitor tracks model health via monitored key succinctness.
	DriftMonitor = cce.DriftMonitor
)

// Window resolution policies (Appendix B, Exp-4 of the paper).
const (
	LastWins  = cce.LastWins
	FirstWins = cce.FirstWins
	UnionKey  = cce.UnionKey
)

// ErrNoKey is returned when no α-conformant key exists (the context contains
// an instance identical to the target with a different prediction, beyond the
// α budget).
var ErrNoKey = core.ErrNoKey

// NewSchema builds a validated feature space with the given label space.
func NewSchema(attrs []Attribute, labels []string) (*Schema, error) {
	return feature.NewSchema(attrs, labels)
}

// NewBucketer discretizes the numeric range [lo, hi] into k buckets.
func NewBucketer(lo, hi float64, k int) (*Bucketer, error) {
	return feature.NewBucketer(lo, hi, k)
}

// NewContext indexes a collection of labeled inference instances.
func NewContext(schema *Schema, items []Labeled) (*Context, error) {
	return core.NewContext(schema, items)
}

// NewKey builds a key from feature indices (sorted, deduplicated).
func NewKey(feats ...int) Key { return core.NewKey(feats...) }

// SRK computes an α-conformant relative key for x (predicted y) relative to
// the context, with the ln(α|I|) succinctness bound of the paper's Lemma 3.
func SRK(ctx *Context, x Instance, y Label, alpha float64) (Key, error) {
	return core.SRK(ctx, x, y, alpha)
}

// SRKOrdered is SRK returning the key's features in greedy pick order —
// the lightweight feature ranking of the paper's §6 Remark (2).
func SRKOrdered(ctx *Context, x Instance, y Label, alpha float64) ([]int, error) {
	return core.SRKOrdered(ctx, x, y, alpha)
}

// ExactMinKey solves the minimum relative key problem exactly (exponential;
// small feature counts only). It exists to validate SRK's bound.
func ExactMinKey(ctx *Context, x Instance, y Label, alpha float64) (Key, error) {
	return core.ExactMinKey(ctx, x, y, alpha)
}

// NewBatch builds CCE's batch mode over a complete inference set.
func NewBatch(schema *Schema, inference []Labeled, alpha float64) (*Batch, error) {
	return cce.NewBatch(schema, inference, alpha)
}

// NewOnline starts online monitoring (OSRK) of the key of x0 (predicted y0).
func NewOnline(schema *Schema, x0 Instance, y0 Label, alpha float64, seed int64) (*Online, error) {
	return cce.NewOnline(schema, x0, y0, alpha, seed)
}

// NewStatic starts deterministic monitoring (SSRK) over a known universe.
func NewStatic(schema *Schema, universe []Labeled, x0 Instance, y0 Label, alpha float64) (*Static, error) {
	return cce.NewStatic(schema, universe, x0, y0, alpha)
}

// NewWindow builds the sliding-window mode for dynamic models: capacity |I|,
// step ΔI, and a resolution policy for instances spanning windows.
func NewWindow(schema *Schema, capacity, step int, alpha float64, policy Policy) (*Window, error) {
	return cce.NewWindow(schema, capacity, step, alpha, policy)
}

// NewDriftMonitor tracks the average key succinctness of a panel of monitored
// instances; an abnormal rise signals dips in black-box model accuracy.
func NewDriftMonitor(schema *Schema, alpha float64, panelSize int, seed int64) (*DriftMonitor, error) {
	return cce.NewDriftMonitor(schema, alpha, panelSize, seed)
}

// ContextShapley estimates per-feature importance as Shapley values over the
// context's key-precision game — the §8 future-work extension of relative
// keys toward importance explanations, still requiring no model access.
func ContextShapley(ctx *Context, x Instance, y Label, samples int, seed int64) ([]float64, error) {
	return core.ContextShapley(ctx, x, y, samples, seed)
}

// OnlineShapley maintains context Shapley values over a dynamic context.
type OnlineShapley = core.OnlineShapley

// NewOnlineShapley starts online importance monitoring of x (predicted y).
func NewOnlineShapley(schema *Schema, x Instance, y Label, samples int, seed int64) (*OnlineShapley, error) {
	return core.NewOnlineShapley(schema, x, y, samples, seed)
}

// Violations counts context instances that agree with x on E but predict
// differently — zero means the key is perfectly conformant over the context.
func Violations(ctx *Context, x Instance, y Label, E Key) int {
	return core.Violations(ctx, x, y, E)
}

// IsAlphaKey verifies α-conformity of a key.
func IsAlphaKey(ctx *Context, x Instance, y Label, E Key, alpha float64) bool {
	return core.IsAlphaKey(ctx, x, y, E, alpha)
}

// Precision returns the maximum α for which E is α-conformant.
func Precision(ctx *Context, x Instance, y Label, E Key) float64 {
	return core.Precision(ctx, x, y, E)
}

// Minimize removes redundant features from a key while preserving
// α-conformity.
func Minimize(ctx *Context, x Instance, y Label, E Key, alpha float64) Key {
	return core.Minimize(ctx, x, y, E, alpha)
}
