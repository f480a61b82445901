package model

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/xai-db/relativekeys/internal/feature"
)

// TreeNode is a node of a binary decision tree. Internal nodes test
// x[Attr] == Value: Left is the branch where the test holds, Right where it
// does not. Leaves carry a class label (classification) and a real value
// (regression / boosting).
type TreeNode struct {
	Attr  int           // split attribute; -1 for leaves
	Value feature.Value // split value
	Left  *TreeNode     // x[Attr] == Value
	Right *TreeNode     // x[Attr] != Value

	Leaf      feature.Label // class at a leaf
	LeafValue float64       // regression output at a leaf
}

// IsLeaf reports whether the node is a leaf.
func (n *TreeNode) IsLeaf() bool { return n.Attr < 0 }

// Tree is a trained decision tree.
type Tree struct {
	Root    *TreeNode
	nLabels int
}

// Predict returns the class at the leaf reached by x.
func (t *Tree) Predict(x feature.Instance) feature.Label {
	return t.leaf(x).Leaf
}

// Eval returns the regression value at the leaf reached by x.
func (t *Tree) Eval(x feature.Instance) float64 {
	return t.leaf(x).LeafValue
}

func (t *Tree) leaf(x feature.Instance) *TreeNode {
	n := t.Root
	for !n.IsLeaf() {
		if x[n.Attr] == n.Value {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n
}

// NumLabels returns the label-space size the tree was trained with.
func (t *Tree) NumLabels() int { return t.nLabels }

// NumNodes returns the total node count.
func (t *Tree) NumNodes() int {
	var count func(n *TreeNode) int
	count = func(n *TreeNode) int {
		if n == nil {
			return 0
		}
		return 1 + count(n.Left) + count(n.Right)
	}
	return count(t.Root)
}

// Depth returns the maximum root-to-leaf depth (a lone leaf has depth 0).
func (t *Tree) Depth() int {
	var depth func(n *TreeNode) int
	depth = func(n *TreeNode) int {
		if n == nil || n.IsLeaf() {
			return 0
		}
		l, r := depth(n.Left), depth(n.Right)
		if l > r {
			return 1 + l
		}
		return 1 + r
	}
	return depth(t.Root)
}

// Leaves appends every leaf together with the (attr,value,taken) path
// constraints leading to it; used by the formal explainer's SAT encoding.
func (t *Tree) Leaves() []LeafPath {
	var out []LeafPath
	var walk func(n *TreeNode, path []PathTest)
	walk = func(n *TreeNode, path []PathTest) {
		if n.IsLeaf() {
			cp := make([]PathTest, len(path))
			copy(cp, path)
			out = append(out, LeafPath{Tests: cp, Leaf: n.Leaf, Value: n.LeafValue})
			return
		}
		walk(n.Left, append(path, PathTest{Attr: n.Attr, Value: n.Value, Equal: true}))
		walk(n.Right, append(path, PathTest{Attr: n.Attr, Value: n.Value, Equal: false}))
	}
	walk(t.Root, nil)
	return out
}

// PathTest is one edge condition on a root-to-leaf path.
type PathTest struct {
	Attr  int
	Value feature.Value
	Equal bool // true: x[Attr]==Value, false: x[Attr]!=Value
}

// LeafPath is a leaf with its path constraints.
type LeafPath struct {
	Tests []PathTest
	Leaf  feature.Label
	Value float64
}

// TreeConfig controls CART training.
type TreeConfig struct {
	MaxDepth    int     // 0 means unbounded
	MinLeaf     int     // minimum samples per leaf (default 1)
	FeatureFrac float64 // fraction of features considered per split (1.0 = all)
	Seed        int64   // rng seed for feature subsampling
}

func (c TreeConfig) normalize() TreeConfig {
	if c.MinLeaf <= 0 {
		c.MinLeaf = 1
	}
	if c.FeatureFrac <= 0 || c.FeatureFrac > 1 {
		c.FeatureFrac = 1
	}
	return c
}

// TrainTree fits a CART classification tree with Gini impurity and binary
// equality splits.
func TrainTree(schema *feature.Schema, data []feature.Labeled, cfg TreeConfig) (*Tree, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("model: cannot train a tree on empty data")
	}
	cfg = cfg.normalize()
	b := &treeBuilder{
		schema:  schema,
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		nLabels: len(schema.Labels),
	}
	idx := make([]int, len(data))
	for i := range idx {
		idx[i] = i
	}
	root := b.build(data, idx, 0)
	return &Tree{Root: root, nLabels: b.nLabels}, nil
}

type treeBuilder struct {
	schema  *feature.Schema
	cfg     TreeConfig
	rng     *rand.Rand
	nLabels int
}

func (b *treeBuilder) build(data []feature.Labeled, idx []int, depth int) *TreeNode {
	counts := make([]int, b.nLabels)
	for _, i := range idx {
		counts[data[i].Y]++
	}
	majority, best := feature.Label(0), -1
	pure := true
	for y, c := range counts {
		if c > best {
			best, majority = c, feature.Label(y)
		}
		if c != 0 && c != len(idx) {
			pure = false
		}
	}
	leaf := &TreeNode{Attr: -1, Leaf: majority, LeafValue: float64(majority)}
	if pure || len(idx) < 2*b.cfg.MinLeaf || (b.cfg.MaxDepth > 0 && depth >= b.cfg.MaxDepth) {
		return leaf
	}

	attr, val, ok := b.bestSplit(data, idx, counts)
	if !ok {
		return leaf
	}
	var left, right []int
	for _, i := range idx {
		if data[i].X[attr] == val {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < b.cfg.MinLeaf || len(right) < b.cfg.MinLeaf {
		return leaf
	}
	return &TreeNode{
		Attr:  attr,
		Value: val,
		Left:  b.build(data, left, depth+1),
		Right: b.build(data, right, depth+1),
	}
}

// bestSplit scans candidate (attr, value) equality splits and returns the one
// with minimum weighted Gini impurity.
func (b *treeBuilder) bestSplit(data []feature.Labeled, idx []int, total []int) (int, feature.Value, bool) {
	n := b.schema.NumFeatures()
	feats := b.featureSubset(n)

	bestGini := gini(total, len(idx))
	bestAttr, bestVal, found := -1, feature.Value(0), false

	leftCounts := make([]int, b.nLabels)
	for _, a := range feats {
		card := b.schema.Attrs[a].Cardinality()
		if card < 2 {
			continue
		}
		// Count per-(value,label) occurrences for this attribute.
		valCounts := make([][]int, card)
		valTotals := make([]int, card)
		for _, i := range idx {
			v := data[i].X[a]
			if valCounts[v] == nil {
				valCounts[v] = make([]int, b.nLabels)
			}
			valCounts[v][data[i].Y]++
			valTotals[v]++
		}
		for v := 0; v < card; v++ {
			nl := valTotals[v]
			if nl == 0 || nl == len(idx) {
				continue
			}
			copy(leftCounts, valCounts[v])
			nr := len(idx) - nl
			g := (float64(nl)*giniOf(leftCounts, nl) + float64(nr)*giniRemainder(total, leftCounts, nr)) / float64(len(idx))
			if g < bestGini-1e-12 {
				bestGini, bestAttr, bestVal, found = g, a, feature.Value(v), true
			}
		}
	}
	return bestAttr, bestVal, found
}

func (b *treeBuilder) featureSubset(n int) []int {
	if b.cfg.FeatureFrac >= 1 {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return all
	}
	k := int(b.cfg.FeatureFrac * float64(n))
	if k < 1 {
		k = 1
	}
	perm := b.rng.Perm(n)[:k]
	sort.Ints(perm)
	return perm
}

func gini(counts []int, n int) float64 { return giniOf(counts, n) }

func giniOf(counts []int, n int) float64 {
	if n == 0 {
		return 0
	}
	s := 1.0
	for _, c := range counts {
		p := float64(c) / float64(n)
		s -= p * p
	}
	return s
}

func giniRemainder(total, left []int, n int) float64 {
	if n == 0 {
		return 0
	}
	s := 1.0
	for y := range total {
		p := float64(total[y]-left[y]) / float64(n)
		s -= p * p
	}
	return s
}

// TrainRegressionTree fits a tree minimizing squared error of targets, used
// as the base learner for gradient boosting. Splits are binary equality
// tests; leaf values are Newton steps sum(g)/(sum(h)+lambda).
func TrainRegressionTree(schema *feature.Schema, xs []feature.Instance, grad, hess []float64, cfg TreeConfig, lambda float64) (*Tree, error) {
	if len(xs) == 0 || len(xs) != len(grad) || len(grad) != len(hess) {
		return nil, fmt.Errorf("model: regression tree needs aligned non-empty xs/grad/hess")
	}
	cfg = cfg.normalize()
	b := &regBuilder{schema: schema, cfg: cfg, lambda: lambda, rng: rand.New(rand.NewSource(cfg.Seed))}
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	root := b.build(xs, grad, hess, idx, 0)
	return &Tree{Root: root, nLabels: 2}, nil
}

type regBuilder struct {
	schema *feature.Schema
	cfg    TreeConfig
	lambda float64
	rng    *rand.Rand
}

func (b *regBuilder) leafValue(grad, hess []float64, idx []int) float64 {
	var g, h float64
	for _, i := range idx {
		g += grad[i]
		h += hess[i]
	}
	return -g / (h + b.lambda)
}

func (b *regBuilder) build(xs []feature.Instance, grad, hess []float64, idx []int, depth int) *TreeNode {
	leaf := &TreeNode{Attr: -1, LeafValue: b.leafValue(grad, hess, idx)}
	if len(idx) < 2*b.cfg.MinLeaf || (b.cfg.MaxDepth > 0 && depth >= b.cfg.MaxDepth) {
		return leaf
	}
	attr, val, ok := b.bestSplit(xs, grad, hess, idx)
	if !ok {
		return leaf
	}
	var left, right []int
	for _, i := range idx {
		if xs[i][attr] == val {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < b.cfg.MinLeaf || len(right) < b.cfg.MinLeaf {
		return leaf
	}
	return &TreeNode{
		Attr:  attr,
		Value: val,
		Left:  b.build(xs, grad, hess, left, depth+1),
		Right: b.build(xs, grad, hess, right, depth+1),
	}
}

// bestSplit maximizes the XGBoost gain
// G(split) = gl²/(hl+λ) + gr²/(hr+λ) − g²/(h+λ).
func (b *regBuilder) bestSplit(xs []feature.Instance, grad, hess []float64, idx []int) (int, feature.Value, bool) {
	var gTot, hTot float64
	for _, i := range idx {
		gTot += grad[i]
		hTot += hess[i]
	}
	parent := gTot * gTot / (hTot + b.lambda)

	n := b.schema.NumFeatures()
	feats := make([]int, 0, n)
	if b.cfg.FeatureFrac >= 1 {
		for i := 0; i < n; i++ {
			feats = append(feats, i)
		}
	} else {
		k := int(b.cfg.FeatureFrac * float64(n))
		if k < 1 {
			k = 1
		}
		feats = b.rng.Perm(n)[:k]
	}

	bestGain := 1e-9
	bestAttr, bestVal, found := -1, feature.Value(0), false
	for _, a := range feats {
		card := b.schema.Attrs[a].Cardinality()
		if card < 2 {
			continue
		}
		gv := make([]float64, card)
		hv := make([]float64, card)
		cnt := make([]int, card)
		for _, i := range idx {
			v := xs[i][a]
			gv[v] += grad[i]
			hv[v] += hess[i]
			cnt[v]++
		}
		for v := 0; v < card; v++ {
			if cnt[v] == 0 || cnt[v] == len(idx) {
				continue
			}
			gl, hl := gv[v], hv[v]
			gr, hr := gTot-gl, hTot-hl
			gain := gl*gl/(hl+b.lambda) + gr*gr/(hr+b.lambda) - parent
			if gain > bestGain {
				bestGain, bestAttr, bestVal, found = gain, a, feature.Value(v), true
			}
		}
	}
	return bestAttr, bestVal, found
}
