package formal

import (
	"fmt"

	"github.com/xai-db/relativekeys/internal/feature"
	"github.com/xai-db/relativekeys/internal/model"
	"github.com/xai-db/relativekeys/internal/sat"
)

// ensembleSemantics selects how tree outputs combine into a prediction.
type ensembleSemantics int

const (
	// treeSemantics: a single tree, prediction = leaf class.
	treeSemantics ensembleSemantics = iota
	// forestSemantics: majority vote over binary classes, ties to class 0.
	forestSemantics
)

// satOracle encodes an ensemble into CNF once per target class and answers
// counterexample queries with incremental SAT calls under assumptions.
type satOracle struct {
	schema *feature.Schema
	trees  []*model.Tree
	sem    ensembleSemantics

	// per target class c, a solver whose formula is satisfiable iff some
	// instance is predicted differently from c; built lazily.
	solvers map[feature.Label]*sat.Solver
	// featVars[c][a][v] is the one-hot SAT variable of solvers[c] for
	// feature a = value v.
	featVars map[feature.Label][][]int
}

func newSATOracle(schema *feature.Schema, trees []*model.Tree, sem ensembleSemantics) (*satOracle, error) {
	if len(trees) == 0 {
		return nil, fmt.Errorf("formal: empty ensemble")
	}
	if sem == treeSemantics && len(trees) != 1 {
		return nil, fmt.Errorf("formal: tree semantics requires exactly one tree")
	}
	return &satOracle{
		schema:   schema,
		trees:    trees,
		sem:      sem,
		solvers:  map[feature.Label]*sat.Solver{},
		featVars: map[feature.Label][][]int{},
	}, nil
}

// build constructs the CNF "prediction ≠ c" for target class c.
func (o *satOracle) build(c feature.Label) (*sat.Solver, [][]int, error) {
	s := sat.NewSolver()
	n := o.schema.NumFeatures()
	fv := make([][]int, n)
	for a := 0; a < n; a++ {
		card := o.schema.Attrs[a].Cardinality()
		fv[a] = make([]int, card)
		lits := make([]sat.Lit, card)
		for v := 0; v < card; v++ {
			fv[a][v] = s.NewVar()
			lits[v] = sat.Lit(fv[a][v])
		}
		if err := s.AddExactlyOne(lits...); err != nil {
			return nil, nil, err
		}
	}

	// Leaf indicators per tree with path-equivalence clauses, plus per-tree
	// class-1 vote literals.
	voteLits := make([]sat.Lit, 0, len(o.trees))
	var diffLeafLits []sat.Lit // single-tree case: leaves with class ≠ c
	for _, t := range o.trees {
		leaves := t.Leaves()
		leafVars := make([]int, len(leaves))
		classLits := map[feature.Label][]sat.Lit{}
		for j, lp := range leaves {
			lv := s.NewVar()
			leafVars[j] = lv
			// l → each path test.
			pathLits := make([]sat.Lit, 0, len(lp.Tests))
			for _, pt := range lp.Tests {
				lit := sat.Lit(fv[pt.Attr][pt.Value])
				if !pt.Equal {
					lit = lit.Neg()
				}
				pathLits = append(pathLits, lit)
				if err := s.AddClause(sat.Lit(lv).Neg(), lit); err != nil {
					return nil, nil, err
				}
			}
			// path → l.
			cl := make([]sat.Lit, 0, len(pathLits)+1)
			for _, pl := range pathLits {
				cl = append(cl, pl.Neg())
			}
			cl = append(cl, sat.Lit(lv))
			if err := s.AddClause(cl...); err != nil {
				return nil, nil, err
			}
			classLits[lp.Leaf] = append(classLits[lp.Leaf], sat.Lit(lv))
			if o.sem == treeSemantics && lp.Leaf != c {
				diffLeafLits = append(diffLeafLits, sat.Lit(lv))
			}
		}
		if o.sem == forestSemantics {
			// vote ↔ OR(leaves with class 1).
			vote := sat.Lit(s.NewVar())
			ones := classLits[1]
			if len(ones) == 0 {
				// Tree never predicts 1: vote is false.
				if err := s.AddClause(vote.Neg()); err != nil {
					return nil, nil, err
				}
			} else {
				cl := append(append([]sat.Lit{}, ones...), vote.Neg())
				if err := s.AddClause(cl...); err != nil {
					return nil, nil, err
				}
				for _, l := range ones {
					if err := s.AddClause(l.Neg(), vote); err != nil {
						return nil, nil, err
					}
				}
			}
			voteLits = append(voteLits, vote)
		}
	}

	switch o.sem {
	case treeSemantics:
		if len(diffLeafLits) == 0 {
			// The tree is constant c: no counterexample can exist. Encode an
			// unsatisfiable formula.
			v := sat.Lit(s.NewVar())
			if err := s.AddClause(v); err != nil {
				return nil, nil, err
			}
			if err := s.AddClause(v.Neg()); err != nil && err != sat.ErrUnsatRoot {
				return nil, nil, err
			}
		} else if err := s.AddClause(diffLeafLits...); err != nil && err != sat.ErrUnsatRoot {
			return nil, nil, err
		}
	case forestSemantics:
		T := len(o.trees)
		var err error
		if c == 0 {
			// Different prediction means 1: votes₁ ≥ ⌊T/2⌋+1.
			err = s.AddAtLeastK(voteLits, T/2+1)
		} else {
			// Different prediction means 0 (ties go to 0): votes₁ ≤ ⌊T/2⌋.
			err = s.AddAtMostK(voteLits, T/2)
		}
		if err != nil && err != sat.ErrUnsatRoot {
			return nil, nil, err
		}
	}
	return s, fv, nil
}

// exists implements counterexampleOracle via a SAT call assuming the fixed
// features' one-hot variables.
func (o *satOracle) exists(x feature.Instance, E []bool) (bool, error) {
	c := o.predict(x)
	s, ok := o.solvers[c]
	if !ok {
		var fv [][]int
		var err error
		s, fv, err = o.build(c)
		if err != nil {
			return false, err
		}
		o.solvers[c] = s
		o.featVars[c] = fv
	}
	fv := o.featVars[c]
	assumps := make([]sat.Lit, 0, len(x))
	for a, fixed := range E {
		if fixed {
			assumps = append(assumps, sat.Lit(fv[a][x[a]]))
		}
	}
	return s.SolveAssume(assumps...), nil
}

func (o *satOracle) predict(x feature.Instance) feature.Label {
	if o.sem == treeSemantics {
		return o.trees[0].Predict(x)
	}
	votes := 0
	for _, t := range o.trees {
		if t.Predict(x) == 1 {
			votes++
		}
	}
	if votes > len(o.trees)-votes {
		return 1
	}
	return 0
}
