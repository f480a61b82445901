// Package sat implements a CDCL (conflict-driven clause learning) SAT solver
// with two-watched-literal propagation, first-UIP clause learning, VSIDS-like
// activities, geometric restarts, and incremental solving under assumptions.
// It is the reasoning substrate of the formal explainer (the paper's Xreason
// baseline uses a MaxSAT solver; deletion-based prime implicants only need
// repeated SAT calls, which assumptions make cheap).
package sat

import (
	"errors"
	"fmt"
)

// Lit is a literal: +v for variable v, -v for its negation, with v ≥ 1.
type Lit int32

// Var returns the 1-based variable of the literal.
func (l Lit) Var() int {
	if l < 0 {
		return int(-l)
	}
	return int(l)
}

// Neg returns the complementary literal.
func (l Lit) Neg() Lit { return -l }

// internal literal encoding: variable v (0-based) → 2v positive, 2v+1 negative.
type ilit uint32

func toILit(l Lit) ilit {
	if l > 0 {
		return ilit(2 * (uint32(l) - 1))
	}
	return ilit(2*(uint32(-l)-1) + 1)
}

func (il ilit) neg() ilit  { return il ^ 1 }
func (il ilit) vidx() int  { return int(il >> 1) }
func (il ilit) sign() bool { return il&1 == 1 } // true for negated

const (
	valUndef int8 = -1
	valFalse int8 = 0
	valTrue  int8 = 1
)

type clause struct {
	lits    []ilit
	learned bool
	act     float64
}

type watcher struct {
	cref    int  // index into clauses
	blocker ilit // cached literal whose truth satisfies the clause
}

// Solver is a CDCL SAT solver. The zero value is not usable; call NewSolver.
type Solver struct {
	clauses []*clause
	watches [][]watcher // indexed by ilit

	assign  []int8 // per variable
	level   []int  // decision level per variable
	reason  []int  // clause index forcing the variable, or -1
	trail   []ilit
	trailLo []int // trail index at the start of each decision level

	activity []float64
	varInc   float64

	seen     []bool
	unsatEOF bool // true once an empty clause was added

	// lastModel snapshots the satisfying assignment of the most recent
	// successful solve, so Value works after the trail is unwound.
	lastModel []bool
}

// NewSolver returns an empty solver.
func NewSolver() *Solver {
	return &Solver{varInc: 1}
}

// NewVar allocates a fresh variable, returning its 1-based index.
func (s *Solver) NewVar() int {
	s.assign = append(s.assign, valUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, -1)
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, nil, nil)
	return len(s.assign)
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return len(s.assign) }

// ErrUnsatRoot is returned by AddClause when the clause set is trivially
// unsatisfiable at the root level.
var ErrUnsatRoot = errors.New("sat: formula is unsatisfiable at the root level")

// AddClause adds a clause over existing variables. Duplicate literals are
// merged; tautologies are dropped. Must be called at decision level 0.
func (s *Solver) AddClause(lits ...Lit) error {
	if len(s.trailLo) != 0 {
		return fmt.Errorf("sat: AddClause requires decision level 0")
	}
	// Normalize: sort-free dedup via map semantics on small clauses.
	norm := make([]ilit, 0, len(lits))
outer:
	for _, l := range lits {
		if l == 0 || l.Var() > s.NumVars() {
			return fmt.Errorf("sat: literal %d references unknown variable", l)
		}
		il := toILit(l)
		switch s.assign[il.vidx()] {
		case valTrue:
			if !il.sign() {
				return nil // already satisfied at root
			}
			continue // root-false literal, drop
		case valFalse:
			if il.sign() {
				return nil
			}
			continue
		}
		for _, e := range norm {
			if e == il {
				continue outer
			}
			if e == il.neg() {
				return nil // tautology
			}
		}
		norm = append(norm, il)
	}
	switch len(norm) {
	case 0:
		s.unsatEOF = true
		return ErrUnsatRoot
	case 1:
		if !s.enqueue(norm[0], -1) {
			s.unsatEOF = true
			return ErrUnsatRoot
		}
		if s.propagate() >= 0 {
			s.unsatEOF = true
			return ErrUnsatRoot
		}
		return nil
	}
	s.attach(&clause{lits: norm})
	return nil
}

func (s *Solver) attach(c *clause) int {
	cref := len(s.clauses)
	s.clauses = append(s.clauses, c)
	s.watches[c.lits[0].neg()] = append(s.watches[c.lits[0].neg()], watcher{cref, c.lits[1]})
	s.watches[c.lits[1].neg()] = append(s.watches[c.lits[1].neg()], watcher{cref, c.lits[0]})
	return cref
}

// value returns the current truth value of an internal literal.
func (s *Solver) value(il ilit) int8 {
	v := s.assign[il.vidx()]
	if v == valUndef {
		return valUndef
	}
	if il.sign() {
		return 1 - v
	}
	return v
}

// enqueue assigns a literal true with the given reason; returns false on an
// immediate conflict with the current assignment.
func (s *Solver) enqueue(il ilit, reason int) bool {
	switch s.value(il) {
	case valTrue:
		return true
	case valFalse:
		return false
	}
	v := il.vidx()
	if il.sign() {
		s.assign[v] = valFalse
	} else {
		s.assign[v] = valTrue
	}
	s.level[v] = len(s.trailLo)
	s.reason[v] = reason
	s.trail = append(s.trail, il)
	return true
}

// propagate runs unit propagation; it returns the index of a conflicting
// clause or -1.
func (s *Solver) propagate() int {
	qhead := 0
	// Propagation must consider everything enqueued since the last call;
	// track a persistent head instead: simplest correct approach is to scan
	// from the first unpropagated trail entry. We store it implicitly: all
	// entries are propagated in this loop before returning.
	for qhead < len(s.trail) {
		il := s.trail[qhead]
		qhead++
		ws := s.watches[il]
		kept := ws[:0]
		var conflict = -1
		for wi := 0; wi < len(ws); wi++ {
			w := ws[wi]
			if s.value(w.blocker) == valTrue {
				kept = append(kept, w)
				continue
			}
			c := s.clauses[w.cref]
			// Ensure the false literal is at position 1.
			falseLit := il.neg()
			if c.lits[0] == falseLit {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			first := c.lits[0]
			if first != w.blocker && s.value(first) == valTrue {
				kept = append(kept, watcher{w.cref, first})
				continue
			}
			// Look for a new literal to watch.
			moved := false
			for k := 2; k < len(c.lits); k++ {
				if s.value(c.lits[k]) != valFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watches[c.lits[1].neg()] = append(s.watches[c.lits[1].neg()], watcher{w.cref, first})
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			// Clause is unit or conflicting.
			kept = append(kept, watcher{w.cref, first})
			if !s.enqueue(first, w.cref) {
				// Conflict: keep remaining watchers and report.
				kept = append(kept, ws[wi+1:]...)
				conflict = w.cref
				break
			}
		}
		s.watches[il] = kept
		if conflict >= 0 {
			return conflict
		}
	}
	return -1
}

func (s *Solver) decisionLevel() int { return len(s.trailLo) }

func (s *Solver) newDecisionLevel() { s.trailLo = append(s.trailLo, len(s.trail)) }

// cancelUntil backtracks to the given decision level.
func (s *Solver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	lo := s.trailLo[lvl]
	for i := len(s.trail) - 1; i >= lo; i-- {
		v := s.trail[i].vidx()
		s.assign[v] = valUndef
		s.reason[v] = -1
	}
	s.trail = s.trail[:lo]
	s.trailLo = s.trailLo[:lvl]
}

// analyze performs first-UIP conflict analysis, returning the learned clause
// (with the asserting literal first) and the backjump level.
func (s *Solver) analyze(conflict int) ([]ilit, int) {
	learned := []ilit{0} // placeholder for the asserting literal
	counter := 0
	var p ilit
	pSet := false
	idx := len(s.trail) - 1
	cref := conflict

	for {
		c := s.clauses[cref]
		for _, q := range c.lits {
			if pSet && q == p {
				continue
			}
			v := q.vidx()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.bumpVar(v)
			if s.level[v] == s.decisionLevel() {
				counter++
			} else {
				learned = append(learned, q)
			}
		}
		// Find the next seen literal on the trail.
		for !s.seen[s.trail[idx].vidx()] {
			idx--
		}
		p = s.trail[idx]
		pSet = true
		idx--
		v := p.vidx()
		s.seen[v] = false
		counter--
		if counter == 0 {
			learned[0] = p.neg()
			break
		}
		cref = s.reason[v]
	}
	// Clear seen flags for the learned clause and compute backjump level.
	back := 0
	if len(learned) > 1 {
		maxI := 1
		for i := 2; i < len(learned); i++ {
			if s.level[learned[i].vidx()] > s.level[learned[maxI].vidx()] {
				maxI = i
			}
		}
		learned[1], learned[maxI] = learned[maxI], learned[1]
		back = s.level[learned[1].vidx()]
	}
	for _, q := range learned {
		s.seen[q.vidx()] = false
	}
	return learned, back
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
}

// pickBranch returns an unassigned variable with maximal activity, or -1.
func (s *Solver) pickBranch() int {
	best, bestAct := -1, -1.0
	for v, a := range s.assign {
		if a == valUndef && s.activity[v] > bestAct {
			best, bestAct = v, s.activity[v]
		}
	}
	return best
}

// SolveAssume solves under the given assumption literals; the solver state is
// reusable afterwards (assumptions are retracted).
func (s *Solver) SolveAssume(assumps ...Lit) bool {
	defer s.cancelUntil(0)
	if s.unsatEOF {
		return false
	}
	if s.propagate() >= 0 {
		s.unsatEOF = true
		return false
	}
	conflictBudget := 100
	for {
		// (Re)establish assumptions after any restart.
		if !s.pushAssumptions(assumps) {
			return false
		}
		res := s.search(conflictBudget, len(assumps))
		switch res {
		case 1:
			s.lastModel = s.model()
			return true
		case 0:
			return false
		}
		// Budget exhausted: restart with a larger budget.
		s.cancelUntil(0)
		conflictBudget = int(float64(conflictBudget) * 1.5)
	}
}

// pushAssumptions enqueues assumptions as decision levels; returns false on
// conflict with the formula.
func (s *Solver) pushAssumptions(assumps []Lit) bool {
	for _, a := range assumps {
		il := toILit(a)
		switch s.value(il) {
		case valTrue:
			continue
		case valFalse:
			return false
		}
		s.newDecisionLevel()
		s.enqueue(il, -1)
		if s.propagate() >= 0 {
			return false
		}
	}
	return true
}

// search runs CDCL until SAT (1), UNSAT (0), or conflict budget exhaustion
// (-1). Conflicts below the assumption levels mean UNSAT under assumptions.
func (s *Solver) search(budget, nAssume int) int {
	conflicts := 0
	for {
		cref := s.propagate()
		if cref >= 0 {
			conflicts++
			if s.decisionLevel() <= nAssume {
				return 0 // conflict at or below the assumption levels
			}
			learned, back := s.analyze(cref)
			if back < nAssume {
				back = nAssume
			}
			s.cancelUntil(back)
			if len(learned) == 1 {
				if s.decisionLevel() > 0 {
					// Unit learned clause must be asserted at level 0;
					// backtrack fully and re-establish assumptions by
					// reporting budget exhaustion (restart path).
					s.cancelUntil(0)
					if !s.enqueue(learned[0], -1) || s.propagate() >= 0 {
						s.unsatEOF = true
						return 0
					}
					return -1
				}
				if !s.enqueue(learned[0], -1) {
					return 0
				}
			} else {
				cl := &clause{lits: learned, learned: true}
				cref := s.attach(cl)
				if !s.enqueue(learned[0], cref) {
					return 0
				}
			}
			s.varInc *= 1.05
			if conflicts >= budget {
				return -1
			}
			continue
		}
		v := s.pickBranch()
		if v < 0 {
			return 1 // all variables assigned: SAT
		}
		s.newDecisionLevel()
		// Phase heuristic: try false first (common for one-hot encodings).
		s.enqueue(ilit(2*uint32(v)+1), -1)
	}
}

// Value returns the model value of variable v (1-based) after a satisfiable
// Solve; variables created after that solve report false.
func (s *Solver) Value(v int) bool {
	if v < 1 || v > len(s.lastModel) {
		return false
	}
	return s.lastModel[v-1]
}

// model snapshots the current assignment as a slice indexed by variable-1,
// for Value: after SolveAssume returns, the trail is unwound.
func (s *Solver) model() []bool {
	m := make([]bool, s.NumVars())
	for v := range m {
		m[v] = s.assign[v] == valTrue
	}
	return m
}
