package sat

import (
	"math/rand"
	"testing"
)

// bruteForce decides satisfiability of a CNF over n variables by enumeration.
func bruteForce(n int, cnf [][]Lit) bool {
	for mask := 0; mask < 1<<n; mask++ {
		ok := true
		for _, cl := range cnf {
			sat := false
			for _, l := range cl {
				v := l.Var() - 1
				val := mask&(1<<v) != 0
				if (l > 0) == val {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func solverFor(t testing.TB, n int, cnf [][]Lit) (*Solver, bool) {
	t.Helper()
	s := NewSolver()
	for i := 0; i < n; i++ {
		s.NewVar()
	}
	for _, cl := range cnf {
		if err := s.AddClause(cl...); err != nil {
			if err == ErrUnsatRoot {
				return s, false
			}
			t.Fatal(err)
		}
	}
	return s, true
}

func TestTrivialCases(t *testing.T) {
	s := NewSolver()
	if !s.SolveAssume() {
		t.Fatal("empty formula must be SAT")
	}
	v := s.NewVar()
	if err := s.AddClause(Lit(v)); err != nil {
		t.Fatal(err)
	}
	if !s.SolveAssume() || !s.Value(v) {
		t.Fatal("unit clause must force the variable true")
	}
	if err := s.AddClause(Lit(-v)); err != ErrUnsatRoot {
		t.Fatalf("want ErrUnsatRoot, got %v", err)
	}
	if s.SolveAssume() {
		t.Fatal("contradictory units must be UNSAT")
	}
}

func TestSmallFormulas(t *testing.T) {
	// (x1 ∨ x2) ∧ (¬x1 ∨ x2) ∧ (x1 ∨ ¬x2) ∧ (¬x1 ∨ ¬x2) — classic UNSAT.
	cnf := [][]Lit{{1, 2}, {-1, 2}, {1, -2}, {-1, -2}}
	s, ok := solverFor(t, 2, cnf)
	if ok && s.SolveAssume() {
		t.Fatal("2-var contradiction must be UNSAT")
	}
	// XOR chain, SAT.
	cnf = [][]Lit{{1, 2}, {-1, -2}, {2, 3}, {-2, -3}}
	s, ok = solverFor(t, 3, cnf)
	if !ok || !s.SolveAssume() {
		t.Fatal("XOR chain must be SAT")
	}
	if s.Value(2) == s.Value(1) || s.Value(3) == s.Value(2) {
		t.Fatal("model violates XOR constraints")
	}
}

func TestPigeonholeUnsat(t *testing.T) {
	// 4 pigeons into 3 holes: var p*3+h+1 means pigeon p in hole h.
	s := NewSolver()
	for i := 0; i < 12; i++ {
		s.NewVar()
	}
	for p := 0; p < 4; p++ {
		cl := []Lit{Lit(p*3 + 1), Lit(p*3 + 2), Lit(p*3 + 3)}
		if err := s.AddClause(cl...); err != nil {
			t.Fatal(err)
		}
	}
	for h := 1; h <= 3; h++ {
		for p1 := 0; p1 < 4; p1++ {
			for p2 := p1 + 1; p2 < 4; p2++ {
				if err := s.AddClause(Lit(-(p1*3 + h)), Lit(-(p2*3 + h))); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if s.SolveAssume() {
		t.Fatal("pigeonhole 4→3 must be UNSAT")
	}
}

// Differential test: CDCL vs brute force on random 3-SAT near the phase
// transition.
func TestRandom3SATAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 300; trial++ {
		n := 3 + rng.Intn(10)
		m := int(4.2 * float64(n))
		cnf := make([][]Lit, m)
		for i := range cnf {
			cl := make([]Lit, 3)
			for j := range cl {
				v := 1 + rng.Intn(n)
				if rng.Intn(2) == 0 {
					cl[j] = Lit(v)
				} else {
					cl[j] = Lit(-v)
				}
			}
			cnf[i] = cl
		}
		want := bruteForce(n, cnf)
		s, ok := solverFor(t, n, cnf)
		got := ok && s.SolveAssume()
		if got != want {
			t.Fatalf("trial %d: solver=%v brute=%v (n=%d m=%d cnf=%v)", trial, got, want, n, m, cnf)
		}
		if got {
			// Verify the model actually satisfies the formula.
			for _, cl := range cnf {
				holds := false
				for _, l := range cl {
					if (l > 0) == s.Value(l.Var()) {
						holds = true
						break
					}
				}
				if !holds {
					t.Fatalf("trial %d: model does not satisfy %v", trial, cl)
				}
			}
		}
	}
}

func TestAssumptions(t *testing.T) {
	// x1 → x2, x2 → x3.
	s, _ := solverFor(t, 3, [][]Lit{{-1, 2}, {-2, 3}})
	if !s.SolveAssume(1) {
		t.Fatal("assuming x1 must be SAT")
	}
	if s.SolveAssume(1, -3) {
		t.Fatal("x1 ∧ ¬x3 contradicts the chain")
	}
	// Solver must remain reusable after UNSAT-under-assumptions.
	if !s.SolveAssume(-1) {
		t.Fatal("assuming ¬x1 must be SAT")
	}
	if !s.SolveAssume() {
		t.Fatal("formula itself is SAT")
	}
}

// Differential test for assumptions against brute force with forced literals.
func TestAssumptionsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for trial := 0; trial < 150; trial++ {
		n := 4 + rng.Intn(6)
		m := 3 * n
		cnf := make([][]Lit, m)
		for i := range cnf {
			cl := make([]Lit, 1+rng.Intn(3))
			for j := range cl {
				v := 1 + rng.Intn(n)
				if rng.Intn(2) == 0 {
					cl[j] = Lit(v)
				} else {
					cl[j] = Lit(-v)
				}
			}
			cnf[i] = cl
		}
		var assumps []Lit
		for v := 1; v <= n; v++ {
			if rng.Intn(3) == 0 {
				if rng.Intn(2) == 0 {
					assumps = append(assumps, Lit(v))
				} else {
					assumps = append(assumps, Lit(-v))
				}
			}
		}
		full := append(append([][]Lit{}, cnf...), nil)
		full = full[:len(cnf)]
		for _, a := range assumps {
			full = append(full, []Lit{a})
		}
		want := bruteForce(n, full)
		s, ok := solverFor(t, n, cnf)
		got := ok && s.SolveAssume(assumps...)
		if got != want {
			t.Fatalf("trial %d: solver=%v brute=%v", trial, got, want)
		}
	}
}

func TestAddClauseValidation(t *testing.T) {
	s := NewSolver()
	s.NewVar()
	if err := s.AddClause(0); err == nil {
		t.Fatal("zero literal accepted")
	}
	if err := s.AddClause(5); err == nil {
		t.Fatal("unknown variable accepted")
	}
	// Tautology is dropped silently.
	if err := s.AddClause(1, -1); err != nil {
		t.Fatal(err)
	}
	if !s.SolveAssume() {
		t.Fatal("tautology-only formula must be SAT")
	}
}

func TestExactlyOne(t *testing.T) {
	s := NewSolver()
	lits := make([]Lit, 5)
	for i := range lits {
		lits[i] = Lit(s.NewVar())
	}
	if err := s.AddExactlyOne(lits...); err != nil {
		t.Fatal(err)
	}
	if !s.SolveAssume() {
		t.Fatal("exactly-one must be SAT")
	}
	count := 0
	for _, l := range lits {
		if s.Value(l.Var()) {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("model sets %d literals, want 1", count)
	}
	// Forcing two true is UNSAT.
	if s.SolveAssume(lits[0], lits[1]) {
		t.Fatal("two true literals must violate exactly-one")
	}
	// Forcing all false is UNSAT.
	neg := make([]Lit, 5)
	for i, l := range lits {
		neg[i] = l.Neg()
	}
	if s.SolveAssume(neg...) {
		t.Fatal("all-false must violate exactly-one")
	}
	if err := s.AddExactlyOne(); err == nil {
		t.Fatal("empty exactly-one accepted")
	}
}

// Property: AtMostK/AtLeastK agree with brute-force counting.
func TestCardinalityAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(5)
		k := rng.Intn(n + 1)
		atLeast := rng.Intn(2) == 0

		s := NewSolver()
		lits := make([]Lit, n)
		for i := range lits {
			lits[i] = Lit(s.NewVar())
		}
		var err error
		if atLeast {
			err = s.AddAtLeastK(lits, k)
		} else {
			err = s.AddAtMostK(lits, k)
		}
		if err != nil {
			t.Fatal(err)
		}
		// Check every assignment of the original n variables via assumptions.
		for mask := 0; mask < 1<<n; mask++ {
			assumps := make([]Lit, n)
			count := 0
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					assumps[i] = lits[i]
					count++
				} else {
					assumps[i] = lits[i].Neg()
				}
			}
			want := count <= k
			if atLeast {
				want = count >= k
			}
			if got := s.SolveAssume(assumps...); got != want {
				t.Fatalf("trial %d (atLeast=%v k=%d n=%d): mask %b → %v, want %v",
					trial, atLeast, k, n, mask, got, want)
			}
		}
	}
}

func TestCardinalityValidation(t *testing.T) {
	s := NewSolver()
	lits := []Lit{Lit(s.NewVar()), Lit(s.NewVar())}
	if err := s.AddAtMostK(lits, -1); err == nil {
		t.Fatal("negative k accepted")
	}
	if err := s.AddAtLeastK(lits, 3); err == nil {
		t.Fatal("k > n accepted for at-least")
	}
}
