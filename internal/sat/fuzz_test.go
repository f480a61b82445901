package sat

import "testing"

// FuzzSolver decodes arbitrary bytes into a small CNF and checks that the
// solver neither panics nor returns an invalid model, cross-checking
// satisfiable verdicts against the formula.
func FuzzSolver(f *testing.F) {
	f.Add([]byte{1, 2, 0, 255, 254, 0})
	f.Add([]byte{1, 0, 255, 0})
	f.Add([]byte{3, 4, 5, 0, 253, 252, 251, 0, 1, 254, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const nVars = 6
		s := NewSolver()
		for i := 0; i < nVars; i++ {
			s.NewVar()
		}
		var cnf [][]Lit
		var cl []Lit
		for _, b := range data {
			if b == 0 {
				if len(cl) > 0 {
					cnf = append(cnf, cl)
					cl = nil
				}
				continue
			}
			v := int(b%nVars) + 1
			l := Lit(v)
			if b >= 128 {
				l = -l
			}
			cl = append(cl, l)
			if len(cl) >= 4 {
				cnf = append(cnf, cl)
				cl = nil
			}
		}
		if len(cl) > 0 {
			cnf = append(cnf, cl)
		}
		if len(cnf) > 64 {
			cnf = cnf[:64]
		}
		rootUnsat := false
		for _, c := range cnf {
			if err := s.AddClause(c...); err == ErrUnsatRoot {
				rootUnsat = true
				break
			} else if err != nil {
				t.Fatalf("AddClause: %v", err)
			}
		}
		sat := s.SolveAssume()
		if rootUnsat && sat {
			t.Fatal("root-level UNSAT formula declared SAT")
		}
		if !sat {
			return
		}
		for _, c := range cnf {
			holds := false
			for _, l := range c {
				if (l > 0) == s.Value(l.Var()) {
					holds = true
					break
				}
			}
			if !holds {
				t.Fatalf("model violates clause %v", c)
			}
		}
	})
}
