package sat

import (
	"math/rand"
	"testing"
)

func TestMaxSatAllSoftSatisfiable(t *testing.T) {
	m := NewMaxSolver(2)
	m.AddHard(PosLit(0), PosLit(1))
	m.AddSoft(1, PosLit(0))
	m.AddSoft(1, PosLit(1))
	res := m.Solve()
	if res.Status != StatusSat || res.Cost != 0 {
		t.Fatalf("res = %+v, want SAT cost 0", res)
	}
}

func TestMaxSatForcedViolation(t *testing.T) {
	// Hard: exactly one of a, b. Soft: both. One soft clause must break.
	m := NewMaxSolver(2)
	m.AddHard(PosLit(0), PosLit(1))
	m.AddHard(NegLit(0), NegLit(1))
	m.AddSoft(2, PosLit(0))
	m.AddSoft(3, PosLit(1))
	res := m.Solve()
	if res.Status != StatusSat {
		t.Fatalf("status = %v", res.Status)
	}
	if res.Cost != 2 {
		t.Errorf("cost = %d, want 2 (violate the cheaper soft clause)", res.Cost)
	}
	if res.Model[1] != True {
		t.Error("heavier soft clause should be satisfied")
	}
}

func TestMaxSatHardUnsat(t *testing.T) {
	m := NewMaxSolver(1)
	m.AddHard(PosLit(0))
	m.AddHard(NegLit(0))
	m.AddSoft(1, PosLit(0))
	if res := m.Solve(); res.Status != StatusUnsat {
		t.Errorf("status = %v, want UNSAT", res.Status)
	}
}

func TestMaxSatNoSoft(t *testing.T) {
	m := NewMaxSolver(1)
	m.AddHard(PosLit(0))
	res := m.Solve()
	if res.Status != StatusSat || res.Cost != 0 {
		t.Errorf("res = %+v", res)
	}
}

// bruteForceMaxSat enumerates all assignments to find the optimal cost.
func bruteForceMaxSat(numVars int, hard [][]Lit, soft []SoftClause) (int, bool) {
	best := -1
	satisfies := func(model uint, cl []Lit) bool {
		for _, l := range cl {
			bit := model>>uint(l.Var())&1 == 1
			if bit != l.IsNeg() {
				return true
			}
		}
		return false
	}
	for model := uint(0); model < 1<<uint(numVars); model++ {
		ok := true
		for _, cl := range hard {
			if !satisfies(model, cl) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		cost := 0
		for _, sc := range soft {
			if !satisfies(model, sc.Lits) {
				cost += sc.Weight
			}
		}
		if best < 0 || cost < best {
			best = cost
		}
	}
	return best, best >= 0
}

func TestMaxSatDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 120; iter++ {
		numVars := 3 + rng.Intn(6)
		m := NewMaxSolver(numVars)
		var hard [][]Lit
		var soft []SoftClause
		for i := 0; i < numVars; i++ {
			cl := randomCNF(rng, numVars, 1, 2)[0]
			hard = append(hard, cl)
			m.AddHard(cl...)
		}
		nSoft := 1 + rng.Intn(5)
		for i := 0; i < nSoft; i++ {
			cl := randomCNF(rng, numVars, 1, 1+rng.Intn(2))[0]
			w := 1 + rng.Intn(4)
			soft = append(soft, SoftClause{Lits: cl, Weight: w})
			m.AddSoft(w, cl...)
		}
		res := m.Solve()
		wantCost, feasible := bruteForceMaxSat(numVars, hard, soft)
		if !feasible {
			if res.Status != StatusUnsat {
				t.Fatalf("iter %d: got %v, want UNSAT", iter, res.Status)
			}
			continue
		}
		if res.Status != StatusSat {
			t.Fatalf("iter %d: status %v, want SAT", iter, res.Status)
		}
		if res.Cost != wantCost {
			t.Fatalf("iter %d: cost %d, want %d", iter, res.Cost, wantCost)
		}
	}
}

func countTrue(model []Tribool, vars []int) int {
	n := 0
	for _, v := range vars {
		if model[v] == True {
			n++
		}
	}
	return n
}

// TestEncodeAtMost checks the counter encoding as a plain cardinality
// constraint: every weight one.
func TestEncodeAtMost(t *testing.T) {
	for n := 1; n <= 6; n++ {
		for k := 0; k <= n; k++ {
			s := NewSolver(Options{})
			vars := make([]int, n)
			lits := make([]Lit, n)
			for i := range vars {
				vars[i] = s.NewVar()
				lits[i] = PosLit(vars[i])
			}
			weights := make([]int, n)
			for i := range weights {
				weights[i] = 1
			}
			encodeWeightedAtMost(s, lits, weights, k)
			// Force k+1 of them true: must be UNSAT (when k < n).
			if k < n {
				var assume []Lit
				for i := 0; i <= k; i++ {
					assume = append(assume, lits[i])
				}
				if st := s.Solve(assume...); st != StatusUnsat {
					t.Errorf("n=%d k=%d: forcing %d true gave %v, want UNSAT", n, k, k+1, st)
				}
			}
			// Forcing exactly k true must be SAT.
			var assume []Lit
			for i := 0; i < n; i++ {
				if i < k {
					assume = append(assume, lits[i])
				} else {
					assume = append(assume, lits[i].Not())
				}
			}
			if st := s.Solve(assume...); st != StatusSat {
				t.Errorf("n=%d k=%d: exactly k true gave %v, want SAT", n, k, st)
			}
		}
	}
}

func TestMaxSatBudgetReturnsBestSoFar(t *testing.T) {
	m := NewMaxSolver(2)
	m.MaxConflicts = 1_000_000 // generous; just exercises the code path
	m.AddHard(PosLit(0), PosLit(1))
	m.AddSoft(1, NegLit(0))
	m.AddSoft(1, NegLit(1))
	res := m.Solve()
	if res.Status != StatusSat {
		t.Fatalf("status = %v", res.Status)
	}
	if res.Cost > 1 {
		t.Errorf("cost = %d, want <= 1", res.Cost)
	}
}
