package sat

import (
	"math/rand"
	"testing"
)

// effort is the search-effort fingerprint of a solver: every counter the
// CDCL loop advances. Equal fingerprints on the same clause stream mean the
// same decisions, conflicts, learnt clauses and reductions in the same order.
type effort struct {
	Status                                               Status
	Conflicts, Decisions, Propagations, Learned, Removed int64
}

func effortOf(s *Solver, st Status) effort {
	return effort{st, s.Conflicts, s.Decisions, s.Propagations, s.Learned, s.Removed}
}

// TestSolverEffortPinned pins the exact search the default solver performs:
// the constant restart unit, decay factors and reduction floor, the initial
// phase, and the Luby restart and LBD reduction schedules. The verdict tests
// elsewhere in this package would still pass if any of those drifted; the
// study's golden CSVs see the search only indirectly, through verdicts under
// a conflict budget and the incremental sessions' carried-learnt count. The
// expected values were recorded while restart pacing,
// decay, initial phase and the reduction floor were still options, so they
// also pin the constants to the defaults those options had.
func TestSolverEffortPinned(t *testing.T) {
	random3SAT := func(seed int64, numVars int, ratio float64) func() (*Solver, Status) {
		return func() (*Solver, Status) {
			rng := rand.New(rand.NewSource(seed))
			s := NewSolver(Options{})
			for v := 0; v < numVars; v++ {
				s.NewVar()
			}
			for _, cl := range randomCNF(rng, numVars, int(float64(numVars)*ratio), 3) {
				s.AddClause(cl...)
			}
			return s, s.Solve()
		}
	}
	cases := []struct {
		name  string
		solve func() (*Solver, Status)
		want  effort
	}{
		{"3sat-seed1-v120", random3SAT(1, 120, 4.26), effort{StatusUnsat, 1416, 1679, 37443, 1407, 0}},
		{"3sat-seed27-v160", random3SAT(27, 160, 4.4), effort{StatusSat, 1040, 1357, 33354, 1040, 0}},
		// These two outgrow the 4000-clause reduction floor.
		{"3sat-seed8-v200", random3SAT(8, 200, 4.26), effort{StatusSat, 4374, 5344, 167243, 4374, 1998}},
		{"3sat-seed23-v160", random3SAT(23, 160, 4.4), effort{StatusUnsat, 5368, 6444, 173888, 5359, 1987}},
		{"php-8-7", func() (*Solver, Status) {
			s := NewSolver(Options{})
			pigeonhole(s, 8, 7)
			return s, s.Solve()
		}, effort{StatusUnsat, 3162, 3860, 38803, 3157, 0}},
	}
	for _, c := range cases {
		s, st := c.solve()
		if got := effortOf(s, st); got != c.want {
			t.Errorf("%s: effort %v, want %v", c.name, got, c.want)
		}
	}

	// One long-lived solver answering a sequence of queries under
	// assumptions, as the incremental analyzer drives it: learnt clauses,
	// activities and saved phases carry from each call into the next.
	rng := rand.New(rand.NewSource(11))
	const numVars = 100
	s := NewSolver(Options{})
	for v := 0; v < numVars; v++ {
		s.NewVar()
	}
	for _, cl := range randomCNF(rng, numVars, 410, 3) {
		s.AddClause(cl...)
	}
	// Cumulative counters after each query.
	wantSeq := []effort{
		{StatusSat, 91, 119, 2139, 91, 0},
		{StatusSat, 373, 459, 8740, 373, 0},
		{StatusUnsat, 397, 489, 9317, 397, 0},
		{StatusSat, 401, 511, 9474, 401, 0},
		{StatusSat, 429, 556, 10316, 429, 0},
		{StatusUnsat, 477, 608, 11538, 477, 0},
		{StatusUnsat, 702, 880, 16959, 701, 0},
		{StatusSat, 768, 969, 18522, 767, 0},
		{StatusUnsat, 831, 1042, 19895, 830, 0},
		{StatusSat, 879, 1112, 21076, 878, 0},
	}
	for q, want := range wantSeq {
		var assumptions []Lit
		for len(assumptions) < 1+q%6 {
			assumptions = append(assumptions, MkLit(rng.Intn(numVars), rng.Intn(2) == 0))
		}
		if got := effortOf(s, s.Solve(assumptions...)); got != want {
			t.Fatalf("assumption query %d: effort %v, want %v", q, got, want)
		}
	}
}
