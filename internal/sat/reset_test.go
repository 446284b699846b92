package sat

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// dirtySolver returns a solver that has grown past every instance the reset
// tests replay and run reduceDB: a 200-variable random 3-SAT instance that
// outgrows the reduction floor, solved once and then again under
// assumptions, so its arena, watch lists, heap, LBD stamps and scratch
// buffers all hold stale contents.
func dirtySolver() *Solver {
	rng := rand.New(rand.NewSource(8))
	s := NewSolver(Options{})
	for v := 0; v < 200; v++ {
		s.NewVar()
	}
	for _, cl := range randomCNF(rng, 200, 852, 3) {
		s.AddClause(cl...)
	}
	s.Solve()
	s.Solve(PosLit(3), NegLit(17))
	return s
}

// replay adds each clause group in turn to s and solves after each under
// the matching assumptions, recording every status, model and effort
// counter.
func replay(s *Solver, numVars int, groups [][][]Lit, assumptions [][]Lit) string {
	var b strings.Builder
	s.maxLearnts = 8 // white-box: reduce often, so LBDs and activities decide what stays
	for v := 0; v < numVars; v++ {
		s.NewVar()
	}
	for i, g := range groups {
		for _, cl := range g {
			s.AddClause(cl...)
		}
		st := s.Solve(assumptions[i]...)
		fmt.Fprintf(&b, "%v c=%d d=%d p=%d l=%d learnts=%d vars=%d clauses=%d model=%v\n",
			st, s.Conflicts, s.Decisions, s.Propagations, s.Learned, s.NumLearnts(),
			s.NumVars(), s.NumClauses(), s.Model())
	}
	return b.String()
}

// TestResetMatchesNewSolver checks that a reset solver is indistinguishable
// from a new one: on random incremental sessions (clause groups over a
// varying number of variables, each followed by a query under assumptions)
// a dirtied-then-reset solver gives the same statuses, models and
// Conflicts, Decisions, Propagations and NumLearnts as NewSolver does.
// One solver is reset before every session, so it carries each session's
// state into the next as well as the initial dirt.
func TestResetMatchesNewSolver(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	reused := dirtySolver()
	for iter := 0; iter < 150; iter++ {
		numVars := 5 + rng.Intn(60)
		groups := make([][][]Lit, 1+rng.Intn(4))
		assumptions := make([][]Lit, len(groups))
		for i := range groups {
			groups[i] = randomCNF(rng, numVars, numVars*(1+rng.Intn(4)), 2+rng.Intn(3))
			for k := rng.Intn(4); k > 0; k-- {
				assumptions[i] = append(assumptions[i], MkLit(rng.Intn(numVars), rng.Intn(2) == 0))
			}
		}
		opts := Options{MaxConflicts: int64(rng.Intn(3)) * 50}
		want := replay(NewSolver(opts), numVars, groups, assumptions)
		reused.Reset(opts)
		if got := replay(reused, numVars, groups, assumptions); got != want {
			t.Fatalf("iter %d (%d vars): reset solver\n%s\nnew solver\n%s", iter, numVars, got, want)
		}
	}
}

// TestResetKeepsCapacity checks that a reset solver regrows into its old
// storage: reloading the instance it held before allocates no per-variable
// slice, watch list or arena.
func TestResetKeepsCapacity(t *testing.T) {
	s := dirtySolver()
	cnf := randomCNF(rand.New(rand.NewSource(8)), 200, 852, 3)
	allocs := testing.AllocsPerRun(5, func() {
		s.Reset(Options{})
		for v := 0; v < 200; v++ {
			s.NewVar()
		}
		for _, cl := range cnf {
			s.AddClause(cl...)
		}
	})
	if allocs != 0 {
		t.Errorf("reloading a reset solver: %.0f allocations, want 0", allocs)
	}
}
