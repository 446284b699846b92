package sat

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// TestAddClauseAllocsAmortized guards the allocation-free AddClause: the
// sorted copy goes to a reused buffer and the clause into the arena, so the
// only allocations left are the amortised growth of the arena and the watch
// lists.
func TestAddClauseAllocsAmortized(t *testing.T) {
	const numVars, numClauses = 200, 10000
	cnf := randomCNF(rand.New(rand.NewSource(3)), numVars, numClauses, 3)
	allocs := testing.AllocsPerRun(5, func() {
		s := NewSolver(Options{})
		s.Grow(numVars)
		for v := 0; v < numVars; v++ {
			s.NewVar()
		}
		for _, cl := range cnf {
			s.AddClause(cl...)
		}
	})
	if perClause := allocs / numClauses; perClause >= 0.5 {
		t.Errorf("AddClause: %.2f allocations per clause (%.0f per %d clauses), want < 0.5",
			perClause, allocs, numClauses)
	}
}

// TestAddClauseDoesNotRetain checks the contract CNFBuilder and MaxSolver
// rely on: AddClause never keeps the caller's slice, so overwriting it after
// the call changes neither the verdict nor the model.
func TestAddClauseDoesNotRetain(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 20; iter++ {
		const numVars = 40
		cnf := randomCNF(rng, numVars, 150, 3)
		fresh, reused := NewSolver(Options{}), NewSolver(Options{})
		buf := make([]Lit, 3)
		for _, cl := range cnf {
			fresh.AddClause(append([]Lit(nil), cl...)...)
			copy(buf, cl)
			reused.AddClause(buf...)
			for i := range buf {
				buf[i] = MkLit(rng.Intn(numVars), rng.Intn(2) == 0)
			}
		}
		want, got := fresh.Solve(), reused.Solve()
		if got != want {
			t.Fatalf("iter %d: verdict %v after overwriting added clauses, want %v", iter, got, want)
		}
		if got != StatusSat {
			continue
		}
		checkModel(t, cnf, reused.Model())
		for v := 0; v < numVars; v++ {
			if fresh.ModelValue(v) != reused.ModelValue(v) {
				t.Fatalf("iter %d: model differs at var %d after overwriting added clauses", iter, v)
			}
		}
	}
}

// FuzzSolver cross-checks the CDCL solver against the naive DPLL oracle on
// small incremental sessions decoded from the fuzz input: clauses of one to
// four literals over at most 12 variables — duplicates, tautologies and the
// empty clause included — interleaved with queries under assumptions. A
// learnt-clause budget of one (white-box) makes every query run reduceDB,
// so arena compaction, reason relocation and the rebuilt watches are
// exercised between queries. Every verdict must match the oracle's, and
// every model must satisfy every clause added so far and every assumption.
// Each session also runs on one reused solver, reset before it and dirtied
// by a larger instance and every earlier session, which must repeat the new
// solver's verdicts, models and effort counters exactly.
func FuzzSolver(f *testing.F) {
	// Seeds: random 4-SAT sessions over 12 variables up to about the phase
	// transition, a query after every fourth clause. Wide clauses make deep
	// enough searches for learnt clauses that reduceDB may remove.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		seed := []byte{11}
		for c := 0; c < 100+rng.Intn(40); c++ {
			seed = append(seed, 0x33)
			for k := 0; k < 4; k++ {
				seed = append(seed, byte(rng.Intn(256)))
			}
			if c%4 == 3 {
				op := byte(rng.Intn(0x30))
				seed = append(seed, op)
				for k := 0; k < int(op%4); k++ {
					seed = append(seed, byte(rng.Intn(256)))
				}
			}
		}
		f.Add(seed)
	}
	f.Add([]byte{3, 0x40, 0, 2, 0x41, 1, 3, 0x00, 0xff, 0x01, 4})
	reused := NewSolver(Options{})
	f.Fuzz(func(t *testing.T, data []byte) {
		want := fuzzSession(t, NewSolver(Options{}), data)
		reused.Reset(Options{})
		if got := fuzzSession(t, reused, data); got != want {
			t.Fatalf("reset solver\n%s\nnew solver\n%s", got, want)
		}
	})
}

// fuzzSession runs the session data encodes on s, checking it against the
// naive oracle, and returns its transcript: each query's verdict, model and
// effort counters.
func fuzzSession(t *testing.T, s *Solver, data []byte) string {
	var transcript strings.Builder
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	numVars := 1 + int(next()%12)
	lit := func() Lit {
		b := next()
		return MkLit(int(b>>1)%numVars, b&1 == 1)
	}
	ref := NewNaive()
	s.maxLearnts = 1 // white-box: reduce the learnt database on every query
	for v := 0; v < numVars; v++ {
		s.NewVar()
		ref.NewVar()
	}
	var clauses [][]Lit
	query := func(assumptions []Lit) {
		got := s.Solve(assumptions...)
		want, _ := ref.Solve(assumptions...)
		if got != want {
			t.Fatalf("verdict %v, naive %v (clauses %v, assumptions %v)", got, want, clauses, assumptions)
		}
		fmt.Fprintf(&transcript, "%v c=%d d=%d p=%d l=%d r=%d model=%v\n",
			got, s.Conflicts, s.Decisions, s.Propagations, s.Learned, s.Removed, s.Model())
		if got != StatusSat {
			return
		}
		model := s.Model()
		checkModel(t, clauses, model)
		for _, a := range assumptions {
			if v := model[a.Var()]; (v == True) == a.IsNeg() {
				t.Fatalf("model violates assumption %v (clauses %v)", a, clauses)
			}
		}
	}
	for len(data) > 0 {
		switch op := next(); {
		case op < 0x30: // a query under up to three assumptions
			assumptions := make([]Lit, int(op%4))
			for i := range assumptions {
				assumptions[i] = lit()
			}
			query(assumptions)
		case op == 0xff: // the empty clause
			clauses = append(clauses, nil)
			s.AddClause()
			ref.AddClause()
		default:
			cl := make([]Lit, 1+int(op%4))
			for i := range cl {
				cl[i] = lit()
			}
			clauses = append(clauses, cl)
			s.AddClause(cl...)
			ref.AddClause(cl...)
		}
	}
	query(nil)
	return transcript.String()
}
