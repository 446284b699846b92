package sat

import (
	"context"
	"sort"

	"specrepair/internal/telemetry"
)

// SoftClause is a weighted soft clause for partial MaxSAT.
type SoftClause struct {
	Lits   []Lit
	Weight int
}

// MaxSolver solves weighted partial MaxSAT: find a model satisfying all hard
// clauses that minimizes the total weight of violated soft clauses. It is
// the PMaxSAT engine behind ATR's satisfying-instance search.
//
// The implementation relaxes each soft clause with a fresh relaxation
// variable and performs a linear search on the cost bound, re-encoding the
// bound with a sequential-counter cardinality constraint each iteration.
type MaxSolver struct {
	numVars int
	// hardLits holds the hard clauses back to back; hard clause i ends at
	// hardEnds[i].
	hardLits []Lit
	hardEnds []int
	soft     []SoftClause
	// MaxConflicts bounds each underlying SAT call; 0 means unlimited.
	MaxConflicts int64
	// Context, when non-nil, cancels the underlying SAT searches; an
	// expired context makes the linear search return the best model found
	// so far (or StatusUnknown when none was).
	Context context.Context
	// Telemetry is handed to every underlying SAT solver, so each
	// iteration of the linear search records its own solve.
	Telemetry *telemetry.Collector
	// Span, when non-nil, parents the sat.solve trace spans of every
	// underlying SAT call.
	Span *telemetry.Span
}

// NewMaxSolver returns an empty MaxSAT solver over numVars problem variables.
func NewMaxSolver(numVars int) *MaxSolver {
	return &MaxSolver{numVars: numVars}
}

// AddHard adds a hard clause.
func (m *MaxSolver) AddHard(lits ...Lit) {
	m.hardLits = append(m.hardLits, lits...)
	m.hardEnds = append(m.hardEnds, len(m.hardLits))
}

// NewVar allocates a fresh problem variable, letting the MaxSolver act as a
// clause sink for CNF builders.
func (m *MaxSolver) NewVar() int {
	v := m.numVars
	m.numVars++
	return v
}

// NumVars returns the number of problem variables.
func (m *MaxSolver) NumVars() int { return m.numVars }

// AddClause adds a hard clause (ClauseSink compatibility); always true.
func (m *MaxSolver) AddClause(lits ...Lit) bool {
	m.AddHard(lits...)
	return true
}

// AddSoft adds a soft clause with the given positive weight.
func (m *MaxSolver) AddSoft(weight int, lits ...Lit) {
	m.soft = append(m.soft, SoftClause{Lits: append([]Lit(nil), lits...), Weight: weight})
}

// Result is the outcome of a MaxSAT solve.
type Result struct {
	Status Status
	// Model is the optimal assignment over the problem variables.
	Model []Tribool
	// Cost is the total weight of violated soft clauses in Model.
	Cost int
}

// Solve minimizes violated soft weight subject to the hard clauses.
func (m *MaxSolver) Solve() Result {
	// First, hard clauses alone. Every step of the search below reloads
	// this one solver, so it grows once.
	s := NewSolver(Options{})
	m.load(s)
	if st := s.Solve(); st != StatusSat {
		return Result{Status: st}
	}
	bestModel := s.Model()[:m.numVars]
	bestCost := m.cost(bestModel)
	if bestCost == 0 || len(m.soft) == 0 {
		return Result{Status: StatusSat, Model: bestModel, Cost: bestCost}
	}

	// Linear search downward: ask for cost <= bestCost-1 until UNSAT. Each
	// relaxed soft clause is built in one reused buffer, which AddClause
	// never keeps.
	var relaxed []Lit
	relax := make([]Lit, len(m.soft))
	weights := make([]int, len(m.soft))
	for bestCost > 0 {
		m.load(s)
		for i, sc := range m.soft {
			r := s.NewVar()
			relax[i] = PosLit(r)
			weights[i] = sc.Weight
			relaxed = append(append(relaxed[:0], sc.Lits...), PosLit(r))
			s.AddClause(relaxed...)
		}
		encodeWeightedAtMost(s, relax, weights, bestCost-1)
		if st := s.Solve(); st != StatusSat {
			if st == StatusUnknown {
				return Result{Status: StatusSat, Model: bestModel, Cost: bestCost}
			}
			break
		}
		model := s.Model()[:m.numVars]
		c := m.cost(model)
		if c >= bestCost {
			// Defensive: cardinality encoding guarantees c < bestCost, but a
			// plateau would otherwise loop forever.
			break
		}
		bestModel, bestCost = model, c
	}
	return Result{Status: StatusSat, Model: bestModel, Cost: bestCost}
}

// load resets s and adds the problem variables and hard clauses.
func (m *MaxSolver) load(s *Solver) {
	s.Reset(Options{MaxConflicts: m.MaxConflicts, Context: m.Context, Telemetry: m.Telemetry})
	s.SetSpan(m.Span)
	for s.NumVars() < m.numVars {
		s.NewVar()
	}
	start := 0
	for _, end := range m.hardEnds {
		s.AddClause(m.hardLits[start:end]...)
		start = end
	}
}

func (m *MaxSolver) cost(model []Tribool) int {
	total := 0
	for _, sc := range m.soft {
		satisfied := false
		for _, l := range sc.Lits {
			v := model[l.Var()]
			if (v == True && !l.IsNeg()) || (v == False && l.IsNeg()) {
				satisfied = true
				break
			}
		}
		if !satisfied {
			total += sc.Weight
		}
	}
	return total
}

// encodeWeightedAtMost adds clauses enforcing sum(weight_i * lit_i) <= bound
// using a dynamic-programming (generalized sequential counter) encoding.
// Weights must be positive.
func encodeWeightedAtMost(s *Solver, lits []Lit, weights []int, bound int) {
	if bound < 0 {
		s.AddClause() // empty clause: unsatisfiable
		return
	}
	// Sort by descending weight for earlier pruning.
	idx := make([]int, len(lits))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return weights[idx[a]] > weights[idx[b]] })

	// Any literal heavier than the bound must be false.
	var useLits []Lit
	var useW []int
	for _, i := range idx {
		if weights[i] > bound {
			s.AddClause(lits[i].Not())
			continue
		}
		useLits = append(useLits, lits[i])
		useW = append(useW, weights[i])
	}
	if len(useLits) == 0 {
		return
	}

	// prevGE[j] is a variable meaning "the partial sum of the first i
	// literals is >= j" (1-based j); sums are capped at bound+1. Row i is
	// built in curGE from row i-1 in prevGE, and the two rows swap, so every
	// column of curGE is rewritten before it is read.
	capSum := bound + 1
	prevGE, curGE := make([]Lit, capSum+1), make([]Lit, capSum+1)
	hasPrev, hasCur := make([]bool, capSum+1), make([]bool, capSum+1)
	for i, l := range useLits {
		w := useW[i]
		for j := 1; j <= capSum; j++ {
			// sum_i >= j iff sum_{i-1} >= j, or (l_i and sum_{i-1} >= j-w).
			// Each case implies v; only that direction matters for at-most.
			viaLit := j-w <= 0 || hasPrev[j-w]
			hasCur[j] = hasPrev[j] || viaLit
			if !hasCur[j] {
				continue
			}
			v := PosLit(s.NewVar())
			curGE[j] = v
			if hasPrev[j] {
				s.AddClause(prevGE[j].Not(), v)
			}
			switch {
			case j-w <= 0:
				s.AddClause(l.Not(), v)
			case viaLit:
				s.AddClause(l.Not(), prevGE[j-w].Not(), v)
			}
		}
		prevGE, curGE = curGE, prevGE
		hasPrev, hasCur = hasCur, hasPrev
	}
	if hasPrev[capSum] {
		s.AddClause(prevGE[capSum].Not())
	}
}
