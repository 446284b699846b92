// Package sat implements a conflict-driven clause-learning (CDCL) boolean
// satisfiability solver in the MiniSat tradition — two-watched-literal
// propagation, VSIDS branching, first-UIP clause learning, phase saving and
// Luby restarts — plus a naive DPLL reference solver used for differential
// testing and ablation benchmarks, and a weighted partial MaxSAT solver
// built on top (used by the ATR repair technique's PMaxSAT step).
//
// The solver keeps every clause in one pointer-free arena of literals, as
// in Eén and Sörensson's "An Extensible SAT-solver" (SAT 2003). A clause is
// a uint32 offset to its header word: its size above a learnt flag and a
// mark bit that clause-database reduction sets on the clauses it removes.
// A learnt clause follows the header with its LBD and its float64 activity
// (two words); then come the literals, so a problem clause costs one word
// beyond them. Watch-list entries are 8 bytes: a clause offset and a
// blocking literal. Reduction compacts the arena in place. AddClause copies
// what it needs and never keeps its argument, so clause builders reuse one
// buffer for every clause.
package sat

import "fmt"

// Lit is a literal: variable v (0-based) positively as 2v, negated as 2v+1.
type Lit int32

// MkLit constructs a literal for variable v with the given sign.
func MkLit(v int, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// PosLit returns the positive literal of variable v.
func PosLit(v int) Lit { return MkLit(v, false) }

// NegLit returns the negative literal of variable v.
func NegLit(v int) Lit { return MkLit(v, true) }

// Var returns the literal's variable index.
func (l Lit) Var() int { return int(l >> 1) }

// IsNeg reports whether the literal is negated.
func (l Lit) IsNeg() bool { return l&1 == 1 }

// Not returns the complementary literal.
func (l Lit) Not() Lit { return l ^ 1 }

// String renders the literal in DIMACS-like form (1-based, minus = negated).
func (l Lit) String() string {
	if l.IsNeg() {
		return fmt.Sprintf("-%d", l.Var()+1)
	}
	return fmt.Sprintf("%d", l.Var()+1)
}

// Tribool is a three-valued truth assignment.
type Tribool int8

// Truth values.
const (
	Unassigned Tribool = 0
	True       Tribool = 1
	False      Tribool = -1
)

// Status is a solver verdict.
type Status int

// Solver verdicts. StatusUnknown means a resource budget was exhausted.
const (
	StatusSat Status = iota + 1
	StatusUnsat
	StatusUnknown
)

// String renders the status.
func (s Status) String() string {
	switch s {
	case StatusSat:
		return "SAT"
	case StatusUnsat:
		return "UNSAT"
	default:
		return "UNKNOWN"
	}
}
