// Package translate compiles relational formulas over bounded relations
// into boolean circuits and CNF, in the style of Kodkod: every relation
// tuple within its upper bound becomes a boolean variable, expressions
// evaluate to matrices of circuit nodes, quantifiers are grounded over
// bounds, and the final circuit is Tseitin-encoded for the CDCL solver.
package translate

import "specrepair/internal/sat"

// Node is a boolean circuit node. Nodes are immutable once built.
type Node interface{ node() }

type trueNode struct{}
type falseNode struct{}

// varNode references a boolean variable allocated by the translator.
type varNode struct{ v int }

type notNode struct{ sub Node }

type andNode struct{ subs []Node }

type orNode struct{ subs []Node }

func (trueNode) node()  {}
func (falseNode) node() {}
func (varNode) node()   {}
func (*notNode) node()  {}
func (*andNode) node()  {}
func (*orNode) node()   {}

// TrueNode is the constant true circuit.
var TrueNode Node = trueNode{}

// FalseNode is the constant false circuit.
var FalseNode Node = falseNode{}

// Var returns a node referencing boolean variable v.
func Var(v int) Node { return varNode{v} }

// VarOf returns the variable index when n is a plain variable node.
func VarOf(n Node) (int, bool) {
	v, ok := n.(varNode)
	return v.v, ok
}

// IsTrue reports whether n is the true constant.
func IsTrue(n Node) bool { _, ok := n.(trueNode); return ok }

// IsFalse reports whether n is the false constant.
func IsFalse(n Node) bool { _, ok := n.(falseNode); return ok }

// Not negates a node with constant folding.
func Not(n Node) Node {
	switch x := n.(type) {
	case trueNode:
		return FalseNode
	case falseNode:
		return TrueNode
	case *notNode:
		return x.sub
	default:
		return &notNode{n}
	}
}

// And conjoins nodes with constant folding.
func And(subs ...Node) Node {
	out := make([]Node, 0, len(subs))
	for _, s := range subs {
		switch s.(type) {
		case trueNode:
			continue
		case falseNode:
			return FalseNode
		}
		out = append(out, s)
	}
	switch len(out) {
	case 0:
		return TrueNode
	case 1:
		return out[0]
	default:
		return &andNode{out}
	}
}

// Or disjoins nodes with constant folding.
func Or(subs ...Node) Node {
	out := make([]Node, 0, len(subs))
	for _, s := range subs {
		switch s.(type) {
		case falseNode:
			continue
		case trueNode:
			return TrueNode
		}
		out = append(out, s)
	}
	switch len(out) {
	case 0:
		return FalseNode
	case 1:
		return out[0]
	default:
		return &orNode{out}
	}
}

// Implies returns a -> b.
func Implies(a, b Node) Node { return Or(Not(a), b) }

// Iff returns a <-> b.
func Iff(a, b Node) Node {
	if IsTrue(a) {
		return b
	}
	if IsTrue(b) {
		return a
	}
	if IsFalse(a) {
		return Not(b)
	}
	if IsFalse(b) {
		return Not(a)
	}
	return Or(And(a, b), And(Not(a), Not(b)))
}

// Ite returns if c then t else e.
func Ite(c, t, e Node) Node {
	if IsTrue(c) {
		return t
	}
	if IsFalse(c) {
		return e
	}
	return Or(And(c, t), And(Not(c), e))
}

// CountNodes returns the number of distinct nodes reachable from n.
func CountNodes(n Node) int {
	seen := map[Node]bool{}
	var rec func(Node)
	rec = func(x Node) {
		if seen[x] {
			return
		}
		seen[x] = true
		switch y := x.(type) {
		case *notNode:
			rec(y.sub)
		case *andNode:
			for _, s := range y.subs {
				rec(s)
			}
		case *orNode:
			for _, s := range y.subs {
				rec(s)
			}
		}
	}
	rec(n)
	return len(seen)
}

// ClauseSink receives Tseitin clauses. *sat.Solver implements it directly;
// MaxSAT front-ends adapt it to hard clauses.
type ClauseSink interface {
	NewVar() int
	// AddClause must not keep lits: CNFBuilder passes slices of a scratch
	// stack it overwrites with the next clause.
	AddClause(lits ...sat.Lit) bool
	NumVars() int
}

// CNFBuilder Tseitin-encodes circuit nodes into a clause sink. Translator
// variables map 1:1 onto the first NumProblemVars sink variables; gate
// variables follow.
type CNFBuilder struct {
	solver ClauseSink
	memo   map[Node]sat.Lit
	// memoPos/memoNeg memoize the one-directional Plaisted-Greenbaum gates
	// of GateLit, separately per direction (a gate encoded g -> n must not
	// be reused where n -> g is required).
	memoPos map[Node]sat.Lit
	memoNeg map[Node]sat.Lit
	// buf is the scratch stack every gate builds its clauses in. A gate
	// pushes literals above the top it found, hands the sink a slice of
	// them and pops back; lit and pgLit recurse between pushes, so a gate
	// addresses its part by offset, never by a slice kept across a call.
	buf []sat.Lit
}

// NewCNFBuilder returns a builder over the sink with numProblemVars
// already-allocated problem variables.
func NewCNFBuilder(solver ClauseSink, numProblemVars int) *CNFBuilder {
	// Bulk-grow sinks that support it (one reallocation per slice instead of
	// a capacity-doubling cascade during the NewVar storm below).
	if g, ok := solver.(interface{ Grow(int) }); ok {
		g.Grow(numProblemVars)
	}
	for solver.NumVars() < numProblemVars {
		solver.NewVar()
	}
	return &CNFBuilder{
		solver:  solver,
		memo:    map[Node]sat.Lit{},
		memoPos: map[Node]sat.Lit{},
		memoNeg: map[Node]sat.Lit{},
	}
}

// AddAssert asserts that node n is true.
func (cb *CNFBuilder) AddAssert(n Node) {
	switch n.(type) {
	case trueNode:
		return
	case falseNode:
		cb.solver.AddClause()
		return
	}
	// Assert top-level conjunctions clause-by-clause to avoid gate overhead.
	if a, ok := n.(*andNode); ok {
		for _, s := range a.subs {
			cb.AddAssert(s)
		}
		return
	}
	if o, ok := n.(*orNode); ok {
		base := len(cb.buf)
		for _, s := range o.subs {
			cb.push(cb.lit(s))
		}
		cb.flush(base)
		return
	}
	cb.addClause(cb.lit(n))
}

// push puts l on top of the scratch stack. It takes l as a value so that
// the recursive call producing it has returned before the stack is read.
func (cb *CNFBuilder) push(l sat.Lit) { cb.buf = append(cb.buf, l) }

// flush hands the sink the clause on the scratch stack above base and pops
// it.
func (cb *CNFBuilder) flush(base int) {
	cb.solver.AddClause(cb.buf[base:]...)
	cb.buf = cb.buf[:base]
}

// addClause hands the sink a clause copied onto the scratch stack, so the
// variadic slice never escapes through the interface call.
func (cb *CNFBuilder) addClause(lits ...sat.Lit) {
	base := len(cb.buf)
	cb.buf = append(cb.buf, lits...)
	cb.flush(base)
}

// Lit returns a literal equivalent to node n under the Tseitin clauses
// added to the sink — usable as a solve-time assumption gating the node.
func (cb *CNFBuilder) Lit(n Node) sat.Lit { return cb.lit(n) }

// GateLit returns a one-directional activation literal for node n
// (Plaisted-Greenbaum encoding), about half the clauses of the full
// equivalence Lit builds:
//
//	neg=false: the clauses entail n whenever g is assumed true, and are
//	           all satisfiable (gate literals set false) when it is not;
//	neg=true:  the clauses entail NOT n whenever NOT g is assumed, and are
//	           all satisfiable (gate literals set true) otherwise.
//
// The returned literal is NOT equivalent to n — it is sound only as an
// assumption in the stated direction. Inactive gates of either direction
// never constrain the problem variables: every emitted clause contains its
// own gate literal in the releasing polarity.
func (cb *CNFBuilder) GateLit(n Node, neg bool) sat.Lit { return cb.pgLit(n, !neg) }

// pgLit returns a literal l with l -> n (pos) or n -> l (!pos), encoding
// only the needed direction of each reachable gate.
func (cb *CNFBuilder) pgLit(n Node, pos bool) sat.Lit {
	switch x := n.(type) {
	case varNode:
		return sat.PosLit(x.v)
	case *notNode:
		// pos: want l -> not sub; with sub -> h this is l := not h.
		return cb.pgLit(x.sub, !pos).Not()
	case trueNode, falseNode:
		// A variable pinned to the constant satisfies both directions.
		return cb.lit(n)
	}
	memo := cb.memoNeg
	if pos {
		memo = cb.memoPos
	}
	if l, ok := memo[n]; ok {
		return l
	}
	g := sat.PosLit(cb.solver.NewVar())
	memo[n] = g
	base := len(cb.buf)
	switch x := n.(type) {
	case *andNode:
		if pos {
			// g -> each sub.
			for _, s := range x.subs {
				cb.addClause(g.Not(), cb.pgLit(s, true))
			}
		} else {
			// (all subs) -> g.
			for _, s := range x.subs {
				cb.push(cb.pgLit(s, false).Not())
			}
			cb.push(g)
			cb.flush(base)
		}
	case *orNode:
		if pos {
			// g -> some sub.
			cb.push(g.Not())
			for _, s := range x.subs {
				cb.push(cb.pgLit(s, true))
			}
			cb.flush(base)
		} else {
			// each sub -> g.
			for _, s := range x.subs {
				cb.addClause(cb.pgLit(s, false).Not(), g)
			}
		}
	}
	return g
}

// lit returns a literal equisatisfiable with node n, Tseitin-encoding gates
// on demand.
func (cb *CNFBuilder) lit(n Node) sat.Lit {
	switch x := n.(type) {
	case varNode:
		return sat.PosLit(x.v)
	case *notNode:
		return cb.lit(x.sub).Not()
	case trueNode, falseNode:
		// Constants at gate position: allocate a variable pinned to the
		// constant's truth value and return it as the literal.
		if l, ok := cb.memo[n]; ok {
			return l
		}
		v := cb.solver.NewVar()
		l := sat.PosLit(v)
		if IsFalse(n) {
			cb.addClause(l.Not())
		} else {
			cb.addClause(l)
		}
		cb.memo[n] = l
		return l
	}
	if l, ok := cb.memo[n]; ok {
		return l
	}
	g := sat.PosLit(cb.solver.NewVar())
	cb.memo[n] = g
	var subs []Node
	switch x := n.(type) {
	case *andNode:
		subs = x.subs
	case *orNode:
		subs = x.subs
	}
	// The sub-literals sit on the stack at base..base+len(subs); the long
	// clause reuses their slots.
	base := len(cb.buf)
	for _, s := range subs {
		cb.push(cb.lit(s))
	}
	if _, and := n.(*andNode); and {
		// g -> each sub; (all subs) -> g.
		for i := range subs {
			cb.addClause(g.Not(), cb.buf[base+i])
			cb.buf[base+i] = cb.buf[base+i].Not()
		}
		cb.push(g)
	} else {
		// each sub -> g; g -> some sub.
		for i := range subs {
			cb.addClause(cb.buf[base+i].Not(), g)
		}
		cb.push(g.Not())
	}
	cb.flush(base)
	return g
}
