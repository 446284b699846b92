// Package translate compiles relational formulas over bounded relations
// into boolean circuits and CNF, in the style of Kodkod: every relation
// tuple within its upper bound becomes a boolean variable, expressions
// evaluate to matrices of circuit nodes, quantifiers are grounded over
// bounds, and the final circuit is Tseitin-encoded for the CDCL solver.
package translate

import "specrepair/internal/sat"

// Node is a handle to a boolean circuit node: a constant, a variable, or
// an AND/OR gate of one Circuit, possibly negated. Bit 0 negates the node
// and the bits above it hold its id:
//
//	0           the false constant
//	1           the true constant
//	2 + v       variable v
//	gateBase+g  gate g of the circuit that built it
//
// Constants and variables mean the same in every circuit; a gate handle
// means something only to its own circuit. Constants are never negated
// (Not folds them), so each node has exactly one handle, and the zero Node
// is FalseNode.
type Node uint32

const (
	negBit Node = 1
	// gateBase is the first gate id: variables take ids 2 to gateBase-1.
	gateBase = 1 << 30
)

// FalseNode is the constant false circuit.
const FalseNode Node = 0

// TrueNode is the constant true circuit.
const TrueNode Node = 1 << 1

// Var returns a node referencing boolean variable v.
func Var(v int) Node { return Node(v+2) << 1 }

// VarOf returns the variable index when n is a plain variable node.
func VarOf(n Node) (int, bool) {
	id := n >> 1
	if n&negBit != 0 || id < 2 || id >= gateBase {
		return 0, false
	}
	return int(id - 2), true
}

// IsTrue reports whether n is the true constant.
func IsTrue(n Node) bool { return n == TrueNode }

// IsFalse reports whether n is the false constant.
func IsFalse(n Node) bool { return n == FalseNode }

// Not negates a node with constant folding.
func Not(n Node) Node {
	switch n {
	case TrueNode:
		return FalseNode
	case FalseNode:
		return TrueNode
	}
	return n ^ negBit
}

// gateOf returns the gate index of n when n is an unnegated gate.
func gateOf(n Node) (int, bool) {
	if n&negBit != 0 || n>>1 < gateBase {
		return 0, false
	}
	return int(n>>1 - gateBase), true
}

// gate is one AND/OR gate of a circuit: its inputs are kids[off:off+n].
type gate struct {
	off, n uint32
	or     bool
}

// Circuit is the arena a translation builds its nodes in, in the style of
// Kodkod's boolean factory: a gate is one entry of gates and its inputs a
// span of the flat kids slice, so a circuit holds no pointers and building
// a gate allocates only when the arena grows. Gates are never shared
// structurally: every And or Or that does not fold to a constant or to one
// input adds a new gate. The zero Circuit is empty and ready to use; a
// Circuit must not be used from several goroutines at once.
type Circuit struct {
	gates []gate
	kids  []Node
	// scratch is a stack for the input lists of gates under construction:
	// a builder pushes above the top it found, passes its part to And or
	// Or and pops back, so nested builders never see each other's inputs.
	scratch []Node
}

// inputs returns the inputs of gate g. The slice is the circuit's own
// storage: callers must not modify it.
func (c *Circuit) inputs(g int) []Node {
	gt := c.gates[g]
	return c.kids[gt.off : gt.off+gt.n]
}

// And conjoins nodes with constant folding.
func (c *Circuit) And(subs ...Node) Node { return c.add(false, subs) }

// Or disjoins nodes with constant folding.
func (c *Circuit) Or(subs ...Node) Node { return c.add(true, subs) }

// add folds the constants out of subs and returns the identity of the
// operation when none is left, the single input left, the dominating
// constant when one occurs, or else a new gate over the inputs left. A
// nil circuit folds as well; it only cannot build a gate.
func (c *Circuit) add(or bool, subs []Node) Node {
	unit, zero := TrueNode, FalseNode
	if or {
		unit, zero = FalseNode, TrueNode
	}
	kept, last := 0, unit
	for _, s := range subs {
		switch s {
		case unit:
			continue
		case zero:
			return zero
		}
		kept++
		last = s
	}
	if kept < 2 {
		return last
	}
	if len(c.gates) == gateBase {
		panic("translate: circuit exceeds its gate capacity")
	}
	off := len(c.kids)
	for _, s := range subs {
		if s != unit {
			c.kids = append(c.kids, s)
		}
	}
	c.gates = append(c.gates, gate{off: uint32(off), n: uint32(kept), or: or})
	return Node(gateBase+len(c.gates)-1) << 1
}

// Implies returns a -> b.
func (c *Circuit) Implies(a, b Node) Node { return c.Or(Not(a), b) }

// Iff returns a <-> b.
func (c *Circuit) Iff(a, b Node) Node {
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
	return c.Or(c.And(a, b), c.And(Not(a), Not(b)))
}

// Ite returns if cond then t else e.
func (c *Circuit) Ite(cond, t, e Node) Node {
	if IsTrue(cond) {
		return t
	}
	if IsFalse(cond) {
		return e
	}
	return c.Or(c.And(cond, t), c.And(Not(cond), e))
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

// litMemo maps gate indices to literals. It holds each literal plus one,
// so that a zero marks a gate not yet encoded.
type litMemo []sat.Lit

func (m litMemo) get(g int) (sat.Lit, bool) {
	if g < len(m) && m[g] != 0 {
		return m[g] - 1, true
	}
	return 0, false
}

func (m *litMemo) set(g int, l sat.Lit) {
	if g >= len(*m) {
		*m = append(*m, make(litMemo, g+1-len(*m))...)
	}
	(*m)[g] = l + 1
}

// CNFBuilder Tseitin-encodes the nodes of one circuit into a clause sink.
// Translator variables map 1:1 onto the first NumProblemVars sink
// variables; gate variables follow.
type CNFBuilder struct {
	c      *Circuit
	solver ClauseSink
	// memo holds the Tseitin literal of each encoded gate and consts that
	// of each constant (plus one, as litMemo does), indexed by id.
	memo   litMemo
	consts [2]sat.Lit
	// memoPos/memoNeg memoize the one-directional Plaisted-Greenbaum gates
	// of GateLit, separately per direction (a gate encoded g -> n must not
	// be reused where n -> g is required).
	memoPos litMemo
	memoNeg litMemo
	// buf is the scratch stack every gate builds its clauses in. A gate
	// pushes literals above the top it found, hands the sink a slice of
	// them and pops back; lit and pgLit recurse between pushes, so a gate
	// addresses its part by offset, never by a slice kept across a call.
	buf []sat.Lit
}

// NewCNFBuilder returns a builder that encodes c's nodes into the sink,
// which has numProblemVars already-allocated problem variables.
func (c *Circuit) NewCNFBuilder(solver ClauseSink, numProblemVars int) *CNFBuilder {
	cb := &CNFBuilder{c: c}
	cb.Reset(solver, numProblemVars)
	return cb
}

// Bind points the builder at circuit c (nil lets go of its circuit). The
// builder's memos name gates of its previous circuit, so Reset it before
// it encodes again.
func (cb *CNFBuilder) Bind(c *Circuit) { cb.c = c }

// Reset points the builder at a new sink with numProblemVars problem
// variables, as NewCNFBuilder does, keeping its circuit and the storage of
// its memos and scratch stack.
func (cb *CNFBuilder) Reset(solver ClauseSink, numProblemVars int) {
	cb.memo = cb.memo[:0]
	cb.memoPos = cb.memoPos[:0]
	cb.memoNeg = cb.memoNeg[:0]
	cb.consts = [2]sat.Lit{}
	cb.buf = cb.buf[:0]
	cb.solver = solver
	// Bulk-grow sinks that support it (one reallocation per slice instead of
	// a capacity-doubling cascade during the NewVar storm below).
	if g, ok := solver.(interface{ Grow(int) }); ok {
		g.Grow(numProblemVars)
	}
	for solver.NumVars() < numProblemVars {
		solver.NewVar()
	}
}

// AddAssert asserts that node n is true.
func (cb *CNFBuilder) AddAssert(n Node) {
	switch n {
	case TrueNode:
		return
	case FalseNode:
		cb.solver.AddClause()
		return
	}
	g, ok := gateOf(n)
	if !ok {
		cb.addClause(cb.lit(n))
		return
	}
	// Assert top-level conjunctions clause-by-clause to avoid gate overhead.
	if !cb.c.gates[g].or {
		for _, s := range cb.c.inputs(g) {
			cb.AddAssert(s)
		}
		return
	}
	base := len(cb.buf)
	for _, s := range cb.c.inputs(g) {
		cb.push(cb.lit(s))
	}
	cb.flush(base)
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
	if n&negBit != 0 {
		// pos: want l -> not sub; with sub -> h this is l := not h.
		return cb.pgLit(n^negBit, !pos).Not()
	}
	gi, ok := gateOf(n)
	if !ok {
		// A variable, or a constant: a variable pinned to the constant
		// satisfies both directions.
		return cb.lit(n)
	}
	memo := &cb.memoNeg
	if pos {
		memo = &cb.memoPos
	}
	if l, ok := memo.get(gi); ok {
		return l
	}
	g := sat.PosLit(cb.solver.NewVar())
	memo.set(gi, g)
	base := len(cb.buf)
	subs := cb.c.inputs(gi)
	switch or := cb.c.gates[gi].or; {
	case !or && pos:
		// g -> each sub.
		for _, s := range subs {
			cb.addClause(g.Not(), cb.pgLit(s, true))
		}
	case !or:
		// (all subs) -> g.
		for _, s := range subs {
			cb.push(cb.pgLit(s, false).Not())
		}
		cb.push(g)
		cb.flush(base)
	case pos:
		// g -> some sub.
		cb.push(g.Not())
		for _, s := range subs {
			cb.push(cb.pgLit(s, true))
		}
		cb.flush(base)
	default:
		// each sub -> g.
		for _, s := range subs {
			cb.addClause(cb.pgLit(s, false).Not(), g)
		}
	}
	return g
}

// lit returns a literal equisatisfiable with node n, Tseitin-encoding gates
// on demand.
func (cb *CNFBuilder) lit(n Node) sat.Lit {
	if n&negBit != 0 {
		return cb.lit(n ^ negBit).Not()
	}
	if v, ok := VarOf(n); ok {
		return sat.PosLit(v)
	}
	gi, ok := gateOf(n)
	if !ok {
		// A constant at gate position: allocate a variable pinned to the
		// constant's truth value and return it as the literal.
		id := n >> 1
		if l := cb.consts[id]; l != 0 {
			return l - 1
		}
		l := sat.PosLit(cb.solver.NewVar())
		if IsFalse(n) {
			cb.addClause(l.Not())
		} else {
			cb.addClause(l)
		}
		cb.consts[id] = l + 1
		return l
	}
	if l, ok := cb.memo.get(gi); ok {
		return l
	}
	g := sat.PosLit(cb.solver.NewVar())
	cb.memo.set(gi, g)
	subs := cb.c.inputs(gi)
	// The sub-literals sit on the stack at base..base+len(subs); the long
	// clause reuses their slots.
	base := len(cb.buf)
	for _, s := range subs {
		cb.push(cb.lit(s))
	}
	if !cb.c.gates[gi].or {
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
