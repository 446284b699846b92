package translate

import "specrepair/internal/bounds"

// testCircuit is the circuit the package's tests build nodes in through
// the package-level helpers below, so that a test reads as the operations
// of one circuit. Nodes of a Translator live in its own circuit and must be
// combined through its methods instead.
var testCircuit = &Circuit{}

func And(subs ...Node) Node                 { return testCircuit.And(subs...) }
func Or(subs ...Node) Node                  { return testCircuit.Or(subs...) }
func Implies(a, b Node) Node                { return testCircuit.Implies(a, b) }
func Iff(a, b Node) Node                    { return testCircuit.Iff(a, b) }
func Ite(c, t, e Node) Node                 { return testCircuit.Ite(c, t, e) }
func NewMatrix(arity int) Matrix            { return testCircuit.NewMatrix(arity) }
func ConstMatrix(ts bounds.TupleSet) Matrix { return testCircuit.ConstMatrix(ts) }
func SingletonMatrix(t bounds.Tuple) Matrix { return testCircuit.SingletonMatrix(t) }

func NewCNFBuilder(solver ClauseSink, numProblemVars int) *CNFBuilder {
	return testCircuit.NewCNFBuilder(solver, numProblemVars)
}
