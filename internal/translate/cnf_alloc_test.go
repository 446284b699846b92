package translate

import (
	"math/rand"
	"testing"

	"specrepair/internal/sat"
)

// countingSink is a ClauseSink that keeps nothing, so the allocations
// measured over it are the builder's own.
type countingSink struct{ vars int }

func (c *countingSink) NewVar() int { c.vars++; return c.vars - 1 }

func (c *countingSink) AddClause(lits ...sat.Lit) bool { return true }

func (c *countingSink) NumVars() int { return c.vars }

// randomCircuit builds gates and/or gates of one to four inputs, each drawn
// from the problem variables and earlier gates and negated at random, and
// returns them all.
func randomCircuit(rng *rand.Rand, numVars, gates int) []Node {
	nodes := make([]Node, 0, numVars+gates)
	for v := 0; v < numVars; v++ {
		nodes = append(nodes, Var(v))
	}
	for i := 0; i < gates; i++ {
		subs := make([]Node, 1+rng.Intn(4))
		for j := range subs {
			subs[j] = nodes[rng.Intn(len(nodes))]
			if rng.Intn(3) == 0 {
				subs[j] = Not(subs[j])
			}
		}
		if rng.Intn(2) == 0 {
			nodes = append(nodes, And(subs...))
		} else {
			nodes = append(nodes, Or(subs...))
		}
	}
	return nodes[numVars:]
}

// TestCNFBuilderAllocsAmortized guards the scratch-stack encoding: every
// gate builds its clauses on the builder's reused stack, so what is left
// per gate is the amortised growth of the memo maps and the stack, for the
// Tseitin (AddAssert, Lit) and the Plaisted-Greenbaum (GateLit) paths alike.
func TestCNFBuilderAllocsAmortized(t *testing.T) {
	const numVars, numGates = 64, 4000
	gates := randomCircuit(rand.New(rand.NewSource(5)), numVars, numGates)
	top := gates[len(gates)-200:]
	sink := &countingSink{}
	allocs := testing.AllocsPerRun(5, func() {
		*sink = countingSink{}
		cb := NewCNFBuilder(sink, numVars)
		cb.AddAssert(Or(top[:100]...))
		for i, g := range top[100:] {
			cb.GateLit(g, i%2 == 0)
		}
	})
	encoded := sink.vars - numVars
	if encoded < numGates/4 {
		t.Fatalf("only %d of %d gates encoded; the circuit does not exercise the builder", encoded, numGates)
	}
	if perGate := allocs / float64(encoded); perGate >= 0.1 {
		t.Errorf("CNFBuilder: %.3f allocations per encoded gate (%.0f per %d gates), want < 0.1", perGate, allocs, encoded)
	}
}
