package translate

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"specrepair/internal/sat"
)

// recordingSink is a ClauseSink that writes down every call it receives.
type recordingSink struct {
	vars int
	log  strings.Builder
}

func (r *recordingSink) NewVar() int {
	r.vars++
	fmt.Fprintf(&r.log, "v%d ", r.vars-1)
	return r.vars - 1
}

func (r *recordingSink) AddClause(lits ...sat.Lit) bool {
	fmt.Fprintf(&r.log, "%v ", lits)
	return true
}

func (r *recordingSink) NumVars() int { return r.vars }

// TestCNFBuilderResetMatchesNew checks that a reset builder encodes as a new
// one does: a builder that has already encoded the very same circuit,
// constants included, is reset onto a new sink and must hand it the same
// variables and clauses, in the same order, as NewCNFBuilder does. A memo
// entry surviving the reset would hand back a literal of the old sink.
func TestCNFBuilderResetMatchesNew(t *testing.T) {
	const numVars = 32
	gates := randomCircuit(rand.New(rand.NewSource(9)), numVars, 600)
	encode := func(cb *CNFBuilder) {
		cb.AddAssert(Or(gates[len(gates)-50:]...))
		cb.Lit(TrueNode)
		cb.Lit(FalseNode)
		for i, g := range gates[len(gates)-120:] {
			cb.GateLit(g, i%2 == 0)
		}
	}
	want := &recordingSink{}
	encode(NewCNFBuilder(want, numVars))

	reused := NewCNFBuilder(&recordingSink{}, 7)
	encode(reused)
	got := &recordingSink{}
	reused.Reset(got, numVars)
	encode(reused)
	if got.log.String() != want.log.String() {
		t.Errorf("reset builder's clause stream differs from a new builder's:\n%.300s\nwant\n%.300s",
			got.log.String(), want.log.String())
	}
}
