package translate

import (
	"testing"

	"specrepair/internal/alloy/ast"
	"specrepair/internal/alloy/parser"
	"specrepair/internal/alloy/types"
	"specrepair/internal/bounds"
)

// benchRelations returns the relation matrices of a small linked-list
// model at scope 6: the unary Node (6 variables) and the binary next and
// prev (36 variables each), the shapes the SYN specs join most.
func benchRelations(b *testing.B) (node, next, prev Matrix) {
	b.Helper()
	mod, err := parser.Parse("sig Node { next: set Node, prev: set Node }\nrun {} for 6\n")
	if err != nil {
		b.Fatal(err)
	}
	_, info, err := types.Lower(mod)
	if err != nil {
		b.Fatal(err)
	}
	bnd, err := bounds.Build(info, ast.Scope{Default: 6})
	if err != nil {
		b.Fatal(err)
	}
	tr := New(info, bnd)
	node, _ = tr.RelMatrix("Node")
	next, _ = tr.RelMatrix("next")
	prev, _ = tr.RelMatrix("prev")
	return node, next, prev
}

// benchSink keeps the benchmarked results alive.
var benchSink Matrix

// BenchmarkMatrixJoin times one navigation (Node.next) and one relational
// composition (next.prev) per op.
func BenchmarkMatrixJoin(b *testing.B) {
	node, next, prev := benchRelations(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = node.Join(next)
		benchSink = next.Join(prev)
	}
}

// BenchmarkMatrixUnion times the union of two overlapping binary matrices.
func BenchmarkMatrixUnion(b *testing.B) {
	_, next, prev := benchRelations(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = next.Union(prev)
	}
}
