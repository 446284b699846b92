package printer_test

import (
	"testing"

	"specrepair/internal/alloy/printer"
	"specrepair/internal/bench"
)

// printSink keeps the benchmarked results alive.
var printSink string

// BenchmarkPrintModule prints the faulty module of each SYN spec at scale
// 700 (the study-syn-trad corpus), one module per op.
func BenchmarkPrintModule(b *testing.B) {
	g := bench.NewGenerator(nil)
	g.Scale = 700
	syn, err := g.Synthetic()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		printSink = printer.Module(syn.Specs[i%len(syn.Specs)].Faulty)
	}
}
