// Correlation reproduces the RQ2 analysis on a benchmark slice: per-spec
// similarity (TM/SM) of several techniques' candidates against ground
// truth, then pairwise Pearson correlations — traditional tools cluster
// tightly while LLM-based ones diverge, which is the complementarity signal
// motivating the hybrids of RQ3.
package main

import (
	"context"
	"fmt"
	"os"

	"specrepair/internal/alloy/printer"
	"specrepair/internal/bench"
	"specrepair/internal/core"
	"specrepair/internal/metrics"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "correlation:", err)
		os.Exit(1)
	}
}

func run() error {
	gen := bench.NewGenerator(nil)
	gen.Scale = 100
	suite, err := gen.Alloy4Fun()
	if err != nil {
		return err
	}
	fmt.Printf("benchmark slice: %d specifications\n\n", len(suite.Specs))

	techniques := []string{"ATR", "BeAFix", "Single-Round_Loc", "Multi-Round_None"}
	vectors := map[string][]float64{}
	for _, name := range techniques {
		factory, err := core.FactoryByNameWith(1, name, core.FactoryOptions{})
		if err != nil {
			return err
		}
		tool := factory.New()
		var tms []float64
		for _, spec := range suite.Specs {
			gtSrc := printer.Module(spec.GroundTruth)
			candSrc := printer.Module(spec.Faulty)
			if out, err := tool.Repair(context.Background(), spec.Problem()); err == nil && out.Candidate != nil {
				candSrc = printer.Module(out.Candidate)
			}
			tms = append(tms, metrics.TokenMatch(gtSrc, candSrc))
		}
		vectors[name] = tms
		fmt.Printf("%-20s mean TM = %.3f\n", name, metrics.Mean(tms))
	}

	fmt.Println("\npairwise Pearson correlations (TM vectors):")
	for i, a := range techniques {
		for _, b := range techniques[i+1:] {
			r, p := metrics.Pearson(vectors[a], vectors[b])
			fmt.Printf("  %-20s ~ %-20s r = %+.3f (p = %.3g)\n", a, b, r, p)
		}
	}
	return nil
}
