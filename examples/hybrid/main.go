// Hybrid demonstrates the paper's best pairing — ATR followed by
// Multi-Round_None — on a slice of the Alloy4Fun benchmark, reporting each
// tool's individual repairs, their overlap, and the union (the hybrid's
// capability), exactly the quantities behind Table II and Figure 4.
package main

import (
	"context"
	"fmt"
	"os"

	"specrepair/internal/analyzer"
	"specrepair/internal/bench"
	"specrepair/internal/core"
	"specrepair/internal/metrics"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hybrid:", err)
		os.Exit(1)
	}
}

func run() error {
	// A 1/100 slice of Alloy4Fun keeps this example under a minute.
	gen := bench.NewGenerator(nil)
	gen.Scale = 100
	suite, err := gen.Alloy4Fun()
	if err != nil {
		return err
	}
	fmt.Printf("benchmark slice: %d faulty specifications\n\n", len(suite.Specs))

	an := analyzer.New(analyzer.Options{})
	atrFactory, err := core.FactoryByNameWith(1, "ATR", core.FactoryOptions{})
	if err != nil {
		return err
	}
	mrFactory, err := core.FactoryByNameWith(1, "Multi-Round_None", core.FactoryOptions{})
	if err != nil {
		return err
	}
	atrTool, mrTool := atrFactory.New(), mrFactory.New()

	atrFixed := map[string]bool{}
	mrFixed := map[string]bool{}
	for _, spec := range suite.Specs {
		if out, err := atrTool.Repair(context.Background(), spec.Problem()); err == nil && out.Candidate != nil {
			if rep, _ := metrics.REP(an, spec.GroundTruth, out.Candidate); rep == 1 {
				atrFixed[spec.Name] = true
			}
		}
		if out, err := mrTool.Repair(context.Background(), spec.Problem()); err == nil && out.Candidate != nil {
			if rep, _ := metrics.REP(an, spec.GroundTruth, out.Candidate); rep == 1 {
				mrFixed[spec.Name] = true
			}
		}
	}

	overlap, union := 0, 0
	for _, spec := range suite.Specs {
		a, m := atrFixed[spec.Name], mrFixed[spec.Name]
		if a && m {
			overlap++
		}
		if a || m {
			union++
		}
	}
	total := len(suite.Specs)
	fmt.Printf("ATR alone:              %3d / %d\n", len(atrFixed), total)
	fmt.Printf("Multi-Round_None alone: %3d / %d\n", len(mrFixed), total)
	fmt.Printf("overlap:                %3d\n", overlap)
	fmt.Printf("hybrid union:           %3d / %d (%.1f%%)\n",
		union, total, 100*float64(union)/float64(total))
	fmt.Println("\nspecs only the LLM technique repaired:")
	for _, spec := range suite.Specs {
		if mrFixed[spec.Name] && !atrFixed[spec.Name] {
			fmt.Printf("  %s (injected fault depth %d)\n", spec.Name, spec.Depth)
		}
	}
	return nil
}
