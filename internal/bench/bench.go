// Package bench regenerates the study's two benchmark suites:
//
//   - Alloy4Fun: 1,936 faulty specifications over six problem domains
//     (classroom 999, cv 138, graphs 283, lts 249, production 61, trash 206),
//   - ARepair: 38 faulty specifications over twelve problems.
//
// The original corpora are human-written faulty submissions distributed via
// figshare; this package substitutes a deterministic fault injector over
// hand-written base models of each domain (see DESIGN.md). Every generated
// entry carries the faulty module, its ground truth, an AUnit test suite,
// and the hint metadata the Single-Round prompt settings consume. Every
// faulty module provably fails its oracle at generation time, and every
// ground truth provably passes it.
package bench

import (
	"context"
	"fmt"
	"sync"

	"specrepair/internal/alloy/ast"
	"specrepair/internal/alloy/parser"
	"specrepair/internal/analyzer"
	"specrepair/internal/aunit"
	"specrepair/internal/repair"
)

// Spec is one benchmark entry.
type Spec struct {
	// Benchmark is "A4F", "ARepair", or "SYN" (the synthetic stacked-fault
	// corpus).
	Benchmark string
	// Domain is the problem domain (classroom, graphs, ..., addr, dll, ...).
	Domain string
	// Name uniquely identifies the entry, e.g. "classroom/0042".
	Name string
	// Depth is the number of injected edits (1, 2, or 3).
	Depth       int
	Faulty      *ast.Module
	GroundTruth *ast.Module
	Tests       *aunit.Suite
	Hints       repair.Hints
}

// Problem converts the entry to a repair problem. The problem's module is
// a struct copy of the spec's: its own header over the same paragraph
// slices and paragraphs, which are never written.
func (s *Spec) Problem() repair.Problem {
	faulty := *s.Faulty
	return repair.Problem{
		Name:   s.Name,
		Faulty: &faulty,
		Tests:  s.Tests,
		Hints:  s.Hints,
	}
}

// domainProfile describes how one domain's corpus is derived.
type domainProfile struct {
	benchmark string
	domain    string
	source    string // ground-truth model source
	count     int    // number of faulty variants
	// deepShare in [0,1] is the fraction of variants receiving two
	// stacked edits (the "complex faults" of the domain).
	deepShare float64
	// tripleShare in [0,1] is the fraction receiving three stacked edits
	// (only the synthetic corpora use it; deepShare + tripleShare <= 1).
	tripleShare float64
	tests       func() *aunit.Suite
}

// Suite is a fully generated benchmark.
type Suite struct {
	Name  string
	Specs []*Spec
}

// ByDomain groups the suite's entries.
func (s *Suite) ByDomain() map[string][]*Spec {
	out := map[string][]*Spec{}
	for _, sp := range s.Specs {
		out[sp.Domain] = append(out[sp.Domain], sp)
	}
	return out
}

// Generator produces and caches benchmark suites. Generation validates
// every entry against the analyzer, so it is not free; reuse one Generator.
type Generator struct {
	an *analyzer.Analyzer
	// Scale divides every domain's corpus size (minimum one entry per
	// domain); 1 reproduces the paper's full counts. Unit tests use larger
	// scales to stay fast.
	Scale int

	mu      sync.Mutex
	a4f     *Suite
	arepair *Suite
	syn     *Suite
}

// NewGenerator returns a full-size generator backed by the given analyzer
// (nil for defaults).
func NewGenerator(an *analyzer.Analyzer) *Generator {
	if an == nil {
		an = analyzer.New(analyzer.Options{})
	}
	return &Generator{an: an, Scale: 1}
}

// Alloy4Fun generates (once) and returns the Alloy4Fun suite.
func (g *Generator) Alloy4Fun() (*Suite, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.a4f != nil {
		return g.a4f, nil
	}
	suite, err := g.generate("A4F", a4fProfiles())
	if err != nil {
		return nil, err
	}
	g.a4f = suite
	return suite, nil
}

// ARepair generates (once) and returns the ARepair suite.
func (g *Generator) ARepair() (*Suite, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.arepair != nil {
		return g.arepair, nil
	}
	suite, err := g.generate("ARepair", arepairProfiles())
	if err != nil {
		return nil, err
	}
	g.arepair = suite
	return suite, nil
}

// Synthetic generates (once) and returns the synthetic stacked-fault suite:
// three additional domains, an order of magnitude more specifications than
// the two paper corpora combined, every entry carrying two or three stacked
// faults. It exists to exercise throughput work — sharded studies, cache
// pressure, scheduler scaling — on a corpus big enough for the numbers to
// mean something; the paper's tables are computed from the two original
// suites only.
func (g *Generator) Synthetic() (*Suite, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.syn != nil {
		return g.syn, nil
	}
	suite, err := g.generate("SYN", synProfiles())
	if err != nil {
		return nil, err
	}
	g.syn = suite
	return suite, nil
}

// Both returns the two suites.
func (g *Generator) Both() (*Suite, *Suite, error) {
	a4f, err := g.Alloy4Fun()
	if err != nil {
		return nil, nil, err
	}
	ar, err := g.ARepair()
	if err != nil {
		return nil, nil, err
	}
	return a4f, ar, nil
}

func (g *Generator) generate(name string, profiles []domainProfile) (*Suite, error) {
	suite := &Suite{Name: name}
	for _, p := range profiles {
		gt, err := parser.Parse(p.source)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: ground truth does not parse: %w", name, p.domain, err)
		}
		ok, err := repair.OracleAllCommandsPass(context.Background(), g.an, gt)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: ground truth does not analyze: %w", name, p.domain, err)
		}
		if !ok {
			return nil, fmt.Errorf("%s/%s: ground truth fails its own oracle", name, p.domain)
		}
		if g.Scale > 1 {
			p.count = maxInt(1, p.count/g.Scale)
		}
		specs, err := g.inject(p, gt)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", name, p.domain, err)
		}
		suite.Specs = append(suite.Specs, specs...)
	}
	return suite, nil
}
