package bench

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"

	"specrepair/internal/alloy/ast"
	"specrepair/internal/alloy/printer"
	"specrepair/internal/mutation"
	"specrepair/internal/repair"
)

// faultEdit is one injected mutation, remembered so hints can describe its
// inverse (the intended fix).
type faultEdit struct {
	site mutation.ScopedSite
	repl ast.Expr
}

// inject derives the domain's faulty variants from its ground truth by
// sampling mutations (the inverse of repair) until the oracle breaks.
// Variants are deduplicated by canonical printing. When single edits run
// out, stacked double edits extend the pool; the deepShare fraction of the
// corpus is drawn from the double-edit pool regardless, modeling each
// domain's share of complex faults, and the tripleShare fraction (used by
// the synthetic stacked-fault corpora) carries three faults.
func (g *Generator) inject(p domainProfile, gt *ast.Module) ([]*Spec, error) {
	h := fnv.New64a()
	h.Write([]byte(p.benchmark + "/" + p.domain))
	rng := rand.New(rand.NewSource(int64(h.Sum64())))

	eng, err := mutation.NewEngine(gt)
	if err != nil {
		return nil, fmt.Errorf("mutating ground truth: %w", err)
	}

	// Pool of candidate single edits in deterministic order, shuffled by
	// the domain's RNG.
	type editCand struct {
		site mutation.ScopedSite
		repl ast.Expr
	}
	var pool []editCand
	budget := mutation.BudgetRelations
	if p.count > 150 {
		// Large corpora need the template-level pool for enough variety.
		budget = mutation.BudgetTemplates
	}
	for _, s := range eng.Sites() {
		for _, c := range eng.Candidates(s, budget) {
			pool = append(pool, editCand{site: s, repl: c})
		}
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })

	gtPrint := printer.Module(gt)
	seen := map[string]bool{gtPrint: true}
	var shallow, deep []*Spec

	tryEdit := func(edits []faultEdit, depth int) *Spec {
		mod := eng.Mod
		var applied *ast.Module
		for i, e := range edits {
			var err error
			if i == 0 {
				applied, err = mutation.Apply(mod, e.site.Site, e.repl)
			} else {
				applied, err = mutation.Apply(applied, e.site.Site, e.repl)
			}
			if err != nil {
				return nil
			}
		}
		key := printer.Module(applied)
		if seen[key] {
			return nil
		}
		seen[key] = true
		if !g.breaksOracle(applied) {
			return nil
		}
		first := edits[0]
		spec := &Spec{
			Benchmark:   p.benchmark,
			Domain:      p.domain,
			Depth:       depth,
			Faulty:      applied,
			GroundTruth: gt,
			Tests:       p.tests(),
			Hints: repair.Hints{
				Location: first.site.Container.String(),
				FixDescription: fmt.Sprintf("replace `%s` with `%s`",
					printer.Expr(first.repl), printer.Expr(first.site.Node)),
				PassAssertion: firstAssertName(gt),
			},
		}
		return spec
	}

	// Target mix. tripleShare > 0 (the synthetic stacked-fault corpora) caps
	// single-edit generation at what the mix actually needs; the legacy
	// profiles (tripleShare == 0) keep filling the single-edit pool to the
	// full count, preserving their exact historical corpora.
	wantDeep := int(float64(p.count)*p.deepShare + 0.5)
	wantTriple := int(float64(p.count)*p.tripleShare + 0.5)
	shallowTarget := p.count
	if p.tripleShare > 0 {
		shallowTarget = maxInt(0, p.count-wantDeep-wantTriple)
	}

	// Single edits first.
	for _, c := range pool {
		if len(shallow) >= shallowTarget {
			break
		}
		if s := tryEdit([]faultEdit{{site: c.site, repl: c.repl}}, 1); s != nil {
			shallow = append(shallow, s)
		}
	}

	// Double edits: pair distinct pool entries at different sites.
	if wantDeep > 0 || len(shallow) < shallowTarget {
		need := wantDeep + maxInt(0, shallowTarget-len(shallow))
		for i := 0; i < len(pool) && len(deep) < need; i++ {
			for j := i + 1; j < len(pool) && len(deep) < need; j++ {
				a, b := pool[i], pool[j]
				if a.site.Site.String() == b.site.Site.String() {
					continue
				}
				if s := tryEdit([]faultEdit{
					{site: a.site, repl: a.repl},
					{site: b.site, repl: b.repl},
				}, 2); s != nil {
					deep = append(deep, s)
				}
			}
		}
	}

	// Triple edits: the tripleShare fraction of the corpus gets three
	// stacked faults at pairwise-distinct sites (Depth 3).
	var triple []*Spec
	for i := 0; i < len(pool) && len(triple) < wantTriple; i++ {
		for j := i + 1; j < len(pool) && len(triple) < wantTriple; j++ {
			for k := j + 1; k < len(pool) && len(triple) < wantTriple; k++ {
				a, b, c := pool[i], pool[j], pool[k]
				if a.site.Site.String() == b.site.Site.String() ||
					b.site.Site.String() == c.site.Site.String() ||
					a.site.Site.String() == c.site.Site.String() {
					continue
				}
				if s := tryEdit([]faultEdit{
					{site: a.site, repl: a.repl},
					{site: b.site, repl: b.repl},
					{site: c.site, repl: c.repl},
				}, 3); s != nil {
					triple = append(triple, s)
				}
			}
		}
	}

	// Last resort for very large corpora over compact models: stack three
	// edits at pairwise-distinct sites. (Labeled Depth 2 for the legacy
	// profiles' historical corpora; tripleShare corpora never reach here
	// unless their double/triple pools fell short.)
	if len(shallow)+len(deep)+len(triple) < p.count {
		need := p.count - len(shallow) - len(deep) - len(triple)
		for i := 0; i < len(pool) && need > 0; i++ {
			for j := i + 1; j < len(pool) && need > 0; j++ {
				for k := j + 1; k < len(pool) && need > 0; k++ {
					a, b, c := pool[i], pool[j], pool[k]
					if a.site.Site.String() == b.site.Site.String() ||
						b.site.Site.String() == c.site.Site.String() ||
						a.site.Site.String() == c.site.Site.String() {
						continue
					}
					if s := tryEdit([]faultEdit{
						{site: a.site, repl: a.repl},
						{site: b.site, repl: b.repl},
						{site: c.site, repl: c.repl},
					}, 2); s != nil {
						deep = append(deep, s)
						need--
					}
				}
			}
		}
	}

	// Assemble: tripleShare of the corpus from the triple pool, deepShare
	// from the double pool, rest shallow.
	var specs []*Spec
	useTriple := minInt(wantTriple, len(triple))
	useDeep := minInt(wantDeep, len(deep))
	useShallow := minInt(p.count-useDeep-useTriple, len(shallow))
	specs = append(specs, shallow[:useShallow]...)
	specs = append(specs, deep[:useDeep]...)
	specs = append(specs, triple[:useTriple]...)
	// Top up from whichever pool has leftovers.
	for _, extra := range [][]*Spec{triple[useTriple:], deep[useDeep:], shallow[useShallow:]} {
		for _, s := range extra {
			if len(specs) >= p.count {
				break
			}
			specs = append(specs, s)
		}
	}
	if len(specs) < p.count {
		return nil, fmt.Errorf("only %d of %d faulty variants could be generated", len(specs), p.count)
	}
	for i, s := range specs {
		s.Name = fmt.Sprintf("%s/%04d", p.domain, i)
	}
	return specs, nil
}

// breaksOracle reports whether the module fails at least one of its
// commands (and still analyzes at all).
func (g *Generator) breaksOracle(mod *ast.Module) bool {
	ok, err := repair.OracleAllCommandsPass(context.Background(), g.an, mod)
	if err != nil {
		return false // non-analyzable mutants are not realistic faulty specs
	}
	return !ok
}

func firstAssertName(mod *ast.Module) string {
	if len(mod.Asserts) > 0 {
		return mod.Asserts[0].Name
	}
	return ""
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
