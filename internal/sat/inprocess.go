package sat

import "sort"

// InprocessOptions bounds the simplification effort. The zero value selects
// defaults tuned for the translator's machine-generated CNF.
type InprocessOptions struct {
	// Rounds caps the propagate/subsume/eliminate sweeps; 0 selects 3.
	Rounds int
	// MaxResolvePairs skips bounded variable elimination of a variable whose
	// positive×negative occurrence product exceeds this; 0 selects 40.
	MaxResolvePairs int
	// MaxOccList skips subsumption/strengthening probes through occurrence
	// lists longer than this; 0 selects 1000.
	MaxOccList int
}

// InprocessStats summarizes one simplification run.
type InprocessStats struct {
	UnitsFixed     int // root assignments derived by unit propagation
	Subsumed       int // clauses deleted because a subset clause exists
	Strengthened   int // literals removed by self-subsuming resolution
	VarsEliminated int // variables removed by BVE (including pure literals)
	ClausesRemoved int // clauses deleted by BVE
	ClausesAdded   int // resolvents added by BVE
	OrigClauses    int
	FinalClauses   int
}

// elimRecord remembers everything needed to restore an eliminated variable's
// value from a model of the simplified CNF: the variable and the original
// clauses that contained it.
type elimRecord struct {
	v       int
	clauses [][]Lit
}

// Inprocessed is a simplified CNF plus the reconstruction stack mapping its
// models back to models of the original formula.
type Inprocessed struct {
	NumVars int
	// Clauses is the simplified formula, including one unit clause per
	// root-fixed variable (so assumptions conflicting with a derived unit
	// still surface as UNSAT in the solver, matching the original CNF).
	Clauses [][]Lit
	// Unsat reports that simplification refuted the formula outright.
	Unsat bool
	Stats InprocessStats

	elims []elimRecord
}

// inproc is the working state of one Inprocess run.
type inproc struct {
	opts   InprocessOptions
	nvars  int
	frozen []bool

	cls   []ipClause
	occ   [][]int // literal -> clause indices (may contain stale entries)
	asg   []Tribool
	elim  []bool
	unsat bool

	units []Lit // propagation queue
	stats InprocessStats
	elims []elimRecord
}

type ipClause struct {
	lits []Lit // sorted, deduplicated
	sig  uint64
	dead bool
}

// sigOf computes a 64-bit Bloom signature of the clause: bit v%64 set for
// each variable. D can only subsume C if sig(D) is a subset of sig(C)'s
// superset — the O(1) pre-filter in front of every subset test.
func sigOf(lits []Lit) uint64 {
	var s uint64
	for _, l := range lits {
		s |= 1 << (uint(l.Var()) % 64)
	}
	return s
}

// Inprocess simplifies a CNF over numVars variables: unit propagation to
// fixpoint, clause subsumption, self-subsuming resolution (strengthening),
// and bounded variable elimination with a model-reconstruction stack.
// Variables marked frozen are never eliminated — callers freeze every
// variable that later appears in a solve-time assumption, since eliminating
// one would silently discard the constraint the assumption is meant to
// toggle. The input clauses are not modified.
func Inprocess(numVars int, clauses [][]Lit, frozen []bool, opts InprocessOptions) *Inprocessed {
	if opts.Rounds <= 0 {
		opts.Rounds = 3
	}
	if opts.MaxResolvePairs <= 0 {
		opts.MaxResolvePairs = 40
	}
	if opts.MaxOccList <= 0 {
		opts.MaxOccList = 1000
	}
	ip := &inproc{
		opts:   opts,
		nvars:  numVars,
		frozen: make([]bool, numVars),
		occ:    make([][]int, 2*numVars),
		asg:    make([]Tribool, numVars),
		elim:   make([]bool, numVars),
	}
	copy(ip.frozen, frozen)
	ip.stats.OrigClauses = len(clauses)

	ip.intake(clauses)
	for round := 0; round < opts.Rounds && !ip.unsat; round++ {
		ip.propagate()
		if ip.unsat {
			break
		}
		changed := ip.subsumeAll()
		ip.propagate()
		if ip.unsat {
			break
		}
		if ip.eliminateAll() {
			changed = true
		}
		if !changed {
			break
		}
	}
	if !ip.unsat {
		ip.propagate()
	}
	return ip.result()
}

func (ip *inproc) intake(clauses [][]Lit) {
	for _, raw := range clauses {
		lits := append([]Lit(nil), raw...)
		sort.Slice(lits, func(i, j int) bool { return lits[i] < lits[j] })
		out := lits[:0]
		var prev Lit = -1
		taut := false
		for _, l := range lits {
			if prev >= 0 && l == prev.Not() {
				taut = true
				break
			}
			if l == prev {
				continue
			}
			out = append(out, l)
			prev = l
		}
		if taut {
			continue
		}
		switch len(out) {
		case 0:
			ip.unsat = true
			return
		case 1:
			ip.enqueue(out[0])
		default:
			ip.addClause(out)
		}
	}
}

func (ip *inproc) addClause(lits []Lit) int {
	id := len(ip.cls)
	ip.cls = append(ip.cls, ipClause{lits: lits, sig: sigOf(lits)})
	for _, l := range lits {
		ip.occ[l] = append(ip.occ[l], id)
	}
	return id
}

func (ip *inproc) value(l Lit) Tribool {
	v := ip.asg[l.Var()]
	if v == Unassigned {
		return Unassigned
	}
	if l.IsNeg() {
		return -v
	}
	return v
}

func (ip *inproc) enqueue(l Lit) {
	switch ip.value(l) {
	case True:
		return
	case False:
		ip.unsat = true
		return
	}
	if l.IsNeg() {
		ip.asg[l.Var()] = False
	} else {
		ip.asg[l.Var()] = True
	}
	ip.stats.UnitsFixed++
	ip.units = append(ip.units, l)
}

// propagate runs unit propagation to fixpoint over the clause set: clauses
// containing a true literal die, false literals drop out of clauses, and
// newly unit clauses feed the queue.
func (ip *inproc) propagate() {
	for len(ip.units) > 0 && !ip.unsat {
		l := ip.units[0]
		ip.units = ip.units[1:]
		// Satisfied clauses die.
		for _, ci := range ip.occ[l] {
			c := &ip.cls[ci]
			if !c.dead && containsLit(c.lits, l) {
				ip.killClause(ci)
			}
		}
		ip.occ[l] = nil
		// Falsified literals drop out; shrinking clauses may go unit/empty.
		neg := l.Not()
		for _, ci := range ip.occ[neg] {
			c := &ip.cls[ci]
			if c.dead || !containsLit(c.lits, neg) {
				continue
			}
			ip.removeLit(ci, neg)
			if ip.unsat {
				return
			}
		}
		ip.occ[neg] = nil
	}
}

func containsLit(lits []Lit, l Lit) bool {
	i := sort.Search(len(lits), func(i int) bool { return lits[i] >= l })
	return i < len(lits) && lits[i] == l
}

func (ip *inproc) killClause(ci int) {
	ip.cls[ci].dead = true
}

// removeLit strengthens clause ci by deleting literal l, handling the
// resulting unit/empty cases.
func (ip *inproc) removeLit(ci int, l Lit) {
	c := &ip.cls[ci]
	out := make([]Lit, 0, len(c.lits)-1)
	for _, q := range c.lits {
		if q != l {
			out = append(out, q)
		}
	}
	switch len(out) {
	case 0:
		ip.unsat = true
	case 1:
		ip.killClause(ci)
		ip.enqueue(out[0])
	default:
		c.lits = out
		c.sig = sigOf(out)
	}
}

// subset reports whether every literal of a (sorted) occurs in b (sorted).
func subset(a, b []Lit) bool {
	i := 0
	for _, l := range a {
		for i < len(b) && b[i] < l {
			i++
		}
		if i >= len(b) || b[i] != l {
			return false
		}
		i++
	}
	return true
}

// subsetExcept reports whether a ⊆ b when literal skip of a is replaced by
// its negation — the self-subsuming resolution test.
func subsetExcept(a, b []Lit, skip Lit) bool {
	i := 0
	for _, l := range a {
		want := l
		if l == skip {
			want = l.Not()
		}
		found := false
		for i < len(b) {
			if b[i] == want {
				found = true
				i++
				break
			}
			if b[i] > want {
				break
			}
			i++
		}
		if !found {
			// want may sort before the cursor when skip flips sign order;
			// fall back to a binary search for robustness.
			if !containsLit(b, want) {
				return false
			}
		}
	}
	return true
}

// subsumeAll runs one forward subsumption + strengthening sweep. Returns
// whether anything changed.
func (ip *inproc) subsumeAll() bool {
	changed := false
	order := make([]int, 0, len(ip.cls))
	for ci := range ip.cls {
		if !ip.cls[ci].dead {
			order = append(order, ci)
		}
	}
	// Short clauses first: they subsume the most and are the cheapest probes.
	sort.Slice(order, func(i, j int) bool { return len(ip.cls[order[i]].lits) < len(ip.cls[order[j]].lits) })
	for _, ci := range order {
		c := &ip.cls[ci]
		if c.dead {
			continue
		}
		// Probe through the literal with the shortest occurrence list.
		best := c.lits[0]
		for _, l := range c.lits[1:] {
			if len(ip.occ[l]) < len(ip.occ[best]) {
				best = l
			}
		}
		if len(ip.occ[best]) <= ip.opts.MaxOccList {
			for _, di := range ip.occ[best] {
				d := &ip.cls[di]
				if di == ci || d.dead || len(d.lits) < len(c.lits) {
					continue
				}
				if c.sig&^d.sig != 0 || !containsLit(d.lits, best) {
					continue
				}
				if subset(c.lits, d.lits) {
					ip.killClause(di)
					ip.stats.Subsumed++
					changed = true
				}
			}
		}
		// Self-subsuming resolution: if (C \ {l}) ∪ {¬l} ⊆ D, resolving C
		// and D on l yields D \ {¬l} — D can be strengthened in place.
		for _, l := range c.lits {
			if c.dead {
				break
			}
			neg := l.Not()
			if len(ip.occ[neg]) > ip.opts.MaxOccList {
				continue
			}
			occ := ip.occ[neg]
			for _, di := range occ {
				d := &ip.cls[di]
				if d.dead || len(d.lits) < len(c.lits) || !containsLit(d.lits, neg) {
					continue
				}
				if (c.sig&^(1<<(uint(l.Var())%64)))&^d.sig != 0 {
					continue
				}
				if subsetExcept(c.lits, d.lits, l) {
					ip.removeLit(di, neg)
					ip.stats.Strengthened++
					changed = true
					if ip.unsat {
						return true
					}
					ip.propagate()
					if ip.unsat || c.dead {
						break
					}
				}
			}
		}
	}
	return changed
}

// liveOcc returns the live clause indices currently containing literal l,
// compacting the occurrence list in place.
func (ip *inproc) liveOcc(l Lit) []int {
	occ := ip.occ[l]
	out := occ[:0]
	for _, ci := range occ {
		if !ip.cls[ci].dead && containsLit(ip.cls[ci].lits, l) {
			out = append(out, ci)
		}
	}
	ip.occ[l] = out
	return out
}

// eliminateAll runs one bounded-variable-elimination sweep: a non-frozen
// variable is resolved away when the non-tautological resolvents of its
// positive × negative occurrences number no more than the clauses removed
// (the classic non-growing rule), or trivially when it is a pure literal.
// Removed original clauses go onto the reconstruction stack.
func (ip *inproc) eliminateAll() bool {
	changed := false
	for v := 0; v < ip.nvars && !ip.unsat; v++ {
		if ip.elim[v] || ip.frozen[v] || ip.asg[v] != Unassigned {
			continue
		}
		pos := ip.liveOcc(PosLit(v))
		neg := ip.liveOcc(NegLit(v))
		if len(pos) == 0 && len(neg) == 0 {
			continue
		}
		if len(pos)*len(neg) > ip.opts.MaxResolvePairs {
			continue
		}
		// Compute resolvents (empty for a pure literal).
		var resolvents [][]Lit
		grow := false
		for _, pi := range pos {
			for _, ni := range neg {
				r, taut := resolve(ip.cls[pi].lits, ip.cls[ni].lits, v)
				if taut {
					continue
				}
				resolvents = append(resolvents, r)
				if len(resolvents) > len(pos)+len(neg) {
					grow = true
					break
				}
			}
			if grow {
				break
			}
		}
		if grow {
			continue
		}
		// Eliminate: stash originals for reconstruction, kill them, add the
		// resolvents.
		rec := elimRecord{v: v}
		for _, ci := range append(append([]int(nil), pos...), neg...) {
			rec.clauses = append(rec.clauses, ip.cls[ci].lits)
			ip.killClause(ci)
			ip.stats.ClausesRemoved++
		}
		ip.elims = append(ip.elims, rec)
		ip.elim[v] = true
		ip.stats.VarsEliminated++
		changed = true
		for _, r := range resolvents {
			// Simplify against units enqueued by earlier resolvents of this
			// sweep (propagation will not revisit already-processed literals).
			keep := r[:0]
			sat := false
			for _, l := range r {
				switch ip.value(l) {
				case True:
					sat = true
				case False:
					continue
				default:
					keep = append(keep, l)
				}
			}
			if sat {
				continue
			}
			switch len(keep) {
			case 0:
				ip.unsat = true
			case 1:
				ip.enqueue(keep[0])
			default:
				ip.addClause(keep)
				ip.stats.ClausesAdded++
			}
			if ip.unsat {
				break
			}
		}
		ip.propagate()
	}
	return changed
}

// resolve computes the resolvent of a and b on variable v (both sorted),
// reporting tautology.
func resolve(a, b []Lit, v int) ([]Lit, bool) {
	out := make([]Lit, 0, len(a)+len(b)-2)
	for _, l := range a {
		if l.Var() != v {
			out = append(out, l)
		}
	}
	for _, l := range b {
		if l.Var() != v {
			out = append(out, l)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	dedup := out[:0]
	var prev Lit = -1
	for _, l := range out {
		if prev >= 0 && l == prev.Not() {
			return nil, true
		}
		if l == prev {
			continue
		}
		dedup = append(dedup, l)
		prev = l
	}
	return dedup, false
}

// result packages the simplified CNF.
func (ip *inproc) result() *Inprocessed {
	out := &Inprocessed{NumVars: ip.nvars, Unsat: ip.unsat, elims: ip.elims}
	if !ip.unsat {
		for v := 0; v < ip.nvars; v++ {
			switch ip.asg[v] {
			case True:
				out.Clauses = append(out.Clauses, []Lit{PosLit(v)})
			case False:
				out.Clauses = append(out.Clauses, []Lit{NegLit(v)})
			}
		}
		for ci := range ip.cls {
			if !ip.cls[ci].dead {
				out.Clauses = append(out.Clauses, ip.cls[ci].lits)
			}
		}
	}
	ip.stats.FinalClauses = len(out.Clauses)
	out.Stats = ip.stats
	return out
}

// Reconstruct extends a model of the simplified CNF to a model of the
// original: eliminated variables are replayed in reverse elimination order,
// each set to satisfy whichever of its original clauses the partial model
// leaves unsatisfied (BVE guarantees at most one polarity is ever demanded).
// The input model (indexed by variable, Unassigned treated as False) is not
// modified.
func (ip *Inprocessed) Reconstruct(model []Tribool) []Tribool {
	out := make([]Tribool, ip.NumVars)
	copy(out, model)
	for i := range out {
		if out[i] == Unassigned {
			out[i] = False
		}
	}
	litTrue := func(l Lit) bool {
		if l.IsNeg() {
			return out[l.Var()] == False
		}
		return out[l.Var()] == True
	}
	for i := len(ip.elims) - 1; i >= 0; i-- {
		rec := ip.elims[i]
		val := False
		for _, cl := range rec.clauses {
			satisfied := false
			var vlit Lit = -1
			for _, l := range cl {
				if l.Var() == rec.v {
					vlit = l
					continue
				}
				if litTrue(l) {
					satisfied = true
					break
				}
			}
			if !satisfied && vlit >= 0 && !vlit.IsNeg() {
				val = True
				break
			}
		}
		out[rec.v] = val
	}
	return out
}
