package sat

import (
	"context"
	"sort"
	"time"

	"specrepair/internal/telemetry"
)

// Options configures a Solver. The zero value selects full CDCL with an
// unlimited conflict budget.
type Options struct {
	// MaxConflicts aborts the search with StatusUnknown after this many
	// conflicts; 0 means unlimited.
	MaxConflicts int64
	// Context, when non-nil, cancels in-flight searches: Solve polls it every
	// ctxPollMask+1 conflicts (and at every restart boundary) and returns
	// StatusUnknown once the context is done. Cancellation never corrupts the
	// solver — a later Solve under a live context picks up where learning
	// left off. Nil means never cancelled.
	Context context.Context
	// DisableLearning turns off clause learning (the solver still backtracks
	// chronologically on conflicts). Used by the ablation benchmarks.
	DisableLearning bool
	// DisableVSIDS replaces activity-ordered branching with lowest-index
	// branching. Used by the ablation benchmarks.
	DisableVSIDS bool
	// DisableReduce keeps every learnt clause forever instead of running
	// LBD-scored clause-database reduction. Used by the ablation benchmarks
	// and as a safety valve for long-lived incremental solvers.
	DisableReduce bool
	// Telemetry, when non-nil, receives each Solve call's latency and
	// effort (conflicts, decisions, propagations, budget exhaustion). Nil
	// disables recording with no per-solve overhead.
	Telemetry *telemetry.Collector
}

type clause struct {
	lits   []Lit
	learnt bool
	act    float64
	// lbd is the literal block distance (glue) computed when the clause was
	// learnt: the number of distinct decision levels among its literals.
	// Low-LBD clauses connect few levels and prune disproportionately, so
	// reduceDB keeps them.
	lbd int
}

type watcher struct {
	clauseID int
	blocker  Lit
}

// Search constants. Fresh variables start with saved phase false, as in
// classic MiniSat.
const (
	// restartBase is the Luby restart unit: restart r runs
	// luby(r)*restartBase conflicts.
	restartBase = 100
	// varDecay is the VSIDS activity decay factor.
	varDecay = 0.95
	// clauseDecay is the learnt-clause activity decay factor.
	clauseDecay = 0.999
	// reduceFloor is the minimum learnt-clause budget before reduceDB
	// triggers.
	reduceFloor = 4000
)

// Solver is a CDCL SAT solver. It is not safe for concurrent use.
type Solver struct {
	opts Options
	// span, when non-nil, parents one "sat.solve" trace span per Solve call.
	span *telemetry.Span

	numVars int
	clauses []*clause
	watches [][]watcher // indexed by literal

	assigns  []Tribool // per var
	level    []int     // decision level per var
	reason   []int     // clause id per var, -1 if decision/unset
	polarity []bool    // saved phase per var (true = last assigned true)

	trail    []Lit
	trailLim []int // trail index at each decision level
	qhead    int

	activity []float64
	varInc   float64
	order    *varHeap

	clauseInc float64

	unsatisfiable bool // an empty clause was added

	// Statistics.
	Conflicts    int64
	Decisions    int64
	Propagations int64
	Learned      int64
	// Removed counts learnt clauses deleted by reduceDB; Learned-Removed
	// (minus learnt units) is the live learnt-database size.
	Removed int64

	// learntCount tracks attached learnt clauses; maxLearnts is the budget
	// that triggers reduceDB (0 until initialized on first check).
	learntCount int
	maxLearnts  int
	// conflictLimit is the Conflicts value at which the current Solve call
	// gives up (0 = unlimited). It is per-call: on a long-lived incremental
	// solver the cumulative Conflicts counter exceeds any fixed budget
	// eventually, so comparing against MaxConflicts directly would wedge
	// every later call at StatusUnknown.
	conflictLimit int64

	seen     []bool
	anaStack []Lit
	anaToClr []Lit
	model    []Tribool
	lbdStamp []int
	lbdGen   int
}

// NewSolver returns a solver with the given options.
func NewSolver(opts Options) *Solver {
	s := &Solver{opts: opts, varInc: 1.0, clauseInc: 1.0}
	s.order = newVarHeap(&s.activity)
	return s
}

// SetSpan parents subsequent solves' trace spans to sp: each Solve call then
// emits one "sat.solve" child carrying its conflict/decision/propagation
// deltas. Nil (the default) keeps solving span-free at zero cost.
func (s *Solver) SetSpan(sp *telemetry.Span) { s.span = sp }

// Grow reserves capacity for at least n variables, reallocating each
// per-variable slice once in bulk. Translators that know the problem size
// up front call this so that the subsequent NewVar storm never reallocates;
// NewVar itself falls back to capacity doubling through the same path.
func (s *Solver) Grow(n int) {
	if n <= cap(s.assigns) {
		return
	}
	s.watches = grown(s.watches, 2*n)
	s.assigns = grown(s.assigns, n)
	s.level = grown(s.level, n)
	s.reason = grown(s.reason, n)
	s.polarity = grown(s.polarity, n)
	s.activity = grown(s.activity, n)
	s.seen = grown(s.seen, n)
	s.order.grow(n)
}

// grown returns s with capacity at least c, preserving contents.
func grown[T any](s []T, c int) []T {
	if c <= cap(s) {
		return s
	}
	out := make([]T, len(s), c)
	copy(out, s)
	return out
}

// NewVar allocates a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	if s.numVars == cap(s.assigns) {
		next := 2 * s.numVars
		if next < 64 {
			next = 64
		}
		s.Grow(next)
	}
	v := s.numVars
	s.numVars++
	s.watches = s.watches[:2*v+2]
	s.watches[2*v], s.watches[2*v+1] = nil, nil
	s.assigns = s.assigns[:v+1]
	s.assigns[v] = Unassigned
	s.level = s.level[:v+1]
	s.level[v] = 0
	s.reason = s.reason[:v+1]
	s.reason[v] = -1
	s.polarity = s.polarity[:v+1]
	s.polarity[v] = false
	s.activity = s.activity[:v+1]
	s.activity[v] = 0
	s.seen = s.seen[:v+1]
	s.seen[v] = false
	s.order.push(v)
	return v
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return s.numVars }

// NumClauses returns the number of problem (non-learnt) clauses.
func (s *Solver) NumClauses() int {
	n := 0
	for _, c := range s.clauses {
		if !c.learnt {
			n++
		}
	}
	return n
}

// NumLearnts returns the number of learnt clauses currently attached — the
// knowledge an incremental session carries from one Solve to the next.
func (s *Solver) NumLearnts() int { return s.learntCount }

func (s *Solver) value(l Lit) Tribool {
	v := s.assigns[l.Var()]
	if v == Unassigned {
		return Unassigned
	}
	if l.IsNeg() {
		return -v
	}
	return v
}

// AddClause adds a problem clause. It returns false if the clause database
// became trivially unsatisfiable (an empty clause after simplification at
// decision level zero).
func (s *Solver) AddClause(lits ...Lit) bool {
	if s.unsatisfiable {
		return false
	}
	// Must be at decision level 0.
	sorted := append([]Lit(nil), lits...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	out := sorted[:0]
	var prev Lit = -1
	for _, l := range sorted {
		if l.Var() >= s.numVars {
			for s.numVars <= l.Var() {
				s.NewVar()
			}
		}
		if s.value(l) == True || (prev >= 0 && l == prev.Not()) {
			return true // satisfied or tautological
		}
		if s.value(l) == False || l == prev {
			continue // falsified at level 0 or duplicate
		}
		out = append(out, l)
		prev = l
	}
	switch len(out) {
	case 0:
		s.unsatisfiable = true
		return false
	case 1:
		s.uncheckedEnqueue(out[0], -1)
		if s.propagate() != -1 {
			s.unsatisfiable = true
			return false
		}
		return true
	default:
		s.attachClause(&clause{lits: append([]Lit(nil), out...)})
		return true
	}
}

func (s *Solver) attachClause(c *clause) int {
	id := len(s.clauses)
	s.clauses = append(s.clauses, c)
	s.watches[c.lits[0].Not()] = append(s.watches[c.lits[0].Not()], watcher{id, c.lits[1]})
	s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], watcher{id, c.lits[0]})
	return id
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) uncheckedEnqueue(l Lit, reasonID int) {
	v := l.Var()
	if l.IsNeg() {
		s.assigns[v] = False
	} else {
		s.assigns[v] = True
	}
	s.polarity[v] = !l.IsNeg()
	s.level[v] = s.decisionLevel()
	s.reason[v] = reasonID
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation; it returns the id of a conflicting
// clause, or -1 if no conflict was found.
func (s *Solver) propagate() int {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead] // p is now true
		s.qhead++
		s.Propagations++
		falsified := p.Not()
		ws := s.watches[p]
		kept := ws[:0]
		conflict := -1
		for wi := 0; wi < len(ws); wi++ {
			w := ws[wi]
			if conflict >= 0 {
				kept = append(kept, ws[wi:]...)
				break
			}
			if s.value(w.blocker) == True {
				kept = append(kept, w)
				continue
			}
			c := s.clauses[w.clauseID]
			// Ensure the falsified literal is lits[1].
			if c.lits[0] == falsified {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			first := c.lits[0]
			if first != w.blocker && s.value(first) == True {
				kept = append(kept, watcher{w.clauseID, first})
				continue
			}
			// Look for a new literal to watch.
			found := false
			for k := 2; k < len(c.lits); k++ {
				if s.value(c.lits[k]) != False {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], watcher{w.clauseID, first})
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Clause is unit or conflicting.
			kept = append(kept, watcher{w.clauseID, first})
			if s.value(first) == False {
				conflict = w.clauseID
				s.qhead = len(s.trail)
			} else {
				s.uncheckedEnqueue(first, w.clauseID)
			}
		}
		s.watches[p] = kept
		if conflict >= 0 {
			return conflict
		}
	}
	return -1
}

// analyze performs first-UIP conflict analysis, returning the learnt clause
// (with the asserting literal first) and the backjump level.
func (s *Solver) analyze(conflictID int) ([]Lit, int) {
	learnt := []Lit{0} // placeholder for the asserting literal
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1
	cID := conflictID

	for {
		c := s.clauses[cID]
		if c.learnt {
			s.bumpClause(c)
		}
		start := 0
		if p != -1 {
			start = 1
		}
		for _, q := range c.lits[start:] {
			v := q.Var()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.bumpVar(v)
			if s.level[v] >= s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Find the next literal on the trail to expand.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		s.seen[p.Var()] = false
		counter--
		if counter == 0 {
			break
		}
		cID = s.reason[p.Var()]
	}
	learnt[0] = p.Not()

	// Cheap clause minimization: drop literals implied by the rest. The
	// seen flags of dropped literals must be cleared too, so collect the
	// full pre-minimization set first.
	toClear := append(s.anaToClr[:0], learnt...)
	minimized := learnt[:1]
	for _, l := range learnt[1:] {
		if !s.redundant(l) {
			minimized = append(minimized, l)
		}
	}
	learnt = minimized

	for _, l := range toClear {
		s.seen[l.Var()] = false
	}
	s.anaToClr = toClear

	backLevel := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		backLevel = s.level[learnt[1].Var()]
	}
	return learnt, backLevel
}

// redundant reports whether literal l's reason clause consists only of
// literals already seen (a one-step self-subsumption test).
func (s *Solver) redundant(l Lit) bool {
	rID := s.reason[l.Var()]
	if rID < 0 {
		return false
	}
	for _, q := range s.clauses[rID].lits {
		if q.Var() == l.Var() {
			continue
		}
		if !s.seen[q.Var()] && s.level[q.Var()] != 0 {
			return false
		}
	}
	return true
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

func (s *Solver) bumpClause(c *clause) {
	c.act += s.clauseInc
	if c.act > 1e20 {
		for _, cl := range s.clauses {
			if cl.learnt {
				cl.act *= 1e-20
			}
		}
		s.clauseInc *= 1e-20
	}
}

func (s *Solver) cancelUntil(level int) {
	if s.decisionLevel() <= level {
		return
	}
	bound := s.trailLim[level]
	for i := len(s.trail) - 1; i >= bound; i-- {
		v := s.trail[i].Var()
		s.assigns[v] = Unassigned
		s.reason[v] = -1
		if !s.order.contains(v) {
			s.order.push(v)
		}
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

func (s *Solver) pickBranchVar() int {
	if s.opts.DisableVSIDS {
		for v := 0; v < s.numVars; v++ {
			if s.assigns[v] == Unassigned {
				return v
			}
		}
		return -1
	}
	for s.order.len() > 0 {
		v := s.order.pop()
		if s.assigns[v] == Unassigned {
			return v
		}
	}
	return -1
}

// luby computes the Luby restart sequence value for index i (1-based).
func luby(i int64) int64 {
	for k := int64(1); ; k++ {
		pow := int64(1) << uint(k)
		if i == pow-1 {
			return pow / 2
		}
		if i < pow-1 {
			return luby(i - pow/2 + 1)
		}
	}
}

// Solve searches for a satisfying assignment consistent with the given
// assumption literals. With telemetry configured, each call records its
// latency and the conflict/decision/propagation effort it spent.
func (s *Solver) Solve(assumptions ...Lit) Status {
	col, parent := s.opts.Telemetry, s.span
	if col == nil && parent == nil {
		return s.solve(assumptions)
	}
	child := parent.Child("sat.solve")
	start := time.Now()
	c0, d0, p0 := s.Conflicts, s.Decisions, s.Propagations
	st := s.solve(assumptions)
	if col != nil {
		col.RecordSolve(time.Since(start), s.Conflicts-c0, s.Decisions-d0, s.Propagations-p0,
			st == StatusUnknown)
	}
	if child != nil {
		child.SetAttr("status", st.String())
		child.SetMetric("conflicts", s.Conflicts-c0)
		child.SetMetric("decisions", s.Decisions-d0)
		child.SetMetric("propagations", s.Propagations-p0)
		child.End()
	}
	return st
}

// ctxPollMask throttles context checks to one every 1024 conflicts: frequent
// enough that a cancelled job stops within milliseconds of solver time, rare
// enough that the check never shows up in profiles.
const ctxPollMask = 1024 - 1

// cancelled reports whether the configured context (if any) is done.
func (s *Solver) cancelled() bool {
	return s.opts.Context != nil && s.opts.Context.Err() != nil
}

func (s *Solver) solve(assumptions []Lit) Status {
	if s.unsatisfiable {
		return StatusUnsat
	}
	if s.cancelled() {
		return StatusUnknown
	}
	defer s.cancelUntil(0)

	// The conflict budget is per Solve call, not per solver lifetime: an
	// incremental solver answers thousands of queries, each of which gets
	// the full budget.
	s.conflictLimit = 0
	if s.opts.MaxConflicts > 0 {
		s.conflictLimit = s.Conflicts + s.opts.MaxConflicts
	}

	var restartNum int64
	for {
		restartNum++
		budget := luby(restartNum) * restartBase
		if s.opts.DisableLearning {
			// Without learning a restart would discard all progress and the
			// search could cycle forever; run restart-free instead.
			budget = 0
		}
		s.maybeReduce()
		st := s.search(assumptions, budget)
		if st != StatusUnknown {
			return st
		}
		if s.conflictLimit > 0 && s.Conflicts >= s.conflictLimit {
			return StatusUnknown
		}
		if s.cancelled() {
			return StatusUnknown
		}
	}
}

// maybeReduce runs learnt-clause database reduction when the learnt count
// exceeds the current budget; the budget then grows geometrically so
// reductions stay rare relative to search.
func (s *Solver) maybeReduce() {
	if s.opts.DisableReduce || s.opts.DisableLearning {
		return
	}
	if s.maxLearnts == 0 {
		s.maxLearnts = (len(s.clauses) - s.learntCount) / 3
		if s.maxLearnts < reduceFloor {
			s.maxLearnts = reduceFloor
		}
	}
	if s.learntCount <= s.maxLearnts {
		return
	}
	s.reduceDB()
	s.maxLearnts += s.maxLearnts / 10
}

// reduceDB removes roughly the worst half of removable learnt clauses,
// ranked by (high LBD first, low activity first). Protected and kept:
// locked clauses (currently the reason of an assignment), glue clauses
// (LBD <= 2), and binary clauses. Clause ids are compacted, so reasons are
// remapped and the watch lists rebuilt.
func (s *Solver) reduceDB() {
	locked := make([]bool, len(s.clauses))
	for _, l := range s.trail {
		if r := s.reason[l.Var()]; r >= 0 {
			locked[r] = true
		}
	}
	var cands []int
	for id, c := range s.clauses {
		if c.learnt && !locked[id] && len(c.lits) > 2 && c.lbd > 2 {
			cands = append(cands, id)
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		a, b := s.clauses[cands[i]], s.clauses[cands[j]]
		if a.lbd != b.lbd {
			return a.lbd > b.lbd
		}
		return a.act < b.act
	})
	if len(cands) == 0 {
		return
	}
	remove := make([]bool, len(s.clauses))
	for _, id := range cands[:len(cands)/2] {
		remove[id] = true
	}

	remap := make([]int, len(s.clauses))
	kept := s.clauses[:0]
	for id, c := range s.clauses {
		if remove[id] {
			remap[id] = -1
			s.learntCount--
			s.Removed++
			continue
		}
		remap[id] = len(kept)
		kept = append(kept, c)
	}
	s.clauses = kept
	for v := range s.reason {
		if r := s.reason[v]; r >= 0 {
			s.reason[v] = remap[r]
		}
	}
	// Rebuild the watch lists; propagate keeps the watched literals at
	// lits[0] and lits[1], so re-watching those preserves the invariants.
	for i := range s.watches {
		s.watches[i] = s.watches[i][:0]
	}
	for id, c := range s.clauses {
		s.watches[c.lits[0].Not()] = append(s.watches[c.lits[0].Not()], watcher{id, c.lits[1]})
		s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], watcher{id, c.lits[0]})
	}
}

// computeLBD counts the distinct non-root decision levels among lits. Called
// at learn time, before backjumping, while every literal still has its level.
func (s *Solver) computeLBD(lits []Lit) int {
	s.lbdGen++
	if need := s.decisionLevel() + 1; len(s.lbdStamp) < need {
		s.lbdStamp = append(s.lbdStamp, make([]int, need-len(s.lbdStamp))...)
	}
	n := 0
	for _, l := range lits {
		lv := s.level[l.Var()]
		if lv == 0 {
			continue
		}
		if s.lbdStamp[lv] != s.lbdGen {
			s.lbdStamp[lv] = s.lbdGen
			n++
		}
	}
	return n
}

// search runs CDCL until a verdict, a restart (conflict budget reached), or
// this call's conflict limit.
func (s *Solver) search(assumptions []Lit, budget int64) Status {
	var conflictsHere int64
	for {
		conflictID := s.propagate()
		if conflictID >= 0 {
			s.Conflicts++
			conflictsHere++
			if s.decisionLevel() == 0 {
				// A root-level conflict is permanent: latch it so later
				// incremental Solve calls (whose propagation queue has
				// already passed this point) stay UNSAT.
				s.unsatisfiable = true
				return StatusUnsat
			}
			// Deadline/cancellation poll, amortized over many conflicts. The
			// definitive root-level verdict above still wins when both hold.
			if s.Conflicts&ctxPollMask == 0 && s.cancelled() {
				return StatusUnknown
			}
			if s.opts.DisableLearning {
				// Chronological backtracking: flip the last decision.
				lastDecision := s.trail[s.trailLim[s.decisionLevel()-1]]
				s.cancelUntil(s.decisionLevel() - 1)
				if s.decisionLevel() < len(assumptions) {
					return StatusUnsat
				}
				s.uncheckedEnqueue(lastDecision.Not(), -1)
				continue
			}
			// Backjumping may land below the assumption levels; the search
			// loop re-applies pending assumptions afterwards, returning
			// UNSAT if one of them has become false.
			learnt, backLevel := s.analyze(conflictID)
			lbd := s.computeLBD(learnt)
			s.cancelUntil(backLevel)
			if len(learnt) == 1 {
				s.uncheckedEnqueue(learnt[0], -1)
			} else {
				id := s.attachClause(&clause{lits: learnt, learnt: true, lbd: lbd})
				s.Learned++
				s.learntCount++
				s.bumpClause(s.clauses[id])
				s.uncheckedEnqueue(learnt[0], id)
			}
			s.varInc /= varDecay
			// Clause-activity decay: bumping with a growing increment makes
			// recently useful learnt clauses outrank stale ones in reduceDB.
			s.clauseInc /= clauseDecay
			continue
		}

		if budget > 0 && conflictsHere >= budget {
			s.cancelUntil(len(assumptions))
			return StatusUnknown
		}
		if s.conflictLimit > 0 && s.Conflicts >= s.conflictLimit {
			return StatusUnknown
		}

		// Apply pending assumptions as pseudo-decisions.
		if s.decisionLevel() < len(assumptions) {
			a := assumptions[s.decisionLevel()]
			switch s.value(a) {
			case True:
				s.trailLim = append(s.trailLim, len(s.trail))
				continue
			case False:
				return StatusUnsat
			default:
				s.trailLim = append(s.trailLim, len(s.trail))
				s.uncheckedEnqueue(a, -1)
				continue
			}
		}

		v := s.pickBranchVar()
		if v < 0 {
			s.saveModel()
			return StatusSat
		}
		s.Decisions++
		s.trailLim = append(s.trailLim, len(s.trail))
		s.uncheckedEnqueue(MkLit(v, !s.polarity[v]), -1)
	}
}

func (s *Solver) saveModel() {
	s.model = append(s.model[:0], s.assigns...)
}

// Model returns the satisfying assignment found by the last successful
// Solve. Indexing is by variable.
func (s *Solver) Model() []Tribool { return append([]Tribool(nil), s.model...) }

// ModelValue returns the last model's value for variable v (False if the
// variable was unconstrained).
func (s *Solver) ModelValue(v int) bool {
	if v < len(s.model) {
		return s.model[v] == True
	}
	return false
}

// ---------------------------------------------------------------------------
// Variable order heap (max-heap on activity).
// ---------------------------------------------------------------------------

type varHeap struct {
	act  *[]float64
	heap []int
	pos  []int // var -> heap index, -1 if absent
}

func newVarHeap(act *[]float64) *varHeap {
	return &varHeap{act: act}
}

func (h *varHeap) len() int { return len(h.heap) }

func (h *varHeap) less(i, j int) bool {
	return (*h.act)[h.heap[i]] > (*h.act)[h.heap[j]]
}

func (h *varHeap) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.pos[h.heap[i]] = i
	h.pos[h.heap[j]] = j
}

func (h *varHeap) contains(v int) bool {
	return v < len(h.pos) && h.pos[v] >= 0
}

// grow reserves capacity for n variables in the heap and position index.
func (h *varHeap) grow(n int) {
	h.heap = grown(h.heap, n)
	h.pos = grown(h.pos, n)
}

func (h *varHeap) push(v int) {
	for len(h.pos) <= v {
		h.pos = append(h.pos, -1)
	}
	if h.pos[v] >= 0 {
		return
	}
	h.heap = append(h.heap, v)
	h.pos[v] = len(h.heap) - 1
	h.up(len(h.heap) - 1)
}

func (h *varHeap) pop() int {
	v := h.heap[0]
	last := len(h.heap) - 1
	h.swap(0, last)
	h.pos[v] = -1
	h.heap = h.heap[:last]
	if len(h.heap) > 0 {
		h.down(0)
	}
	return v
}

func (h *varHeap) update(v int) {
	if h.contains(v) {
		h.up(h.pos[v])
	}
}

func (h *varHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *varHeap) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.heap) && h.less(l, smallest) {
			smallest = l
		}
		if r < len(h.heap) && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}
