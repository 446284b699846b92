package sat

import (
	"context"
	"math"
	"slices"
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

// cref is a clause reference: the arena offset of the clause's header word.
// Refs of live clauses ascend in the order the clauses were added.
type cref uint32

// crefUndef is the reason of a decision, an assumption, a root-level unit
// and an unassigned variable, and propagate's "no conflict".
const crefUndef = ^cref(0)

// Clause layout in the arena. A clause starts with a header word holding its
// size (number of literals) above two flag bits. A learnt clause follows the
// header with learntWords words — its LBD, then its float64 activity as two
// words, low half first — and every clause ends with its literals. A problem
// clause thus costs one word more than its literals.
const (
	hdrLearnt    = 1 // the clause was learnt
	hdrMark      = 2 // reduceDB: the clause is about to be removed
	hdrSizeShift = 2
	learntWords  = 3
)

// watcher is one entry of a literal's watch list: the clause watching the
// literal's complement, and a blocker — another literal of the clause whose
// truth proves the clause satisfied without reading the arena.
type watcher struct {
	cref    cref
	blocker Lit
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
	// arena holds every attached clause, header and literals inline (see
	// hdrLearnt); it holds no pointers, so the garbage collector never
	// scans it.
	arena   []Lit
	watches [][]watcher // indexed by literal

	assigns  []Tribool // per var
	level    []int     // decision level per var
	reason   []cref    // reason clause per var, crefUndef if decision/unset
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

	// problemCount and learntCount count attached problem and learnt
	// clauses; maxLearnts is the budget that triggers reduceDB (0 until
	// initialized on first check).
	problemCount int
	learntCount  int
	maxLearnts   int
	// conflictLimit is the Conflicts value at which the current Solve call
	// gives up (0 = unlimited). It is per-call: on a long-lived incremental
	// solver the cumulative Conflicts counter exceeds any fixed budget
	// eventually, so comparing against MaxConflicts directly would wedge
	// every later call at StatusUnknown.
	conflictLimit int64

	seen     []bool
	anaToClr []Lit
	model    []Tribool
	lbdStamp []int
	lbdGen   int

	// Scratch buffers reused across calls: AddClause's sorted copy of its
	// literals, analyze's learnt clause and reduceDB's candidates.
	addBuf    []Lit
	learntBuf []Lit
	reduceBuf []cref
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
	s.reason[v] = crefUndef
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
func (s *Solver) NumClauses() int { return s.problemCount }

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
// decision level zero). The solver copies what it needs and never keeps
// lits, so callers may reuse the slice as soon as AddClause returns.
func (s *Solver) AddClause(lits ...Lit) bool {
	if s.unsatisfiable {
		return false
	}
	// Must be at decision level 0.
	sorted := append(s.addBuf[:0], lits...)
	s.addBuf = sorted
	slices.Sort(sorted)
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
		s.uncheckedEnqueue(out[0], crefUndef)
		if s.propagate() != crefUndef {
			s.unsatisfiable = true
			return false
		}
		return true
	default:
		s.attachClause(s.allocClause(out, false, 0))
		s.problemCount++
		return true
	}
}

// allocClause appends a clause with the given literals to the arena and
// returns its ref. A learnt clause starts with activity zero.
func (s *Solver) allocClause(lits []Lit, learnt bool, lbd int) cref {
	c := len(s.arena)
	if len(lits)>>(31-hdrSizeShift) != 0 || uint64(c)+learntWords+1+uint64(len(lits)) >= uint64(crefUndef) {
		panic("sat: clause too large for the arena")
	}
	hdr := Lit(len(lits)) << hdrSizeShift
	if learnt {
		s.arena = append(s.arena, hdr|hdrLearnt, Lit(lbd), 0, 0)
	} else {
		s.arena = append(s.arena, hdr)
	}
	s.arena = append(s.arena, lits...)
	return cref(c)
}

// clauseWords is the arena footprint of the clause with header hdr.
func clauseWords(hdr Lit) int {
	return 1 + learntWords*int(hdr&hdrLearnt) + int(hdr>>hdrSizeShift)
}

// lits returns clause c's literals, a window into the arena: writes to it
// reorder the clause in place.
func (s *Solver) lits(c cref) []Lit {
	hdr := s.arena[c]
	start := int(c) + 1 + learntWords*int(hdr&hdrLearnt)
	return s.arena[start : start+int(hdr>>hdrSizeShift)]
}

func (s *Solver) learnt(c cref) bool { return s.arena[c]&hdrLearnt != 0 }

// lbd returns learnt clause c's literal block distance (glue): the number of
// distinct decision levels among its literals when it was learnt. Low-LBD
// clauses connect few levels and prune disproportionately, so reduceDB
// keeps them.
func (s *Solver) lbd(c cref) int { return int(s.arena[c+1]) }

// clauseAct returns learnt clause c's activity.
func (s *Solver) clauseAct(c cref) float64 {
	return math.Float64frombits(uint64(uint32(s.arena[c+2])) | uint64(uint32(s.arena[c+3]))<<32)
}

func (s *Solver) setClauseAct(c cref, act float64) {
	b := math.Float64bits(act)
	s.arena[c+2], s.arena[c+3] = Lit(uint32(b)), Lit(uint32(b>>32))
}

// locked reports whether clause c is the reason of an assignment. The
// literal a clause implies is its first, and stays first while it is
// assigned; an unassigned variable has no reason.
func (s *Solver) locked(c cref) bool {
	return s.reason[s.lits(c)[0].Var()] == c
}

func (s *Solver) attachClause(c cref) {
	lits := s.lits(c)
	s.watches[lits[0].Not()] = append(s.watches[lits[0].Not()], watcher{c, lits[1]})
	s.watches[lits[1].Not()] = append(s.watches[lits[1].Not()], watcher{c, lits[0]})
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) uncheckedEnqueue(l Lit, from cref) {
	v := l.Var()
	if l.IsNeg() {
		s.assigns[v] = False
	} else {
		s.assigns[v] = True
	}
	s.polarity[v] = !l.IsNeg()
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation; it returns the conflicting clause,
// or crefUndef if no conflict was found.
func (s *Solver) propagate() cref {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead] // p is now true
		s.qhead++
		s.Propagations++
		falsified := p.Not()
		ws := s.watches[p]
		kept := ws[:0]
		conflict := crefUndef
		for wi := 0; wi < len(ws); wi++ {
			w := ws[wi]
			if conflict != crefUndef {
				kept = append(kept, ws[wi:]...)
				break
			}
			if s.value(w.blocker) == True {
				kept = append(kept, w)
				continue
			}
			lits := s.lits(w.cref)
			// Ensure the falsified literal is lits[1].
			if lits[0] == falsified {
				lits[0], lits[1] = lits[1], lits[0]
			}
			first := lits[0]
			if first != w.blocker && s.value(first) == True {
				kept = append(kept, watcher{w.cref, first})
				continue
			}
			// Look for a new literal to watch.
			found := false
			for k := 2; k < len(lits); k++ {
				if s.value(lits[k]) != False {
					lits[1], lits[k] = lits[k], lits[1]
					s.watches[lits[1].Not()] = append(s.watches[lits[1].Not()], watcher{w.cref, first})
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Clause is unit or conflicting.
			kept = append(kept, watcher{w.cref, first})
			if s.value(first) == False {
				conflict = w.cref
				s.qhead = len(s.trail)
			} else {
				s.uncheckedEnqueue(first, w.cref)
			}
		}
		s.watches[p] = kept
		if conflict != crefUndef {
			return conflict
		}
	}
	return crefUndef
}

// analyze performs first-UIP conflict analysis, returning the learnt clause
// (with the asserting literal first) and the backjump level. The clause is
// a solver-owned buffer, valid until the next call.
func (s *Solver) analyze(confl cref) ([]Lit, int) {
	learnt := append(s.learntBuf[:0], 0) // placeholder for the asserting literal
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1
	c := confl

	for {
		if s.learnt(c) {
			s.bumpClause(c)
		}
		start := 0
		if p != -1 {
			start = 1
		}
		for _, q := range s.lits(c)[start:] {
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
		c = s.reason[p.Var()]
	}
	learnt[0] = p.Not()
	s.learntBuf = learnt

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
	r := s.reason[l.Var()]
	if r == crefUndef {
		return false
	}
	for _, q := range s.lits(r) {
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

func (s *Solver) bumpClause(c cref) {
	act := s.clauseAct(c) + s.clauseInc
	s.setClauseAct(c, act)
	if act > 1e20 {
		for i := 0; i < len(s.arena); i += clauseWords(s.arena[i]) {
			if c := cref(i); s.learnt(c) {
				s.setClauseAct(c, s.clauseAct(c)*1e-20)
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
		s.reason[v] = crefUndef
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
		s.maxLearnts = s.problemCount / 3
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
// (LBD <= 2), and binary clauses. The arena is compacted in place, so
// reasons are relocated and the watch lists rebuilt.
func (s *Solver) reduceDB() {
	cands := s.reduceBuf[:0]
	for i := 0; i < len(s.arena); i += clauseWords(s.arena[i]) {
		c := cref(i)
		if s.learnt(c) && len(s.lits(c)) > 2 && s.lbd(c) > 2 && !s.locked(c) {
			cands = append(cands, c)
		}
	}
	s.reduceBuf = cands
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if s.lbd(a) != s.lbd(b) {
			return s.lbd(a) > s.lbd(b)
		}
		return s.clauseAct(a) < s.clauseAct(b)
	})
	if len(cands) == 0 {
		return
	}
	for _, c := range cands[:len(cands)/2] {
		s.arena[c] |= hdrMark
	}

	// Slide every kept clause down over the removed ones. A locked clause's
	// reason is relocated before the move; it is found through its first
	// literal, and a relocated ref is always below the refs still to be
	// visited, so it never matches one of them.
	kept := 0
	for i := 0; i < len(s.arena); {
		hdr := s.arena[i]
		n := clauseWords(hdr)
		if hdr&hdrMark != 0 {
			s.learntCount--
			s.Removed++
		} else {
			if c := cref(i); s.locked(c) {
				s.reason[s.lits(c)[0].Var()] = cref(kept)
			}
			copy(s.arena[kept:], s.arena[i:i+n])
			kept += n
		}
		i += n
	}
	s.arena = s.arena[:kept]

	// Rebuild the watch lists; propagate keeps the watched literals at
	// lits[0] and lits[1], so re-watching those preserves the invariants.
	for i := range s.watches {
		s.watches[i] = s.watches[i][:0]
	}
	for i := 0; i < len(s.arena); i += clauseWords(s.arena[i]) {
		s.attachClause(cref(i))
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
		confl := s.propagate()
		if confl != crefUndef {
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
				s.uncheckedEnqueue(lastDecision.Not(), crefUndef)
				continue
			}
			// Backjumping may land below the assumption levels; the search
			// loop re-applies pending assumptions afterwards, returning
			// UNSAT if one of them has become false.
			learnt, backLevel := s.analyze(confl)
			lbd := s.computeLBD(learnt)
			s.cancelUntil(backLevel)
			if len(learnt) == 1 {
				s.uncheckedEnqueue(learnt[0], crefUndef)
			} else {
				c := s.allocClause(learnt, true, lbd)
				s.attachClause(c)
				s.Learned++
				s.learntCount++
				s.bumpClause(c)
				s.uncheckedEnqueue(learnt[0], c)
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
				s.uncheckedEnqueue(a, crefUndef)
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
		s.uncheckedEnqueue(MkLit(v, !s.polarity[v]), crefUndef)
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
