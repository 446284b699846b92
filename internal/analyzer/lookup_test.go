package analyzer

import (
	"testing"

	"specrepair/internal/anacache"
	"specrepair/internal/telemetry"
)

// Modules for TestLookupAccounting, all over the same signatures so the
// evaluator's incremental session can answer them. lookupPassSrc passes
// both commands, lookupFailSrc fails its first one, and the two candidates
// differ from both in their fact only; lookupWiderSrc adds a field.
const (
	lookupPassSrc = `
sig Node { next: lone Node }
fact Acyclic { all n: Node | n not in n.^next }
assert NoSelf { no n: Node | n in n.next }
check NoSelf for 3
run {} for 3
`
	lookupFailSrc = `
sig Node { next: lone Node }
fact Some { some Node }
assert NoSelf { no n: Node | n in n.next }
check NoSelf for 3
run {} for 3
`
	lookupCandSrc = `
sig Node { next: lone Node }
fact NoSelfLoop { all n: Node | n not in n.next }
assert NoSelf { no n: Node | n in n.next }
check NoSelf for 3
run {} for 3
`
	lookupCand2Src = `
sig Node { next: lone Node }
fact Empty { no next }
assert NoSelf { no n: Node | n in n.next }
check NoSelf for 3
run {} for 3
`
	lookupWiderSrc = `
sig Node { next: lone Node, prev: lone Node }
fact Acyclic { all n: Node | n not in n.^next }
assert NoSelf { no n: Node | n in n.next }
check NoSelf for 3
run {} for 3
`
)

// lookups is the hit/miss split one step leaves on an entry point.
type lookups struct{ hits, misses int64 }

// TestLookupAccounting pins how every entry point accounts its lookups:
// each step calls one entry point twice, on a cached and on an uncached
// analyzer, and the step must move that entry point's
// analyzer.<ep>.calls/hits/misses counters, the job's cache hits and misses
// and the evaluator's disposition counts by exactly the expected amounts,
// and no other entry point's counters at all. Steps share one cache, in
// order, so later steps see what earlier ones stored.
func TestLookupAccounting(t *testing.T) {
	pass := mustParse(t, lookupPassSrc)
	fail := mustParse(t, lookupFailSrc)
	cand := mustParse(t, lookupCandSrc)
	cand2 := mustParse(t, lookupCand2Src)
	wider := mustParse(t, lookupWiderSrc)
	verdicts, err := New(Options{}).Verdicts(pass)
	if err != nil {
		t.Fatal(err)
	}
	twice := func(f func() error) error {
		for i := 0; i < 2; i++ {
			if err := f(); err != nil {
				return err
			}
		}
		return nil
	}
	steps := []struct {
		name string
		ep   string
		// do makes the step's two calls on an analyzer built from opts and
		// returns the evaluator it used, if any.
		do                   func(opts Options) (*Evaluator, error)
		cached, uncached     lookups
		evCached, evUncached EvaluatorStats
	}{
		{
			name: "RunCommand", ep: telemetry.EPCommand,
			do: func(opts Options) (*Evaluator, error) {
				return nil, twice(func() error { _, err := New(opts).RunCommand(pass, pass.Commands[0]); return err })
			},
			cached: lookups{1, 1}, uncached: lookups{0, 2},
		},
		{
			name: "PassesAll stores a complete record", ep: telemetry.EPPassesAll,
			do: func(opts Options) (*Evaluator, error) {
				return nil, twice(func() error { _, err := New(opts).PassesAll(pass); return err })
			},
			cached: lookups{1, 1}, uncached: lookups{0, 2},
		},
		{
			name: "ExecuteAll replays the complete record", ep: telemetry.EPExecuteAll,
			do: func(opts Options) (*Evaluator, error) {
				return nil, twice(func() error { _, err := New(opts).ExecuteAll(pass); return err })
			},
			cached: lookups{2, 0}, uncached: lookups{0, 2},
		},
		{
			name: "PassesAll stores a failing prefix", ep: telemetry.EPPassesAll,
			do: func(opts Options) (*Evaluator, error) {
				return nil, twice(func() error { _, err := New(opts).PassesAll(fail); return err })
			},
			cached: lookups{1, 1}, uncached: lookups{0, 2},
		},
		{
			name: "ExecuteAll upgrades the prefix", ep: telemetry.EPExecuteAll,
			do: func(opts Options) (*Evaluator, error) {
				return nil, twice(func() error { _, err := New(opts).ExecuteAll(fail); return err })
			},
			cached: lookups{1, 1}, uncached: lookups{0, 2},
		},
		{
			name: "EquisatBaseline", ep: telemetry.EPEquisat,
			do: func(opts Options) (*Evaluator, error) {
				return nil, twice(func() error { _, err := New(opts).EquisatBaseline(pass.Commands, verdicts, cand); return err })
			},
			cached: lookups{1, 1}, uncached: lookups{0, 2},
		},
		{
			name: "Evaluator answers incrementally and stores nothing", ep: telemetry.EPPassesAll,
			do: func(opts Options) (*Evaluator, error) {
				ev := New(opts).Evaluator(pass)
				return ev, twice(func() error { _, err := ev.PassesAll(cand); return err })
			},
			cached: lookups{0, 2}, uncached: lookups{0, 2},
			evCached: EvaluatorStats{Queries: 2}, evUncached: EvaluatorStats{Queries: 2},
		},
		{
			name: "Evaluator probes the cache first", ep: telemetry.EPPassesAll,
			do: func(opts Options) (*Evaluator, error) {
				if _, err := New(opts).PassesAll(cand); err != nil {
					return nil, err
				}
				ev := New(opts).Evaluator(pass)
				_, err := ev.PassesAll(cand)
				return ev, err
			},
			cached: lookups{1, 1}, uncached: lookups{0, 2},
			evCached: EvaluatorStats{CacheHits: 1}, evUncached: EvaluatorStats{Queries: 1},
		},
		{
			name: "Evaluator falls back and stores the fresh answer", ep: telemetry.EPPassesAll,
			do: func(opts Options) (*Evaluator, error) {
				ev := New(opts).Evaluator(pass)
				return ev, twice(func() error { _, err := ev.PassesAll(wider); return err })
			},
			cached: lookups{1, 1}, uncached: lookups{0, 2},
			evCached: EvaluatorStats{Fallbacks: 1, CacheHits: 1}, evUncached: EvaluatorStats{Fallbacks: 2},
		},
		{
			name: "Evaluator without a session counts nothing itself", ep: telemetry.EPPassesAll,
			do: func(opts Options) (*Evaluator, error) {
				opts.DisableIncremental = true
				ev := New(opts).Evaluator(pass)
				return ev, twice(func() error { _, err := ev.PassesAll(cand2); return err })
			},
			cached: lookups{1, 1}, uncached: lookups{0, 2},
		},
	}
	eps := []string{telemetry.EPCommand, telemetry.EPExecuteAll, telemetry.EPPassesAll, telemetry.EPEquisat}
	for _, cached := range []bool{true, false} {
		name := "uncached"
		if cached {
			name = "cached"
		}
		t.Run(name, func(t *testing.T) {
			reg := telemetry.New()
			col := telemetry.NewCollector(reg)
			opts := Options{Telemetry: col}
			if cached {
				opts.Cache = anacache.New(0)
			}
			count := func(ep, what string) int64 { return reg.CounterValue("analyzer." + ep + "." + what) }
			col.BeginJob()
			for _, st := range steps {
				before := map[string]lookups{}
				for _, ep := range eps {
					before[ep] = lookups{count(ep, "hits"), count(ep, "misses")}
				}
				callsBefore := count(st.ep, "calls")
				ev, err := st.do(opts)
				if err != nil {
					t.Fatalf("%s: %v", st.name, err)
				}
				want, wantEv := st.uncached, st.evUncached
				if cached {
					want, wantEv = st.cached, st.evCached
				}
				for _, ep := range eps {
					got := lookups{count(ep, "hits") - before[ep].hits, count(ep, "misses") - before[ep].misses}
					wantEP := lookups{}
					if ep == st.ep {
						wantEP = want
					}
					if got != wantEP {
						t.Errorf("%s: analyzer.%s hits/misses moved by %+v, want %+v", st.name, ep, got, wantEP)
					}
				}
				if calls := count(st.ep, "calls") - callsBefore; calls != want.hits+want.misses {
					t.Errorf("%s: analyzer.%s.calls moved by %d, want %d", st.name, st.ep, calls, want.hits+want.misses)
				}
				effort := col.TakeJobEffort()
				if effort.CacheHits != want.hits || effort.CacheMisses != want.misses {
					t.Errorf("%s: job effort counted %d hits and %d misses, want %+v",
						st.name, effort.CacheHits, effort.CacheMisses, want)
				}
				if ev != nil && ev.Stats() != wantEv {
					t.Errorf("%s: evaluator stats %+v, want %+v", st.name, ev.Stats(), wantEv)
				}
			}
		})
	}
}
