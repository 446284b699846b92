package analyzer

import (
	"strings"

	"specrepair/internal/alloy/ast"
	"specrepair/internal/alloy/printer"
	"specrepair/internal/anacache"
	"specrepair/internal/instance"
	"specrepair/internal/sat"
)

// This file is the analyzer's memoization layer over anacache. Three key
// spaces cover every entry point:
//
//	analyzer.run     (module, options)                      -> *runRecord
//	analyzer.cmd     (module, command, options)             -> *cachedResult
//	analyzer.equisat (candidate, commands, verdicts, opts)  -> bool
//
// Each uncached computation starts from a fresh session, so a cached value
// is a pure function of the key's preimage: serving it from the cache is
// indistinguishable from recomputing it, which keeps shared concurrent use
// deterministic regardless of which worker fills an entry first. Instances
// are cloned on store and on load (a copy of the relation map; tuple sets
// are immutable and shared); cached values are never mutated.

// cachedResult is the module-independent part of one command's Result.
type cachedResult struct {
	Sat      bool
	Status   sat.Status
	Instance *instance.Instance
	Stats    Stats
}

func snapshotResult(r *Result) *cachedResult {
	cr := &cachedResult{Sat: r.Sat, Status: r.Status, Stats: r.Stats}
	if r.Instance != nil {
		cr.Instance = r.Instance.Clone()
	}
	return cr
}

// materialize rebinds the cached outcome to the caller's command. The
// returned Result is marked FromCache so telemetry can tell replays from
// real solves; FromCache never feeds back into cache keys or verdicts.
func (cr *cachedResult) materialize(cmd *ast.Command) *Result {
	res := &Result{Command: cmd, Sat: cr.Sat, Status: cr.Status, Stats: cr.Stats, FromCache: true}
	if cr.Instance != nil {
		res.Instance = cr.Instance.Clone()
	}
	return res
}

// passed replays Result.Passed without cloning the instance.
func (cr *cachedResult) passed(cmd *ast.Command) bool {
	return (&Result{Command: cmd, Sat: cr.Sat}).Passed()
}

// runRecord memoizes executing a module's own commands in declaration
// order. A record may be a prefix (PassesAll stops at the first failing
// command); prefix records still answer PassesAll, and ExecuteAll upgrades
// them to complete ones.
type runRecord struct {
	// Complete reports that every command of the module was executed.
	Complete bool
	Results  []*cachedResult
}

func newRunRecord(results []*Result, complete bool) *runRecord {
	rec := &runRecord{Complete: complete, Results: make([]*cachedResult, len(results))}
	for i, r := range results {
		rec.Results[i] = snapshotResult(r)
	}
	return rec
}

// materializeAll rebinds a complete record to the module's commands.
func (rec *runRecord) materializeAll(cmds []*ast.Command) []*Result {
	out := make([]*Result, len(rec.Results))
	for i, cr := range rec.Results {
		out[i] = cr.materialize(cmds[i])
	}
	return out
}

// passesAll answers PassesAll from the record when possible: an incomplete
// record ends at a failing command, and a complete one replays every
// expectation.
func (rec *runRecord) passesAll(cmds []*ast.Command) (pass, ok bool) {
	if len(rec.Results) > len(cmds) {
		return false, false // foreign-shaped record; recompute
	}
	if !rec.Complete {
		return false, true
	}
	if len(rec.Results) != len(cmds) {
		return false, false
	}
	for i, cr := range rec.Results {
		if !cr.passed(cmds[i]) {
			return false, true
		}
	}
	return true, true
}

// lookup is the one path from an entry point to the analysis cache. With a
// cache it probes key() and returns what accept makes of a stored value;
// otherwise (no cache, a miss, or a value accept rejects) it runs compute,
// stores the value compute hands back for storing unless that is nil (a
// verdict-only answer), and records the call as a miss. key is called only
// with a cache, so uncached analyzers never print the module. A failed
// computation is neither stored nor recorded.
func lookup[T any](a *Analyzer, ep string, key func() anacache.Key, accept func(any) (T, bool), compute func() (T, any, error)) (T, error) {
	col, cache := a.opts.Telemetry, a.cache()
	start := col.Clock()
	var k anacache.Key
	if cache != nil {
		k = key()
		if v, ok := cache.Get(k); ok {
			if out, ok := accept(v); ok {
				col.RecordLookup(ep, true, col.Since(start))
				return out, nil
			}
		}
	}
	out, store, err := compute()
	if err != nil {
		return out, err
	}
	if cache != nil && store != nil {
		cache.Put(k, store)
	}
	col.RecordLookup(ep, false, col.Since(start))
	return out, nil
}

func (a *Analyzer) cache() *anacache.Cache { return a.opts.Cache }

// acceptPasses answers PassesAll of a module with these commands from a
// stored run record.
func acceptPasses(cmds []*ast.Command) func(any) (bool, bool) {
	return func(v any) (bool, bool) {
		rec, ok := v.(*runRecord)
		if !ok {
			return false, false
		}
		return rec.passesAll(cmds)
	}
}

func (a *Analyzer) runRecordKey(mod *ast.Module) func() anacache.Key {
	return func() anacache.Key { return anacache.KeyOf("analyzer.run", a.optsKey, printer.Module(mod)) }
}

func (a *Analyzer) commandKey(mod *ast.Module, cmd *ast.Command) func() anacache.Key {
	return func() anacache.Key {
		return anacache.KeyOf("analyzer.cmd", a.optsKey, printer.Module(mod), printer.Command(cmd))
	}
}

func (a *Analyzer) equisatKey(gtCommands []*ast.Command, verdicts []bool, candidate *ast.Module) func() anacache.Key {
	return func() anacache.Key {
		var cmds strings.Builder
		for _, cmd := range gtCommands {
			cmds.WriteString(printer.Command(cmd))
			cmds.WriteByte('\n')
		}
		var vs strings.Builder
		for _, v := range verdicts {
			if v {
				vs.WriteByte('1')
			} else {
				vs.WriteByte('0')
			}
		}
		return anacache.KeyOf("analyzer.equisat", a.optsKey, printer.Module(candidate), cmds.String(), vs.String())
	}
}
