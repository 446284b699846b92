package main

import (
	"fmt"
	"sort"
	"strings"

	"specrepair/internal/telemetry"
)

// nestSlackNs tolerates the clock reads that bracket a span boundary (a
// parent's externally measured duration can undershoot a child's by the cost
// of the surrounding instrumentation).
const nestSlackNs = 2_000_000 // 2ms

// traceStats accumulates per-record tallies across all input files.
type traceStats struct {
	recs                                 []telemetry.SpanRecord
	badDur                               int64
	total                                int64 // summed job duration, ns
	incQueries, incFallbacks, incCarried int64
	techniques                           map[string]int64
	kinds                                map[string]int64
	traces                               map[string]bool // distinct trace IDs (empty ID excluded)
}

// check validates the trace files as one trace set and prints a summary.
// It checks two layers of invariants:
//
//   - per-record: every span has a name; "job" spans carry technique, spec,
//     and a positive duration; incremental counters are non-negative.
//   - hierarchy (when span IDs are present): span IDs are unique, every
//     non-root span's parent exists in the same trace, parent links are
//     acyclic, and child intervals nest inside their parent's (with a small
//     slack for clock reads on either side of the span boundary).
//
// Multiple files validate as one merged trace set — the shape a sharded
// study produces, one file per worker process. Span IDs are only required
// to be unique within their trace (workers seed distinct trace IDs, see
// experiments -worker), so a span-ID collision across two workers' files is
// not a duplicate; the same (trace, span) pair appearing twice is.
func check(paths []string) error {
	st := &traceStats{
		techniques: map[string]int64{},
		kinds:      map[string]int64{},
		traces:     map[string]bool{},
	}
	for _, path := range paths {
		if err := decode(path, st.add); err != nil {
			return err
		}
	}
	if len(st.recs) == 0 {
		return fmt.Errorf("%s: no spans", strings.Join(paths, " "))
	}
	if st.badDur > 0 {
		return fmt.Errorf("%d of %d spans have non-positive durations", st.badDur, len(st.recs))
	}

	depths, err := checkHierarchy(st.recs)
	if err != nil {
		return err
	}

	label := paths[0]
	if len(paths) > 1 {
		label = fmt.Sprintf("%d files (%d traces)", len(paths), len(st.traces))
	}
	fmt.Printf("%s: %d spans, %d techniques, %.3fs total job time, %d incremental queries (%d fallbacks, %d learnts carried)\n",
		label, len(st.recs), len(st.techniques), float64(st.total)/1e9, st.incQueries, st.incFallbacks, st.incCarried)
	names := make([]string, 0, len(st.kinds))
	for k := range st.kinds {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  kind %-22s %d\n", k, st.kinds[k])
	}
	if len(depths) > 0 {
		fmt.Printf("  depth histogram:")
		for d := 0; d < len(depths); d++ {
			fmt.Printf(" %d:%d", d, depths[d])
		}
		fmt.Println()
	}
	return nil
}

// add validates one record and accumulates it into st.
func (st *traceStats) add(raw []byte, sr telemetry.SpanRecord) error {
	if sr.Name == "" {
		return fmt.Errorf("span missing name: %s", raw)
	}
	// Only job spans (and legacy flat traces, whose every record is a job)
	// carry the per-job fields.
	if sr.Name == "job" || sr.SpanID == "" {
		if sr.Technique == "" || sr.Spec == "" {
			return fmt.Errorf("job span missing technique/spec: %s", raw)
		}
		if sr.DurationNs <= 0 {
			st.badDur++
		}
		st.techniques[sr.Technique]++
		st.total += sr.DurationNs
	}
	if sr.IncQueries < 0 || sr.IncFallbacks < 0 || sr.IncCarriedLearnts < 0 {
		return fmt.Errorf("span has negative incremental counters: %s", raw)
	}
	st.incQueries += sr.IncQueries
	st.incFallbacks += sr.IncFallbacks
	st.incCarried += sr.IncCarriedLearnts
	st.kinds[sr.Name]++
	if sr.TraceID != "" {
		st.traces[sr.TraceID] = true
	}
	st.recs = append(st.recs, sr)
	return nil
}

// checkHierarchy validates parent existence, acyclicity, and interval
// nesting for all spans that carry IDs. It returns the depth histogram
// (depths[d] = number of spans at depth d; roots are depth 0), or nil when
// the trace is a legacy flat one.
func checkHierarchy(recs []telemetry.SpanRecord) ([]int64, error) {
	byID := map[string]*telemetry.SpanRecord{}
	n := 0
	for i := range recs {
		sr := &recs[i]
		if sr.SpanID == "" {
			continue
		}
		key := sr.TraceID + "/" + sr.SpanID
		if _, dup := byID[key]; dup {
			return nil, fmt.Errorf("duplicate span ID %s in trace %s", sr.SpanID, sr.TraceID)
		}
		byID[key] = sr
		n++
	}
	if n == 0 {
		return nil, nil // legacy flat trace: nothing to validate
	}

	depth := map[string]int{}
	var walk func(sr *telemetry.SpanRecord, seen map[string]bool) (int, error)
	walk = func(sr *telemetry.SpanRecord, seen map[string]bool) (int, error) {
		key := sr.TraceID + "/" + sr.SpanID
		if d, ok := depth[key]; ok {
			return d, nil
		}
		if sr.ParentID == "" {
			depth[key] = 0
			return 0, nil
		}
		if seen[key] {
			return 0, fmt.Errorf("cycle in parent links at span %s (trace %s)", sr.SpanID, sr.TraceID)
		}
		seen[key] = true
		parent, ok := byID[sr.TraceID+"/"+sr.ParentID]
		if !ok {
			return 0, fmt.Errorf("span %s (kind %s) references missing parent %s in trace %s",
				sr.SpanID, sr.Name, sr.ParentID, sr.TraceID)
		}
		pd, err := walk(parent, seen)
		if err != nil {
			return 0, err
		}
		// Nesting: the child's interval must lie within the parent's.
		if sr.StartUnixNs < parent.StartUnixNs-nestSlackNs {
			return 0, fmt.Errorf("span %s (kind %s) starts %dns before its parent %s (kind %s)",
				sr.SpanID, sr.Name, parent.StartUnixNs-sr.StartUnixNs, parent.SpanID, parent.Name)
		}
		if end, pend := sr.StartUnixNs+sr.DurationNs, parent.StartUnixNs+parent.DurationNs; end > pend+nestSlackNs {
			return 0, fmt.Errorf("span %s (kind %s) ends %dns after its parent %s (kind %s)",
				sr.SpanID, sr.Name, end-pend, parent.SpanID, parent.Name)
		}
		depth[key] = pd + 1
		return pd + 1, nil
	}
	maxDepth := 0
	for _, sr := range byID {
		d, err := walk(sr, map[string]bool{})
		if err != nil {
			return nil, err
		}
		if d > maxDepth {
			maxDepth = d
		}
	}
	depths := make([]int64, maxDepth+1)
	for _, d := range depth {
		depths[d]++
	}
	return depths, nil
}
