// Command tracetool analyzes a JSONL span trace produced by -trace, the only
// trace format the programs write; every other view is derived from it here.
//
// Subcommands:
//
//	tracetool check      trace.jsonl [more.jsonl ...]   # validate, exit non-zero on a violation
//	tracetool summary    trace.jsonl   # per-kind counts and totals, top jobs
//	tracetool critical   trace.jsonl   # critical path of the most expensive jobs
//	tracetool selftime   trace.jsonl   # top span kinds by self time (text flamegraph)
//	tracetool stragglers trace.jsonl   # per-kind p99 outlier spans
//	tracetool perfetto   trace.jsonl > trace.json   # Chrome trace_event JSON for Perfetto / chrome://tracing
//
// Flags after the subcommand: -top N bounds list lengths where applicable.
//
// check validates several files as one merged trace set (one file per
// worker of a sharded study), which makes it usable as a CI assertion:
//
//	experiments -scale 400 -table1 -trace t.jsonl && tracetool check t.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"specrepair/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tracetool:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: tracetool <check|summary|critical|selftime|stragglers|perfetto> [-top N] <trace.jsonl>")
	}
	cmd := args[0]
	if cmd == "check" {
		if len(args) < 2 {
			return fmt.Errorf("usage: tracetool check <trace.jsonl> [more.jsonl ...]")
		}
		return check(args[1:])
	}
	fs := flag.NewFlagSet("tracetool "+cmd, flag.ContinueOnError)
	top := fs.Int("top", 10, "how many rows/paths to print")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: tracetool %s [-top N] <trace.jsonl>", cmd)
	}
	t, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	switch cmd {
	case "summary":
		return t.summary(*top)
	case "critical":
		return t.critical(*top)
	case "selftime":
		return t.selftime(*top)
	case "stragglers":
		return t.stragglers(*top)
	case "perfetto":
		return telemetry.WritePerfetto(os.Stdout, t.recs)
	default:
		return fmt.Errorf("unknown subcommand %q (want check, summary, critical, selftime, stragglers, or perfetto)", cmd)
	}
}

// trace is the loaded span forest: records indexed by trace-qualified span ID
// with a child adjacency list.
type trace struct {
	recs     []telemetry.SpanRecord
	children map[string][]int // key(trace,parent) -> child indices
	byID     map[string]*telemetry.SpanRecord
}

func key(traceID, spanID string) string { return traceID + "/" + spanID }

func load(path string) (*trace, error) {
	t := &trace{children: map[string][]int{}}
	err := decode(path, func(_ []byte, sr telemetry.SpanRecord) error {
		t.recs = append(t.recs, sr)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(t.recs) == 0 {
		return nil, fmt.Errorf("%s: no spans", path)
	}
	for i, sr := range t.recs {
		if sr.SpanID != "" && sr.ParentID != "" {
			k := key(sr.TraceID, sr.ParentID)
			t.children[k] = append(t.children[k], i)
		}
	}
	return t, nil
}

// decode calls fn with each record of a JSONL trace file and its raw line,
// prefixing any error with the record's "path:line" position.
func decode(path string, fn func(raw []byte, sr telemetry.SpanRecord) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		raw := sc.Bytes()
		line++
		if len(raw) == 0 {
			continue
		}
		var sr telemetry.SpanRecord
		if err := json.Unmarshal(raw, &sr); err != nil {
			return fmt.Errorf("%s:%d: invalid JSON: %w", path, line, err)
		}
		if err := fn(raw, sr); err != nil {
			return fmt.Errorf("%s:%d: %w", path, line, err)
		}
	}
	return sc.Err()
}

// label renders a span's display name: the kind plus its most identifying
// attribute.
func label(sr *telemetry.SpanRecord) string {
	if sr.Name == "job" && sr.Technique != "" {
		return fmt.Sprintf("job %s %s", sr.Technique, sr.Spec)
	}
	if n := sr.Attrs["name"]; n != "" {
		return sr.Name + " " + n
	}
	if c := sr.Attrs["config"]; c != "" {
		return sr.Name + " " + c
	}
	return sr.Name
}

func ms(ns int64) string { return fmt.Sprintf("%.2fms", float64(ns)/1e6) }

// jobs returns the indices of job spans, most expensive first.
func (t *trace) jobs() []int {
	var out []int
	for i, sr := range t.recs {
		if sr.Name == "job" {
			out = append(out, i)
		}
	}
	sort.Slice(out, func(a, z int) bool {
		if d1, d2 := t.recs[out[a]].DurationNs, t.recs[out[z]].DurationNs; d1 != d2 {
			return d1 > d2
		}
		return out[a] < out[z]
	})
	return out
}

func (t *trace) summary(top int) error {
	type agg struct {
		count   int64
		totalNs int64
	}
	kinds := map[string]*agg{}
	for _, sr := range t.recs {
		a := kinds[sr.Name]
		if a == nil {
			a = &agg{}
			kinds[sr.Name] = a
		}
		a.count++
		a.totalNs += sr.DurationNs
	}
	names := make([]string, 0, len(kinds))
	for k := range kinds {
		names = append(names, k)
	}
	sort.Slice(names, func(a, z int) bool { return kinds[names[a]].totalNs > kinds[names[z]].totalNs })
	fmt.Printf("%d spans, %d kinds\n\n", len(t.recs), len(kinds))
	fmt.Printf("%-24s %8s %12s\n", "KIND", "COUNT", "TOTAL")
	for _, k := range names {
		fmt.Printf("%-24s %8d %12s\n", k, kinds[k].count, ms(kinds[k].totalNs))
	}
	jobs := t.jobs()
	if len(jobs) == 0 {
		return nil
	}
	if len(jobs) > top {
		jobs = jobs[:top]
	}
	fmt.Printf("\nTOP JOBS BY DURATION\n")
	for _, i := range jobs {
		sr := &t.recs[i]
		fmt.Printf("%12s  %s\n", ms(sr.DurationNs), label(sr))
	}
	return nil
}

// critical prints, for each of the top jobs, the chain obtained by always
// descending into the most expensive child — the dominant cost path.
func (t *trace) critical(top int) error {
	jobs := t.jobs()
	if len(jobs) == 0 {
		return fmt.Errorf("no job spans in trace (was it recorded with span IDs?)")
	}
	if len(jobs) > top {
		jobs = jobs[:top]
	}
	for n, i := range jobs {
		if n > 0 {
			fmt.Println()
		}
		sr := &t.recs[i]
		fmt.Printf("critical path of %s (%s)\n", label(sr), ms(sr.DurationNs))
		cur, depth := i, 0
		for {
			c := &t.recs[cur]
			pct := 100.0
			if base := t.recs[i].DurationNs; base > 0 {
				pct = 100 * float64(c.DurationNs) / float64(base)
			}
			fmt.Printf("  %s%-*s %10s  %5.1f%%\n", strings.Repeat("  ", depth), 40-2*depth, label(c), ms(c.DurationNs), pct)
			kids := t.children[key(c.TraceID, c.SpanID)]
			if len(kids) == 0 {
				break
			}
			best := kids[0]
			for _, k := range kids[1:] {
				if t.recs[k].DurationNs > t.recs[best].DurationNs {
					best = k
				}
			}
			cur = best
			depth++
		}
	}
	return nil
}

// selftime aggregates self time (duration minus direct children) per kind and
// prints the top-K as a text flamegraph.
func (t *trace) selftime(top int) error {
	self := map[string]int64{}
	counts := map[string]int64{}
	for i, sr := range t.recs {
		childNs := int64(0)
		for _, c := range t.children[key(sr.TraceID, sr.SpanID)] {
			childNs += t.recs[c].DurationNs
		}
		s := sr.DurationNs - childNs
		if s < 0 {
			s = 0
		}
		self[sr.Name] += s
		counts[sr.Name]++
		_ = i
	}
	names := make([]string, 0, len(self))
	for k := range self {
		names = append(names, k)
	}
	sort.Slice(names, func(a, z int) bool {
		if self[names[a]] != self[names[z]] {
			return self[names[a]] > self[names[z]]
		}
		return names[a] < names[z]
	})
	if len(names) > top {
		names = names[:top]
	}
	if len(names) == 0 {
		return fmt.Errorf("no spans")
	}
	max := self[names[0]]
	fmt.Printf("%-24s %8s %12s\n", "KIND", "COUNT", "SELF TIME")
	for _, k := range names {
		width := 0
		if max > 0 {
			width = int(int64(40) * self[k] / max)
		}
		fmt.Printf("%-24s %8d %12s  %s\n", k, counts[k], ms(self[k]), strings.Repeat("█", width))
	}
	return nil
}

// stragglers lists, per kind with enough samples, the spans whose duration
// exceeds the kind's p99.
func (t *trace) stragglers(top int) error {
	byKind := map[string][]int{}
	for i, sr := range t.recs {
		byKind[sr.Name] = append(byKind[sr.Name], i)
	}
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	found := false
	for _, k := range kinds {
		idx := byKind[k]
		if len(idx) < 10 {
			continue // too few samples for a meaningful p99
		}
		durs := make([]int64, len(idx))
		for i, j := range idx {
			durs[i] = t.recs[j].DurationNs
		}
		sort.Slice(durs, func(a, z int) bool { return durs[a] < durs[z] })
		p50 := durs[len(durs)/2]
		p99 := durs[(len(durs)*99)/100]
		var out []int
		for _, j := range idx {
			if t.recs[j].DurationNs > p99 {
				out = append(out, j)
			}
		}
		if len(out) == 0 {
			continue
		}
		found = true
		sort.Slice(out, func(a, z int) bool { return t.recs[out[a]].DurationNs > t.recs[out[z]].DurationNs })
		if len(out) > top {
			out = out[:top]
		}
		fmt.Printf("%s: n=%d p50=%s p99=%s\n", k, len(idx), ms(p50), ms(p99))
		for _, j := range out {
			sr := &t.recs[j]
			fmt.Printf("  %12s  %s%s\n", ms(sr.DurationNs), label(sr), t.jobSuffix(sr))
		}
	}
	if !found {
		fmt.Println("no stragglers: every kind is within its p99 (or has too few samples)")
	}
	return nil
}

// jobSuffix annotates a span with its enclosing job, when resolvable.
func (t *trace) jobSuffix(sr *telemetry.SpanRecord) string {
	byID := t.index()
	cur := sr
	for hops := 0; cur != nil && hops < 64; hops++ {
		if cur.Name == "job" {
			if cur == sr {
				return ""
			}
			return fmt.Sprintf("  [in %s %s]", cur.Technique, cur.Spec)
		}
		if cur.ParentID == "" {
			return ""
		}
		cur = byID[key(cur.TraceID, cur.ParentID)]
	}
	return ""
}

func (t *trace) index() map[string]*telemetry.SpanRecord {
	if t.byID != nil {
		return t.byID
	}
	t.byID = map[string]*telemetry.SpanRecord{}
	for i := range t.recs {
		sr := &t.recs[i]
		if sr.SpanID != "" {
			t.byID[key(sr.TraceID, sr.SpanID)] = sr
		}
	}
	return t.byID
}
