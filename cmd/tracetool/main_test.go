package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"specrepair/internal/experiments"
	"specrepair/internal/telemetry"
)

func fixture(t *testing.T) string {
	t.Helper()
	lines := []string{
		`{"name":"study","trace_id":"1","span_id":"1","start_unix_ns":0,"duration_ns":100000000,"rep":0}`,
		`{"name":"phase","trace_id":"1","span_id":"2","parent_id":"1","start_unix_ns":0,"duration_ns":90000000,"attrs":{"name":"evaluate_a4f"},"rep":0}`,
		`{"name":"job","technique":"ATR","spec":"A4F/cv/0000","trace_id":"1","span_id":"3","parent_id":"2","lane":1,"start_unix_ns":1000,"duration_ns":60000000,"outcome":"repaired","rep":1}`,
		`{"name":"candidate.eval","trace_id":"1","span_id":"4","parent_id":"3","lane":1,"start_unix_ns":2000,"duration_ns":50000000,"rep":0}`,
		`{"name":"sat.solve","trace_id":"1","span_id":"5","parent_id":"4","lane":1,"start_unix_ns":3000,"duration_ns":40000000,"attrs":{"status":"SAT"},"rep":0}`,
		`{"name":"job","technique":"BeAFix","spec":"A4F/cv/0000","trace_id":"1","span_id":"6","parent_id":"2","lane":2,"start_unix_ns":1000,"duration_ns":10000000,"outcome":"failed","rep":0}`,
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// capture runs main's run() with stdout redirected and returns the output.
func capture(t *testing.T, args []string) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := run(args)
	w.Close()
	os.Stdout = old
	out, readErr := io.ReadAll(r)
	r.Close()
	if runErr != nil {
		t.Fatalf("run(%v): %v", args, runErr)
	}
	if readErr != nil {
		t.Fatal(readErr)
	}
	return string(out)
}

func TestSummary(t *testing.T) {
	out := capture(t, []string{"summary", fixture(t)})
	for _, want := range []string{"6 spans", "job", "sat.solve", "TOP JOBS", "ATR"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary output missing %q:\n%s", want, out)
		}
	}
}

func TestCriticalPath(t *testing.T) {
	out := capture(t, []string{"critical", "-top", "1", fixture(t)})
	// The most expensive job is ATR; its dominant chain descends through
	// candidate.eval into sat.solve.
	for _, want := range []string{"job ATR", "candidate.eval", "sat.solve"} {
		if !strings.Contains(out, want) {
			t.Fatalf("critical output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "BeAFix") {
		t.Fatalf("critical -top 1 included the cheaper job:\n%s", out)
	}
}

func TestSelftime(t *testing.T) {
	out := capture(t, []string{"selftime", fixture(t)})
	if !strings.Contains(out, "sat.solve") || !strings.Contains(out, "SELF TIME") {
		t.Fatalf("selftime output:\n%s", out)
	}
	// sat.solve is the leaf with 40ms: it must rank first.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 2 || !strings.HasPrefix(lines[1], "sat.solve") {
		t.Fatalf("sat.solve not ranked first:\n%s", out)
	}
}

func TestStragglersSmallSample(t *testing.T) {
	// Too few samples per kind: no stragglers, but no error either.
	out := capture(t, []string{"stragglers", fixture(t)})
	if !strings.Contains(out, "no stragglers") {
		t.Fatalf("stragglers output:\n%s", out)
	}
}

func TestUnknownSubcommand(t *testing.T) {
	if err := run([]string{"nope", fixture(t)}); err == nil {
		t.Fatal("unknown subcommand accepted")
	}
}

// TestPerfettoMatchesConverter round-trips records through the JSONL trace
// file: perfetto on the file must print exactly what the converter renders
// from the in-memory records.
func TestPerfettoMatchesConverter(t *testing.T) {
	recs := []telemetry.SpanRecord{
		{Name: "study", TraceID: "1", SpanID: "1", StartUnixNs: 1_000_000_000, DurationNs: 50_000_000},
		{Name: "job", Technique: "ATR", Spec: "A4F/cv/0000", TraceID: "1", SpanID: "2", ParentID: "1",
			Lane: 1, StartUnixNs: 1_001_000_000, DurationNs: 20_000_000, Outcome: telemetry.OutcomeRepaired, REP: 1},
		{Name: "sat.solve", TraceID: "1", SpanID: "3", ParentID: "2", Lane: 1,
			StartUnixNs: 1_002_000_000, DurationNs: 1_500_000,
			Attrs:   map[string]string{"status": "SAT"},
			Metrics: map[string]int64{"conflicts": 12, "decisions": 34}},
		{Name: "job", Technique: "BeAFix", Spec: "A4F/cv/0001", TraceID: "1", SpanID: "4", ParentID: "1",
			Lane: 2, StartUnixNs: 1_004_000_000, DurationNs: 900_000, Outcome: telemetry.OutcomeFailed},
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	tw := telemetry.NewTraceWriter(f)
	for _, r := range recs {
		tw.Record(r)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := telemetry.WritePerfetto(&want, recs); err != nil {
		t.Fatal(err)
	}
	if got := capture(t, []string{"perfetto", path}); got != want.String() {
		t.Fatalf("perfetto output differs from the converter's.\ngot:\n%s\nwant:\n%s", got, want.String())
	}
}

// TestLiveSelfTimeMatchesTrace runs a traced study and checks that the live
// per-kind totals /metrics.json serves equal, kind for kind, the self time
// and record count selftime derives from the same run's trace. The live
// accumulator takes a span's self time when the span ends, so the two agree
// exactly as long as every child ends before its parent; a failing run logs
// every child that does not.
func TestLiveSelfTimeMatchesTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	tw := telemetry.NewTraceWriter(f)
	reg.SetSink(tw)
	if _, err := experiments.RunStudy(experiments.Config{Seed: 1, Scale: 400, Telemetry: reg}); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	mux := http.NewServeMux()
	telemetry.HandleMetrics(mux, reg)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics.json", nil))
	var live struct {
		SelfNs map[string]int64 `json:"span_self_ns"`
		Count  map[string]int64 `json:"span_count"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &live); err != nil {
		t.Fatalf("/metrics.json: %v", err)
	}

	tr, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	byID := tr.index()
	for _, sr := range tr.recs {
		p := byID[key(sr.TraceID, sr.ParentID)]
		if sr.ParentID != "" && p != nil && sr.StartUnixNs+sr.DurationNs > p.StartUnixNs+p.DurationNs {
			t.Logf("%s span %s ends after its parent %s %s", sr.Name, sr.SpanID, p.Name, p.SpanID)
		}
	}
	self, counts := tr.kindSelfTimes()
	if len(counts) == 0 || len(live.Count) != len(counts) {
		t.Fatalf("live kinds %v, trace kinds %v", live.Count, counts)
	}
	for kind, n := range counts {
		if live.Count[kind] != n || live.SelfNs[kind] != self[kind] {
			t.Errorf("%s: live %d spans, %d ns self; trace %d spans, %d ns self",
				kind, live.Count[kind], live.SelfNs[kind], n, self[kind])
		}
	}
}
