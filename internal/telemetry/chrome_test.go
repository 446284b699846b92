package telemetry

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestChromeTraceGolden feeds a fixed span stream through the Perfetto
// (Chrome trace_event) converter and compares byte-for-byte against the
// committed golden file (regenerate with go test ./internal/telemetry -run Chrome -update).
func TestChromeTraceGolden(t *testing.T) {
	recs := []SpanRecord{
		{Name: "study", TraceID: "1", SpanID: "1", StartUnixNs: 1_000_000_000, DurationNs: 50_000_000},
		{Name: "job", Technique: "ATR", Spec: "A4F/cv/0000", TraceID: "1", SpanID: "2", ParentID: "1",
			Lane: 1, StartUnixNs: 1_001_000_000, DurationNs: 20_000_000, Outcome: OutcomeRepaired, REP: 1,
			Candidates: 3, AnalyzerCalls: 4},
		{Name: "sat.solve", TraceID: "1", SpanID: "3", ParentID: "2", Lane: 1,
			StartUnixNs: 1_002_000_000, DurationNs: 1_500_000,
			Attrs:   map[string]string{"status": "SAT"},
			Metrics: map[string]int64{"conflicts": 12, "decisions": 34}},
		{Name: "job", Technique: "BeAFix", Spec: "A4F/cv/0001", TraceID: "1", SpanID: "4", ParentID: "1",
			Lane: 2, StartUnixNs: 1_004_000_000, DurationNs: 900_000, Outcome: OutcomeFailed},
	}
	var buf bytes.Buffer
	if err := WritePerfetto(&buf, recs); err != nil {
		t.Fatal(err)
	}

	// The export must be one valid JSON array of trace events.
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v\n%s", err, buf.Bytes())
	}
	// 4 "X" complete events + 3 distinct lanes' "M" thread_name events.
	if len(events) != 7 {
		t.Fatalf("got %d events, want 7:\n%s", len(events), buf.Bytes())
	}

	golden := filepath.Join("testdata", "chrome_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("chrome export drifted from golden.\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}
