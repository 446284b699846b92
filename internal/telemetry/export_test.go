package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func populatedRegistry() *Registry {
	reg := New()
	col := NewCollector(reg)
	col.RecordSolve(time.Millisecond, 5, 10, 100, false)
	col.RecordSolve(2*time.Millisecond, 50, 40, 900, true)
	col.RecordLookup(EPCommand, true, time.Microsecond)
	col.RecordLookup(EPPassesAll, false, time.Millisecond)
	reg.SetGauge("anacache.entries", func() int64 { return 123 })
	reg.RecordJob(JobRecord{
		Technique: "BeAFix", Spec: "A4F/x", Start: time.Now(),
		Duration: 3 * time.Millisecond, Outcome: OutcomeRepaired, REP: 1,
		Candidates: 7, Effort: col.TakeJobEffort(),
	})
	return reg
}

func TestWritePrometheus(t *testing.T) {
	reg := populatedRegistry()
	var b strings.Builder
	reg.WritePrometheus(&b)
	out := b.String()

	for _, want := range []string{
		"# TYPE specrepair_sat_solves counter",
		"specrepair_sat_solves 2",
		"specrepair_sat_conflicts 55",
		"specrepair_sat_budget_exhausted 1",
		"# TYPE specrepair_anacache_entries gauge",
		"specrepair_anacache_entries 123",
		`specrepair_technique_candidates{technique="BeAFix"} 7`,
		"# TYPE specrepair_sat_solve_ns histogram",
		"specrepair_sat_solve_ns_count 2",
		`le="+Inf"`,
		`specrepair_job_duration_ns_count{technique="BeAFix"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q", want)
		}
	}
	// Cumulative bucket sanity on a known histogram.
	if !strings.Contains(out, "specrepair_sat_solves") {
		t.Error("no solver counters at all")
	}
}

func TestWriteJSON(t *testing.T) {
	reg := populatedRegistry()
	var b strings.Builder
	if err := reg.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Counters   map[string]int64    `json:"counters"`
		Gauges     map[string]int64    `json:"gauges"`
		Histograms map[string]histJSON `json:"histograms"`
		Techniques []TechniqueStat     `json:"techniques"`
		Uptime     float64             `json:"uptime_seconds"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if doc.Counters[CtrSolves] != 2 {
		t.Errorf("solves = %d", doc.Counters[CtrSolves])
	}
	if doc.Gauges["anacache.entries"] != 123 {
		t.Errorf("gauge = %d", doc.Gauges["anacache.entries"])
	}
	if h, ok := doc.Histograms[HistSolveNs]; !ok || h.Count != 2 {
		t.Errorf("solve_ns histogram = %+v (ok=%v)", h, ok)
	}
	if len(doc.Techniques) != 1 || doc.Techniques[0].Technique != "BeAFix" {
		t.Errorf("techniques = %+v", doc.Techniques)
	}

	// A nil registry still writes a valid (empty) document.
	var nilReg *Registry
	var nb strings.Builder
	if err := nilReg.WriteJSON(&nb); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(nb.String()) != "{}" {
		t.Errorf("nil JSON = %q", nb.String())
	}
}

func TestServeMetrics(t *testing.T) {
	reg := populatedRegistry()
	srv, err := ServeMetrics(reg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	prom := get("/metrics")
	if !strings.Contains(prom, "specrepair_sat_solves 2") {
		t.Errorf("/metrics missing solver counter:\n%s", prom)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(get("/metrics.json")), &doc); err != nil {
		t.Fatalf("/metrics.json invalid: %v", err)
	}
	if _, ok := doc["counters"]; !ok {
		t.Error("/metrics.json missing counters")
	}
}
