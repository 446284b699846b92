package experiments

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"specrepair/internal/telemetry"
)

// TestServedTechniqueEffortMatchesAggregates runs a study with a registry
// and checks that every specrepair_technique_* series /metrics serves equals
// that technique's effort sum in Registry.Techniques() — the numbers
// techstats.csv and telemetry_techniques.csv report — and that no other
// technique series is served.
func TestServedTechniqueEffortMatchesAggregates(t *testing.T) {
	reg := telemetry.New()
	if _, err := RunStudy(Config{Seed: 1, Scale: 400, Telemetry: reg}); err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	telemetry.HandleMetrics(mux, reg)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))

	served := map[string]int64{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if !strings.HasPrefix(line, "specrepair_technique_") {
			continue
		}
		series, value, _ := strings.Cut(line, " ")
		n, err := strconv.ParseInt(value, 10, 64)
		if err != nil {
			t.Fatalf("/metrics line %q: %v", line, err)
		}
		served[series] = n
	}

	techs := reg.Techniques()
	if len(techs) != 12 {
		t.Fatalf("study recorded %d techniques, want 12", len(techs))
	}
	for _, ts := range techs {
		for _, m := range []struct {
			metric string
			want   int64
		}{
			{"candidates", ts.Candidates},
			{"analyzer_calls", ts.AnalyzerCalls},
			{"test_runs", ts.TestRuns},
			{"iterations", ts.Iterations},
		} {
			series := fmt.Sprintf("specrepair_technique_%s{technique=%q}", m.metric, ts.Technique)
			got, ok := served[series]
			if !ok {
				t.Errorf("/metrics serves no %s (aggregate %d)", series, m.want)
			} else if got != m.want {
				t.Errorf("%s = %d, aggregate %d", series, got, m.want)
			}
			delete(served, series)
		}
	}
	for series, v := range served {
		t.Errorf("/metrics serves %s %d with no matching aggregate", series, v)
	}
}
