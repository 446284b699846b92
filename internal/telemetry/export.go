package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"time"
)

// metricPrefix namespaces every exported Prometheus series.
const metricPrefix = "specrepair_"

// sanitizeMetric maps a series name to a Prometheus-legal metric name.
func sanitizeMetric(name string) string {
	var b strings.Builder
	for i, r := range name {
		ok := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

func promLabels(pairs ...string) string {
	var parts []string
	for i := 0; i+1 < len(pairs); i += 2 {
		if pairs[i+1] == "" {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s=%q", pairs[i], pairs[i+1]))
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// WritePrometheus renders every counter, gauge, and histogram in the
// Prometheus text exposition format. The per-technique aggregates RecordJob
// keeps are exported with a technique label: the effort sums as
// technique_candidates, technique_analyzer_calls, technique_test_runs and
// technique_iterations counters, the job wall clock as a job_duration_ns
// histogram. Finished spans are exported per kind as span_self_ns and
// span_count counters with a kind label.
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	type sample struct {
		name, label string
		value       int64
	}

	emitScalar := func(kind, labelName string, samples []sample) {
		sort.Slice(samples, func(i, j int) bool {
			if samples[i].name != samples[j].name {
				return samples[i].name < samples[j].name
			}
			return samples[i].label < samples[j].label
		})
		lastFamily := ""
		for _, s := range samples {
			fam := metricPrefix + sanitizeMetric(s.name)
			if fam != lastFamily {
				fmt.Fprintf(w, "# TYPE %s %s\n", fam, kind)
				lastFamily = fam
			}
			fmt.Fprintf(w, "%s%s %d\n", fam, promLabels(labelName, s.label), s.value)
		}
	}

	techs := r.Techniques()
	var counters []sample
	r.counters.Range(func(k, v any) bool {
		counters = append(counters, sample{name: k.(string), value: v.(*Counter).Value()})
		return true
	})
	for _, ts := range techs {
		counters = append(counters,
			sample{name: "technique.candidates", label: ts.Technique, value: ts.Candidates},
			sample{name: "technique.analyzer_calls", label: ts.Technique, value: ts.AnalyzerCalls},
			sample{name: "technique.test_runs", label: ts.Technique, value: ts.TestRuns},
			sample{name: "technique.iterations", label: ts.Technique, value: ts.Iterations})
	}
	emitScalar("counter", "technique", counters)

	var gauges []sample
	r.gauges.Range(func(k, v any) bool {
		gauges = append(gauges, sample{name: k.(string), value: v.(func() int64)()})
		return true
	})
	emitScalar("gauge", "", gauges)

	var spans []sample
	r.spanKinds(func(kind string, selfNs, count int64) {
		spans = append(spans,
			sample{name: "span.self_ns", label: kind, value: selfNs},
			sample{name: "span.count", label: kind, value: count})
	})
	emitScalar("counter", "kind", spans)

	// Histograms: named ones from the map plus the per-technique job
	// duration aggregates.
	type histSample struct {
		name, technique string
		snap            HistSnapshot
	}
	var hists []histSample
	r.hists.Range(func(k, v any) bool {
		hists = append(hists, histSample{name: k.(string), snap: v.(*Histogram).Snapshot()})
		return true
	})
	for _, ts := range techs {
		hists = append(hists, histSample{name: HistJobDurationNs, technique: ts.Technique, snap: ts.Duration})
	}
	sort.Slice(hists, func(i, j int) bool {
		if hists[i].name != hists[j].name {
			return hists[i].name < hists[j].name
		}
		return hists[i].technique < hists[j].technique
	})
	lastFamily := ""
	for _, h := range hists {
		fam := metricPrefix + sanitizeMetric(h.name)
		if fam != lastFamily {
			fmt.Fprintf(w, "# TYPE %s histogram\n", fam)
			lastFamily = fam
		}
		// Highest non-empty bucket bounds the emitted boundaries.
		top := 0
		for i, n := range h.snap.Buckets {
			if n > 0 {
				top = i
			}
		}
		var cum int64
		for i := 0; i <= top; i++ {
			cum += h.snap.Buckets[i]
			fmt.Fprintf(w, "%s_bucket%s %d\n", fam,
				promLabels("technique", h.technique, "le", fmt.Sprintf("%d", BucketBound(i))), cum)
		}
		fmt.Fprintf(w, "%s_bucket%s %d\n", fam,
			promLabels("technique", h.technique, "le", "+Inf"), h.snap.Count)
		fmt.Fprintf(w, "%s_sum%s %d\n", fam, promLabels("technique", h.technique), h.snap.Sum)
		fmt.Fprintf(w, "%s_count%s %d\n", fam, promLabels("technique", h.technique), h.snap.Count)
	}
}

// histJSON is the JSON summary of one histogram.
type histJSON struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Min   int64   `json:"min"`
	Max   int64   `json:"max"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P95   int64   `json:"p95"`
	P99   int64   `json:"p99"`
}

func toHistJSON(s HistSnapshot) histJSON {
	return histJSON{
		Count: s.Count, Sum: s.Sum, Min: s.Min, Max: s.Max, Mean: s.Mean(),
		P50: s.Quantile(0.50), P95: s.Quantile(0.95), P99: s.Quantile(0.99),
	}
}

// WriteJSON renders an expvar-style JSON object: a flat map of counters and
// gauges, histogram summaries, the per-technique aggregates and, once a span
// has finished, per-kind span self time and span counts.
func (r *Registry) WriteJSON(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, "{}\n")
		return err
	}
	out := map[string]any{
		"uptime_seconds": r.Uptime().Seconds(),
	}
	counters := map[string]int64{}
	r.counters.Range(func(k, v any) bool {
		counters[k.(string)] = v.(*Counter).Value()
		return true
	})
	out["counters"] = counters
	gauges := map[string]int64{}
	r.gauges.Range(func(k, v any) bool {
		gauges[k.(string)] = v.(func() int64)()
		return true
	})
	out["gauges"] = gauges
	hists := map[string]histJSON{}
	r.hists.Range(func(k, v any) bool {
		hists[k.(string)] = toHistJSON(v.(*Histogram).Snapshot())
		return true
	})
	out["histograms"] = hists
	out["techniques"] = r.Techniques()
	selfNs, counts := map[string]int64{}, map[string]int64{}
	r.spanKinds(func(kind string, self, count int64) {
		selfNs[kind], counts[kind] = self, count
	})
	if len(counts) > 0 {
		out["span_self_ns"], out["span_count"] = selfNs, counts
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// MetricsServer is a live metrics HTTP endpoint for watching a run.
type MetricsServer struct {
	srv *http.Server
	ln  net.Listener
}

// HandleMetrics registers reg's live metrics on mux:
//
//	GET /metrics       Prometheus text exposition format
//	GET /metrics.json  expvar-style JSON snapshot
func HandleMetrics(mux *http.ServeMux, reg *Registry) {
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("GET /metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = reg.WriteJSON(w)
	})
}

// ServeMetrics listens on addr (host:port; port 0 picks a free port) and
// serves HandleMetrics' endpoints until Close, never blocking the pipeline
// it observes.
func ServeMetrics(reg *Registry, addr string) (*MetricsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listening on %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	HandleMetrics(mux, reg)
	mux.HandleFunc("/", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintf(w, "specrepair telemetry\n/metrics\n/metrics.json\n")
	})
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return &MetricsServer{srv: srv, ln: ln}, nil
}

// Addr is the bound listen address ("127.0.0.1:43817").
func (m *MetricsServer) Addr() string {
	if m == nil || m.ln == nil {
		return ""
	}
	return m.ln.Addr().String()
}

// Close stops the server.
func (m *MetricsServer) Close() error {
	if m == nil || m.srv == nil {
		return nil
	}
	return m.srv.Close()
}
