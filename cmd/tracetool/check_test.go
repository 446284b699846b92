package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeTrace(t *testing.T, lines ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const (
	rootLine = `{"name":"study","trace_id":"1","span_id":"1","start_unix_ns":1000,"duration_ns":10000,"rep":0}`
	jobLine  = `{"name":"job","technique":"ATR","spec":"s","trace_id":"1","span_id":"2","parent_id":"1","start_unix_ns":2000,"duration_ns":5000,"outcome":"repaired","rep":1}`
)

func TestValidHierarchy(t *testing.T) {
	path := writeTrace(t, rootLine, jobLine,
		`{"name":"sat.solve","trace_id":"1","span_id":"3","parent_id":"2","start_unix_ns":2500,"duration_ns":100,"rep":0}`)
	if err := run([]string{"check", path}); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
}

func TestLegacyFlatTrace(t *testing.T) {
	// No span IDs at all: every record is a job, hierarchy checks skipped.
	path := writeTrace(t,
		`{"name":"job","technique":"ATR","spec":"s","start_unix_ns":1,"duration_ns":5,"rep":1}`)
	if err := run([]string{"check", path}); err != nil {
		t.Fatalf("legacy trace rejected: %v", err)
	}
}

func TestOrphanParentRejected(t *testing.T) {
	path := writeTrace(t, rootLine,
		`{"name":"sat.solve","trace_id":"1","span_id":"9","parent_id":"404","start_unix_ns":2500,"duration_ns":100,"rep":0}`)
	err := run([]string{"check", path})
	if err == nil || !strings.Contains(err.Error(), "missing parent") {
		t.Fatalf("orphan not rejected: %v", err)
	}
}

func TestDuplicateIDRejected(t *testing.T) {
	path := writeTrace(t, rootLine, rootLine)
	err := run([]string{"check", path})
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate ID not rejected: %v", err)
	}
}

func TestNonNestedChildRejected(t *testing.T) {
	// Child ends far beyond its parent (beyond the 2ms slack).
	path := writeTrace(t, rootLine,
		`{"name":"sat.solve","trace_id":"1","span_id":"3","parent_id":"1","start_unix_ns":2000,"duration_ns":99000000,"rep":0}`)
	err := run([]string{"check", path})
	if err == nil || !strings.Contains(err.Error(), "after its parent") {
		t.Fatalf("non-nested child not rejected: %v", err)
	}
}

func TestParentCycleRejected(t *testing.T) {
	path := writeTrace(t, rootLine,
		`{"name":"a","trace_id":"1","span_id":"5","parent_id":"6","start_unix_ns":2000,"duration_ns":100,"rep":0}`,
		`{"name":"b","trace_id":"1","span_id":"6","parent_id":"5","start_unix_ns":2000,"duration_ns":100,"rep":0}`)
	err := run([]string{"check", path})
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cycle not rejected: %v", err)
	}
}

func TestMergedWorkerFiles(t *testing.T) {
	// Two worker files with distinct trace IDs but colliding span IDs: the
	// collision is legal (span IDs are per-trace), and each file's hierarchy
	// validates against its own roots.
	w1 := writeTrace(t, rootLine, jobLine)
	w2 := writeTrace(t,
		`{"name":"study","trace_id":"2","span_id":"1","start_unix_ns":1000,"duration_ns":10000,"rep":0}`,
		`{"name":"job","technique":"CEGIS","spec":"s2","trace_id":"2","span_id":"2","parent_id":"1","start_unix_ns":2000,"duration_ns":5000,"outcome":"repaired","rep":1}`)
	if err := run([]string{"check", w1, w2}); err != nil {
		t.Fatalf("merged worker traces rejected: %v", err)
	}
}

func TestMergedFilesDuplicatePairRejected(t *testing.T) {
	// The same (trace, span) pair in two files is still a duplicate.
	w1 := writeTrace(t, rootLine)
	w2 := writeTrace(t, rootLine)
	err := run([]string{"check", w1, w2})
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("cross-file duplicate (trace, span) pair not rejected: %v", err)
	}
}

func TestMergedFilesOrphanRejected(t *testing.T) {
	// A parent link never resolves into another trace, even when a span
	// with the right ID exists there.
	w1 := writeTrace(t, rootLine)
	w2 := writeTrace(t,
		`{"name":"sat.solve","trace_id":"2","span_id":"7","parent_id":"1","start_unix_ns":2500,"duration_ns":100,"rep":0}`)
	err := run([]string{"check", w1, w2})
	if err == nil || !strings.Contains(err.Error(), "missing parent") {
		t.Fatalf("cross-trace parent not rejected: %v", err)
	}
}

func TestJobMissingTechniqueRejected(t *testing.T) {
	path := writeTrace(t, rootLine,
		`{"name":"job","trace_id":"1","span_id":"2","parent_id":"1","start_unix_ns":2000,"duration_ns":5000,"rep":0}`)
	err := run([]string{"check", path})
	if err == nil || !strings.Contains(err.Error(), "technique") {
		t.Fatalf("job without technique not rejected: %v", err)
	}
}
