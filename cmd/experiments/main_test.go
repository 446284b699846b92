package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"specrepair/internal/telemetry"
)

// TestSmokeTraceAndCSV runs a heavily scaled-down study end to end with every
// telemetry surface enabled: a JSONL trace, a live metrics endpoint on an
// ephemeral port, and the CSV export directory. It then validates the trace
// line by line.
func TestSmokeTraceAndCSV(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.jsonl")
	csvDir := filepath.Join(dir, "csv")

	err := run([]string{
		"-scale", "400", "-table1",
		"-trace", tracePath,
		"-csv", csvDir,
		"-metrics-addr", "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spans, jobs := 0, 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var sr telemetry.SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &sr); err != nil {
			t.Fatalf("trace line %d is not valid JSON: %v\n%s", spans+1, err, sc.Text())
		}
		if sr.Name == "" || sr.SpanID == "" || sr.TraceID == "" {
			t.Errorf("span on line %d missing name/IDs: %+v", spans+1, sr)
		}
		if sr.Name == "job" {
			jobs++
			if sr.Technique == "" || sr.Spec == "" {
				t.Errorf("job span on line %d missing technique/spec: %+v", spans+1, sr)
			}
			if sr.DurationNs <= 0 {
				t.Errorf("span %s/%s has non-positive duration", sr.Technique, sr.Spec)
			}
		}
		spans++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if spans == 0 {
		t.Fatal("trace file contains no spans")
	}
	if jobs == 0 {
		t.Fatal("trace file contains no job spans")
	}

	for _, name := range []string{
		"phases.csv", "techstats.csv",
		"telemetry_techniques.csv", "telemetry_specs.csv",
	} {
		info, err := os.Stat(filepath.Join(csvDir, name))
		if err != nil {
			t.Errorf("missing CSV export %s: %v", name, err)
			continue
		}
		if info.Size() == 0 {
			t.Errorf("CSV export %s is empty", name)
		}
	}
}

// TestMemprofileOnFailedRun checks that -memprofile writes its profile on
// exit even when the study fails: here the checkpoint already exists and
// -resume is absent, so the run refuses to start.
func TestMemprofileOnFailedRun(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ckpt.jsonl")
	if err := os.WriteFile(ckpt, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	prof := filepath.Join(dir, "heap.pprof")
	if err := run([]string{"-scale", "400", "-table1", "-checkpoint", ckpt, "-memprofile", prof}); err == nil {
		t.Fatal("run over an existing checkpoint without -resume succeeded")
	}
	if info, err := os.Stat(prof); err != nil || info.Size() == 0 {
		t.Fatalf("heap profile after a failed run: %v", err)
	}
}
