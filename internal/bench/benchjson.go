package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// BenchResult is the machine-readable form of one benchmark arm, written
// alongside the human-readable BENCH_*.txt transcripts so downstream tooling
// can diff results without parsing go test output.
type BenchResult struct {
	Name        string `json:"name"`
	Iterations  int    `json:"iterations"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
	// Extra carries benchmark-specific metrics (e.g. cand/s, overhead %).
	Extra map[string]float64 `json:"extra,omitempty"`
}

// BenchFile is the top-level BENCH_*.json document.
type BenchFile struct {
	Benchmark string        `json:"benchmark"`
	Note      string        `json:"note,omitempty"`
	Results   []BenchResult `json:"results"`
}

// WriteBenchJSON writes results as an indented BENCH_*.json document.
func WriteBenchJSON(path string, file BenchFile) error {
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// OverheadPercent computes the relative slowdown of traced over base ns/op
// (positive = traced slower).
func OverheadPercent(baseNs, tracedNs int64) float64 {
	if baseNs <= 0 {
		return 0
	}
	return 100 * (float64(tracedNs) - float64(baseNs)) / float64(baseNs)
}

// FmtDur renders ns as a short human duration for benchmark notes.
func FmtDur(ns int64) string {
	return time.Duration(ns).String()
}

// ResultFrom builds a BenchResult from raw counters (the caller extracts
// them from testing.BenchmarkResult; this package stays testing-free so it
// can be linked into non-test binaries).
func ResultFrom(name string, iterations int, nsPerOp, allocsPerOp, bytesPerOp int64, extra map[string]float64) BenchResult {
	return BenchResult{
		Name:        name,
		Iterations:  iterations,
		NsPerOp:     nsPerOp,
		AllocsPerOp: allocsPerOp,
		BytesPerOp:  bytesPerOp,
		Extra:       extra,
	}
}

// Verify is a tiny helper for bench drivers: returns an error when the
// traced arm exceeds the allowed overhead budget.
func Verify(baseNs, tracedNs int64, maxPercent float64) error {
	if p := OverheadPercent(baseNs, tracedNs); p > maxPercent {
		return fmt.Errorf("tracing overhead %.2f%% exceeds budget %.2f%% (base %s, traced %s)",
			p, maxPercent, FmtDur(baseNs), FmtDur(tracedNs))
	}
	return nil
}
