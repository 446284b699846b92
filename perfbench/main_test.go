package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"specrepair/internal/core"
	"specrepair/internal/repair"
)

// benchmarkFile is the part of ../BENCHMARK.json the tests read.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatalf("parsing BENCHMARK.json: %v", err)
	}
	return bf
}

// TestMetricTablesMatchBenchmarkFile keeps the printed metric tables and
// BENCHMARK.json in step, names and units alike.
func TestMetricTablesMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	var e2e, layer []metricSpec
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricSpec{m.Name, m.Unit})
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, metricSpec{m.Name, m.Unit})
	}
	sameSet := func(what string, got, want []metricSpec) {
		key := func(ms []metricSpec) []string {
			var out []string
			for _, m := range ms {
				out = append(out, m.name+" "+m.unit)
			}
			sort.Strings(out)
			return out
		}
		g, w := key(got), key(want)
		if len(g) != len(w) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", what, len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				t.Errorf("%s: BENCHMARK.json has %q, the benchmark prints %q", what, g[i], w[i])
			}
		}
	}
	sameSet("end_to_end", e2e, endToEnd)
	sameSet("per_layer", layer, perLayer)
	for _, w := range bf.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark does not run", w.Name)
		}
	}
}

// TestSmokeEveryMetricPrinted runs every workload at test size, untraced and
// traced, and checks that the result line carries every metric BENCHMARK.json
// names, with its unit, and passes the correctness check.
func TestSmokeEveryMetricPrinted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bf := readBenchmarkFile(t)
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, trace := range []bool{false, true} {
			cfg := &config{workload: name, seed: 3, seconds: 0.5, trace: trace, workDir: t.TempDir(), tiny: true}
			rep, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", name, trace, err)
			}
			res, err := rep.result(trace)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var printed map[string]json.RawMessage
			if err := json.Unmarshal(line, &printed); err != nil {
				t.Fatal(err)
			}
			if len(printed) != 4 {
				t.Errorf("result line has keys %v, want correct, attempted, failed, metrics", printed)
			}
			var metrics map[string]metricValue
			if err := json.Unmarshal(printed["metrics"], &metrics); err != nil {
				t.Fatal(err)
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			if len(metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics printed, want %d", name, trace, len(metrics), len(want))
			}
			for _, m := range want {
				got, ok := metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%t: metric %s not printed", name, trace, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s trace=%t: metric %s printed in %q, want %q", name, trace, m.Name, got.Unit, m.Unit)
				}
				if !trace && got.Value == 0 {
					t.Errorf("%s: end-to-end metric %s reads 0", name, m.Name)
				}
			}
		}
	}
}

// TestCorruptedREPVerdictFailsCheck feeds the correctness check a REP=1
// verdict on a candidate that is not equisatisfiable with the ground truth
// (the unrepaired faulty spec) and expects it to be caught, while a genuine
// verdict passes.
func TestCorruptedREPVerdictFailsCheck(t *testing.T) {
	pool, err := generatePool("study-paper", true)
	if err != nil {
		t.Fatal(err)
	}
	spec := pool[0].Specs[0]
	genuine := &core.Result{Spec: spec, Technique: "BeAFix", REP: 1,
		Outcome: repair.Outcome{Repaired: true, Candidate: spec.GroundTruth.Clone()}}
	corrupted := &core.Result{Spec: spec, Technique: "ATR", REP: 1,
		Outcome: repair.Outcome{Repaired: true, Candidate: spec.Faulty.Clone()}}

	if bad := verifyREP([]*core.Result{genuine}); len(bad) != 0 {
		t.Fatalf("genuine verdict rejected: %v", bad)
	}
	if bad := verifyREP([]*core.Result{genuine, corrupted}); len(bad) != 1 {
		t.Fatalf("corrupted verdict: %d mismatches reported, want 1: %v", len(bad), bad)
	}

	ev := &core.Evaluation{Results: map[string]map[string]*core.Result{
		"BeAFix": {spec.Name: genuine},
		"ATR":    {spec.Name: corrupted},
	}}
	rep := newReport()
	checkBatches(rep, []*batch{{evals: []*core.Evaluation{ev}}})
	res, err := rep.result(false)
	if err == nil {
		t.Fatal("a run without its end-to-end metrics produced a result")
	}
	if rep.mismatches != 1 || rep.failed != 1 || res.Correct {
		t.Fatalf("check over a corrupted verdict: mismatches=%d failed=%d correct=%t", rep.mismatches, rep.failed, res.Correct)
	}
}

// TestDigestDetectsDifferentRepeat checks that repeats of one seed which
// disagree on a verdict are reported, and that batches of different seeds
// are not compared.
func TestDigestDetectsDifferentRepeat(t *testing.T) {
	pool, err := generatePool("study-paper", true)
	if err != nil {
		t.Fatal(err)
	}
	spec := pool[0].Specs[0]
	mk := func(seed int64, rep int) *batch {
		r := &core.Result{Spec: spec, Technique: "ATR", REP: rep, Outcome: repair.Outcome{Candidate: spec.GroundTruth}}
		return &batch{seed: seed, evals: []*core.Evaluation{{Results: map[string]map[string]*core.Result{"ATR": {spec.Name: r}}}}}
	}
	rep := newReport()
	checkBatches(rep, []*batch{mk(1, 1), mk(1, 0)})
	if rep.mismatches != 1 {
		t.Fatalf("differing repeats: %d mismatches, want 1", rep.mismatches)
	}
	rep = newReport()
	checkBatches(rep, []*batch{mk(1, 1), mk(1, 1), mk(2, 0)})
	if rep.mismatches != 0 {
		t.Fatalf("agreeing repeats and a batch of another seed: %d mismatches, want 0", rep.mismatches)
	}
}
