package analyzer_test

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"specrepair/internal/alloy/ast"
	"specrepair/internal/analyzer"
	"specrepair/internal/bench"
)

// a4fSpecs returns the scale-40 A4F corpus.
func a4fSpecs(t *testing.T) []*bench.Spec {
	t.Helper()
	g := bench.NewGenerator(nil)
	g.Scale = 40
	suite, err := g.Alloy4Fun()
	if err != nil {
		t.Fatal(err)
	}
	return suite.Specs
}

// bytesOf returns the bytes f allocates.
func bytesOf(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestWarmRunCommandReusesEngine guards the engine pool: once a session
// has ended, the next one resets its solver and CNF builder instead of
// growing new ones from empty, so a warm RunCommand on an A4F spec
// allocates at most half the bytes of the cold call that grew them. The
// cold call runs after two collections, which empty the pool; the warm
// figure is the least of five calls, since the race detector makes the
// pool drop some of what it is given.
func TestWarmRunCommandReusesEngine(t *testing.T) {
	var mod *ast.Module
	for _, sp := range a4fSpecs(t) {
		if sp.Name == "lts/0000" {
			mod = sp.GroundTruth
		}
	}
	if mod == nil {
		t.Fatal("no A4F spec lts/0000")
	}
	cmd := mod.Commands[0]
	a := analyzer.New(analyzer.Options{})
	runCmd := func() {
		if _, err := a.RunCommand(mod, cmd); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.GC()
	cold := bytesOf(runCmd)
	warm := cold
	for i := 0; i < 5; i++ {
		warm = min(warm, bytesOf(runCmd))
	}
	t.Logf("RunCommand %s: cold %d B, warm %d B", cmd.Name, cold, warm)
	if 2*warm > cold {
		t.Errorf("warm RunCommand allocated %d B, more than half the cold call's %d B", warm, cold)
	}
}

// render prints everything a fresh ExecuteAll result carries.
func render(results []*analyzer.Result, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var b strings.Builder
	for _, r := range results {
		fmt.Fprintf(&b, "%s %v %v %+v\n", r.Command.Name, r.Sat, r.Status, r.Stats)
		if r.Instance != nil {
			b.WriteString(r.Instance.String())
		}
	}
	return b.String()
}

// TestConcurrentFreshSessionsMatchSerial runs fresh ExecuteAll calls on
// distinct specs from eight goroutines, each walking the specs from its own
// offset, so engines pass between goroutines and between specs through the
// pool. Every result, instances and solver effort included, must equal the
// serial one.
func TestConcurrentFreshSessionsMatchSerial(t *testing.T) {
	// The first spec of every A4F domain, so that problem sizes vary.
	var mods []*ast.Module
	domains := map[string]bool{}
	for _, sp := range a4fSpecs(t) {
		domain, _, _ := strings.Cut(sp.Name, "/")
		if !domains[domain] {
			domains[domain] = true
			mods = append(mods, sp.Faulty, sp.GroundTruth)
		}
	}
	a := analyzer.New(analyzer.Options{})
	want := make([]string, len(mods))
	for i, mod := range mods {
		want[i] = render(a.ExecuteAll(mod))
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range mods {
				i := (w*len(mods)/workers + k) % len(mods)
				if got := render(a.ExecuteAll(mods[i])); got != want[i] {
					t.Errorf("worker %d, spec %d: concurrent result\n%s\nserial\n%s", w, i, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}
