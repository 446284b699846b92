package main

import (
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
)

func writeSpec(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.als")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const demoSrc = `
sig Node { next: lone Node }
fact Links { all n: Node | n not in n.next }
assert NoSelf { no n: Node | n in n.next }
check NoSelf for 3
run { some Node } for 3
`

func TestParseVerb(t *testing.T) {
	path := writeSpec(t, demoSrc)
	if err := run([]string{"parse", path}); err != nil {
		t.Fatal(err)
	}
}

func TestExecVerb(t *testing.T) {
	path := writeSpec(t, demoSrc)
	if err := run([]string{"exec", path}); err != nil {
		t.Fatal(err)
	}
}

func TestEvalVerb(t *testing.T) {
	path := writeSpec(t, demoSrc)
	if err := run([]string{"eval", path, "no next & iden"}); err != nil {
		t.Fatal(err)
	}
}

func TestBadInput(t *testing.T) {
	if err := run([]string{"parse", "/nonexistent.als"}); err == nil {
		t.Error("missing file should error")
	}
	path := writeSpec(t, "sig {")
	if err := run([]string{"parse", path}); err == nil {
		t.Error("malformed spec should error")
	}
	if err := run([]string{"frobnicate", path}); err == nil {
		t.Error("unknown verb should error")
	}
	if err := run([]string{"parse"}); err == nil {
		t.Error("missing file arg should error")
	}
}

// TestExecPrintsPerCommandConflicts runs the same check twice. The two
// share a solver, and each line must report its own solve's conflicts,
// not the solver's running total.
func TestExecPrintsPerCommandConflicts(t *testing.T) {
	path := writeSpec(t, `
sig Node { next: lone Node }
fact Links { all n: Node | n not in n.next }
assert NoSelf { no n: Node | n in n.next }
check NoSelf for 5
check NoSelf for 5
`)
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	runErr := run([]string{"exec", path})
	os.Stdout = stdout
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil || runErr != nil {
		t.Fatal(err, runErr)
	}
	var counts []int
	for _, m := range regexp.MustCompile(`(\d+) conflicts\)`).FindAllStringSubmatch(string(out), -1) {
		n, _ := strconv.Atoi(m[1])
		counts = append(counts, n)
	}
	if len(counts) != 2 || counts[0] == 0 || counts[1] > counts[0] {
		t.Errorf("conflicts per command = %v, want two lines, the second no higher than the first:\n%s", counts, out)
	}
}
