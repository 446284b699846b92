package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// goldenDigests holds the SHA-256 of each deterministic CSV that
// `experiments -scale 400 -all -csv DIR` (seed 1) writes, in sha256sum
// format. Regenerate it only for a change meant to alter study results:
//
//	go run ./cmd/experiments -scale 400 -all -csv /tmp/golden > /dev/null
//	(cd /tmp/golden && sha256sum table1.csv fig2.csv fig3.csv table2.csv \
//	  techstats.csv telemetry_jobs.csv telemetry_incremental.csv) \
//	  > cmd/experiments/testdata/golden_scale400_seed1.sha256
const goldenDigests = "testdata/golden_scale400_seed1.sha256"

// TestStudyMatchesGoldenDigests guards study results across commits: the
// A/B checks compare two modes of one build, so a hot-path change that
// alters results in every mode alike would pass them, but not this.
func TestStudyMatchesGoldenDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The digests were computed on amd64. Elsewhere the compiler may
		// fuse multiply-adds, which can move the last printed digit.
		t.Skipf("golden digests are for amd64, not %s", runtime.GOARCH)
	}
	want := readDigests(t, goldenDigests)
	if len(want) != 7 {
		t.Fatalf("%s lists %d files, want the 7 deterministic CSVs", goldenDigests, len(want))
	}

	dir := t.TempDir()
	if err := run([]string{"-scale", "400", "-all", "-csv", dir}); err != nil {
		t.Fatal(err)
	}
	for name, digest := range want {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("reading %s: %v", name, err)
			continue
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != digest {
			t.Errorf("%s: sha256 %s, golden %s; the study's results changed", name, got, digest)
		}
	}
}

// readDigests parses sha256sum output into file name → hex digest.
func readDigests(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		digest, name, ok := strings.Cut(sc.Text(), "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", path, sc.Text())
		}
		out[name] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
