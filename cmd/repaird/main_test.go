package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

const faultySrc = `
sig Node { next: lone Node }
fact Links { all n: Node | n in n.next }
assert NoSelf { no n: Node | n in n.next }
check NoSelf for 3
run { some Node } for 3
`

// hardSrc costs tens of milliseconds per job (scope 6, two relations), so a
// single uncached worker cannot finish a batch before the test kills the
// daemon.
const hardSrc = `
sig Node { next: lone Node, prev: lone Node }
fact Links { all n: Node | n in n.next }
fact Back { all n: Node | n.next.prev = n }
assert NoSelf { no n: Node | n in n.next }
assert Sym { all n: Node | n.prev.next = n }
check NoSelf for 6
check Sym for 6
run { some Node } for 6
`

// startDaemon runs the daemon on a free port and returns its base URL plus a
// shutdown function that triggers the graceful drain (the ctx path of the
// same select that handles SIGINT/SIGTERM) and waits for run to return.
func startDaemon(t *testing.T, args ...string) (baseURL string, shutdown func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	errCh := make(chan error, 1)
	go func() {
		errCh <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...),
			func(addr string) { ready <- addr })
	}()
	select {
	case addr := <-ready:
		baseURL = "http://" + addr
	case err := <-errCh:
		t.Fatalf("daemon exited before listening: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}
	return baseURL, func() error {
		cancel()
		select {
		case err := <-errCh:
			return err
		case <-time.After(time.Minute):
			t.Fatal("daemon did not drain within a minute")
			return nil
		}
	}
}

func submit(t *testing.T, baseURL, spec, technique string, seed int64) (id string, status int, duplicate bool) {
	t.Helper()
	body, _ := json.Marshal(map[string]any{"spec": spec, "technique": technique, "seed": seed})
	resp, err := http.Post(baseURL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr struct {
		ID        string `json:"id"`
		Duplicate bool   `json:"duplicate"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatalf("decoding submit response: %v", err)
	}
	return sr.ID, resp.StatusCode, sr.Duplicate
}

// The daemon's end-to-end journey: submit, long-poll, fetch the repair,
// observe the duplicate short-circuit and cache hits, then drain cleanly.
func TestDaemonEndToEnd(t *testing.T) {
	baseURL, shutdown := startDaemon(t)

	id, status, dup := submit(t, baseURL, faultySrc, "BeAFix", 1)
	if status != http.StatusAccepted || dup {
		t.Fatalf("submit: HTTP %d dup=%v", status, dup)
	}

	resp, err := http.Get(baseURL + "/jobs/" + id + "?wait=60s")
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		State    string `json:"state"`
		Repaired bool   `json:"repaired"`
		Error    string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.State != "done" || !snap.Repaired {
		t.Fatalf("job ended state=%s repaired=%v error=%q", snap.State, snap.Repaired, snap.Error)
	}

	res, err := http.Get(baseURL + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusOK || !strings.Contains(string(spec), "sig Node") {
		t.Fatalf("result: HTTP %d body %q", res.StatusCode, spec)
	}

	// The identical submission aliases the done job without a new execution.
	id2, status, dup := submit(t, baseURL, faultySrc, "BeAFix", 1)
	if status != http.StatusOK || !dup || id2 != id {
		t.Fatalf("duplicate submit: HTTP %d dup=%v id=%s want alias of %s", status, dup, id2, id)
	}

	var stats struct {
		Deduplicated int64 `json:"deduplicated"`
		Cache        struct {
			Hits int64 `json:"Hits"`
		} `json:"cache"`
	}
	sres, err := http.Get(baseURL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(sres.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	sres.Body.Close()
	if stats.Deduplicated != 1 {
		t.Fatalf("stats report %d deduplicated jobs, want 1", stats.Deduplicated)
	}

	if err := shutdown(); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// Kill the daemon with jobs still journaled, restart it on the same journal,
// and the jobs must complete.
func TestDaemonRestartResumesJournal(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "jobs.jsonl")
	baseURL, shutdown := startDaemon(t, "-journal", journal, "-workers", "1", "-nocache", "-drain-grace", "1ms")

	// A near-zero drain grace means shutdown cancels in-flight work instead
	// of finishing it — the closest in-process approximation of a kill. The
	// queued jobs stay journaled as submitted-only.
	// Distinct seeds make distinct jobs on the same spec.
	ids := make([]string, 0, 4)
	for seed := int64(1); seed <= 4; seed++ {
		id, status, _ := submit(t, baseURL, hardSrc, "BeAFix", seed)
		if status != http.StatusAccepted && status != http.StatusOK {
			t.Fatalf("submit seed %d: HTTP %d", seed, status)
		}
		ids = append(ids, id)
	}
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	baseURL, shutdown = startDaemon(t, "-journal", journal)
	defer shutdown()
	for _, id := range ids {
		resp, err := http.Get(baseURL + "/jobs/" + id + "?wait=60s")
		if err != nil {
			t.Fatal(err)
		}
		var snap struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if snap.State != "done" {
			t.Fatalf("resumed job %s is %s (%s)", id, snap.State, snap.Error)
		}
	}
}

// The daemon builds spans: after one job, /metrics.json counts a finished
// span of the job kind.
func TestDaemonMetricsCountJobSpans(t *testing.T) {
	baseURL, shutdown := startDaemon(t, "-nocache")
	defer shutdown()

	id, status, _ := submit(t, baseURL, faultySrc, "BeAFix", 1)
	if status != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", status)
	}
	resp, err := http.Get(baseURL + "/jobs/" + id + "?wait=60s")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// The job span ends as the job's result is recorded; poll briefly so
	// the check does not race the worker.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var m struct {
			SpanCount map[string]int64 `json:"span_count"`
		}
		res, err := http.Get(baseURL + "/metrics.json")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(res.Body).Decode(&m)
		res.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if m.SpanCount["job"] >= 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("/metrics.json span_count = %v, want a job span", m.SpanCount)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
