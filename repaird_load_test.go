package specrepair

// repaird load driver: the service-level acceptance tests for
// repair-as-a-service. Three arms:
//
//   - sustained load: 1,000 concurrent HTTP submissions, every accepted job
//     must reach a terminal state (zero drops);
//   - overflow: a deliberately tiny queue must reject the excess with 429
//     while still finishing everything it accepted;
//   - kill-and-restart: a journaled run hard-stopped mid-flight must resume
//     on restart and converge to byte-identical results with an
//     uninterrupted reference run.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"specrepair/internal/service"
)

const loadSrc = `
sig Node { next: lone Node }
fact Links { all n: Node | n in n.next }
assert NoSelf { no n: Node | n in n.next }
check NoSelf for 3
run { some Node } for 3
`

const loadHardSrc = `
sig Node { next: lone Node, prev: lone Node }
fact Links { all n: Node | n in n.next }
fact Back { all n: Node | n.next.prev = n }
assert NoSelf { no n: Node | n in n.next }
assert Sym { all n: Node | n.prev.next = n }
check NoSelf for 6
check Sym for 6
run { some Node } for 6
`

// postJob submits one job over HTTP and returns the job id (when admitted)
// and the HTTP status.
func postJob(t *testing.T, baseURL, spec string, seed int64) (string, int) {
	t.Helper()
	body, _ := json.Marshal(service.Submission{Spec: spec, Technique: "BeAFix", Seed: seed})
	resp, err := http.Post(baseURL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Errorf("seed %d: %v", seed, err)
		return "", 0
	}
	defer resp.Body.Close()
	var sr struct {
		ID string `json:"id"`
	}
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Errorf("seed %d: decoding submit response: %v", seed, err)
		}
	}
	return sr.ID, resp.StatusCode
}

// TestRepairdLoadConcurrent floods the daemon with 1,000 concurrent distinct
// submissions. Every one must be accepted (the queue is sized for the burst)
// and every accepted job must finish; none may be silently dropped.
func TestRepairdLoadConcurrent(t *testing.T) {
	const jobs = 1000
	svc, err := service.New(service.Options{QueueDepth: 2 * jobs})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	start := time.Now()
	ids := make([]string, jobs)
	var accepted atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id, status := postJob(t, srv.URL, loadSrc, int64(i+1))
			if status != http.StatusAccepted {
				t.Errorf("seed %d: HTTP %d, want 202", i+1, status)
				return
			}
			ids[i] = id
			accepted.Add(1)
		}(i)
	}
	wg.Wait()
	submitDone := time.Now()
	if accepted.Load() != jobs {
		t.Fatalf("accepted %d of %d submissions", accepted.Load(), jobs)
	}

	// Every accepted job must reach a terminal state — zero drops.
	deadline := time.Now().Add(5 * time.Minute)
	var done, failed int
	for _, id := range ids {
		for {
			snap, ok := svc.Job(id)
			if !ok {
				t.Fatalf("accepted job %s vanished", id)
			}
			if snap.State.Terminal() {
				if snap.State == service.StateDone {
					done++
				} else {
					failed++
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s still %s at deadline", id, snap.State)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	elapsed := time.Since(start)
	if done+failed != jobs {
		t.Fatalf("terminal jobs %d of %d", done+failed, jobs)
	}
	if failed > 0 {
		t.Fatalf("%d of %d jobs failed", failed, jobs)
	}
	st := svc.Stats()
	if st.Submitted != jobs || st.Rejected != 0 {
		t.Fatalf("stats submitted=%d rejected=%d, want %d and 0", st.Submitted, st.Rejected, jobs)
	}

	jobsPerSec := float64(jobs) / elapsed.Seconds()
	t.Logf("%d jobs in %v (%.0f jobs/s, submit burst %v, cache hits %d)",
		jobs, elapsed, jobsPerSec, submitDone.Sub(start), st.Cache.Hits)
}

// TestRepairdLoadOverflow drowns a tiny queue: the excess must bounce with
// 429 (never hang, never vanish), and everything that got a 202 must still
// finish.
func TestRepairdLoadOverflow(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	svc, err := service.New(service.Options{QueueDepth: 4, Workers: 1, DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	const burst = 64
	var mu sync.Mutex
	var acceptedIDs []string
	var rejected int
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id, status := postJob(t, srv.URL, loadHardSrc, int64(i+1))
			mu.Lock()
			defer mu.Unlock()
			switch status {
			case http.StatusAccepted, http.StatusOK:
				acceptedIDs = append(acceptedIDs, id)
			case http.StatusTooManyRequests:
				rejected++
			default:
				t.Errorf("seed %d: HTTP %d", i+1, status)
			}
		}(i)
	}
	wg.Wait()
	if rejected == 0 {
		t.Fatalf("burst of %d against queue depth 4 produced no 429s (accepted %d)", burst, len(acceptedIDs))
	}
	if len(acceptedIDs) == 0 {
		t.Fatal("burst was rejected entirely")
	}
	for _, id := range acceptedIDs {
		snap, err := svc.Wait(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if snap.State != service.StateDone {
			t.Fatalf("accepted job %s ended %s (%s)", id, snap.State, snap.Error)
		}
	}
	if got := svc.Stats().Rejected; got != int64(rejected) {
		t.Fatalf("stats count %d rejections, client saw %d", got, rejected)
	}
}

// TestRepairdLoadKillRestart runs a journaled batch, hard-kills the service
// partway, restarts on the same journal, and requires byte-identical results
// with an uninterrupted reference run.
func TestRepairdLoadKillRestart(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	const jobs = 32
	submitAll := func(svc *service.Service) []string {
		ids := make([]string, 0, jobs)
		for seed := int64(1); seed <= jobs; seed++ {
			snap, _, err := svc.Submit(service.Submission{Spec: loadHardSrc, Technique: "BeAFix", Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, snap.ID)
		}
		return ids
	}
	collect := func(svc *service.Service, ids []string) map[string]string {
		out := make(map[string]string, len(ids))
		for _, id := range ids {
			snap, err := svc.Wait(ctx, id)
			if err != nil {
				t.Fatal(err)
			}
			if snap.State != service.StateDone {
				t.Fatalf("job %s ended %s (%s)", id, snap.State, snap.Error)
			}
			result, _, _ := svc.Result(id)
			out[id] = result
		}
		return out
	}

	// Reference: uninterrupted.
	ref, err := service.New(service.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	want := collect(ref, submitAll(ref))

	// Interrupted: single uncached worker, killed once the first job lands.
	journal := filepath.Join(t.TempDir(), "jobs.jsonl")
	svc, err := service.New(service.Options{Journal: journal, Workers: 1, DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	ids := submitAll(svc)
	if _, err := svc.Wait(ctx, ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("hard close: %v", err)
	}

	svc2, err := service.New(service.Options{Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if svc2.Stats().Resumed == 0 {
		t.Fatal("restart resumed no journaled jobs")
	}
	got := collect(svc2, ids)
	for id, result := range got {
		if result != want[id] {
			t.Fatalf("job %s: resumed result differs from uninterrupted run", id)
		}
	}
}
