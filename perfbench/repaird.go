package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"specrepair/internal/alloy/parser"
	"specrepair/internal/bench"
	"specrepair/internal/core"
	"specrepair/internal/repair"
	"specrepair/internal/service"
	"specrepair/internal/telemetry"
)

// The traffic shape below is an assumed mix, not measured traffic: no
// repaird deployment has been observed. It exercises every path the service
// has — admission, dedup, status reads and journaled writes — side by side.
const (
	// refRate is the fixed open-loop rate (POST /jobs per second): about a
	// third of what two cores sustain on the ARepair specs.
	refRate = 40.0
	// latencyLimit bounds every request's scheduled-send-to-terminal time.
	latencyLimit = 10 * time.Second
	// dupEvery makes every dupEvery-th submission a resubmission of an
	// earlier one, so a fifth of the traffic is duplicates.
	dupEvery = 5
)

// submission is one entry of the seeded submission stream.
type submission struct {
	body []byte
	sub  service.Submission
	spec *bench.Spec
}

// submissionStream builds one round of submissions: every (spec, technique)
// pair of the corpus once with simulated-LLM seed seed, in a seeded order
// that interleaves the techniques (every twelve fresh submissions hold each
// technique once). Every dupEvery-th submission resubmits a seeded earlier
// entry unchanged.
func submissionStream(c *corpus, seed int64) []submission {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	specs := c.specs()
	techs := core.TechniqueNames
	techOrder := rng.Perm(len(techs))
	specOrder := make([][]int, len(techs))
	for t := range techs {
		specOrder[t] = rng.Perm(len(specs))
	}
	var out []submission
	for k := 0; k < len(specs)*len(techs); k++ {
		if len(out)%dupEvery == dupEvery-1 {
			out = append(out, out[rng.Intn(len(out))])
		}
		t := techOrder[k%len(techs)]
		sp := specs[specOrder[t][k/len(techs)]]
		sub := service.Submission{
			Spec:      c.source[sp.Benchmark+"/"+sp.Name],
			Technique: techs[t],
			Seed:      seed,
		}
		if sp.Tests != nil {
			sub.Tests = sp.Tests.Tests
		}
		body, err := json.Marshal(sub)
		if err != nil {
			panic(err) // a Submission always marshals
		}
		out = append(out, submission{body: body, sub: sub, spec: sp})
	}
	return out
}

// daemon is one in-process repaird: a service.Service with an on-disk
// journal behind an httptest server.
type daemon struct {
	svc *service.Service
	srv *httptest.Server
}

func startDaemon(dir string, reg *telemetry.Registry) (*daemon, error) {
	journal := filepath.Join(dir, "journal.jsonl")
	svc, err := service.New(service.Options{
		Journal:    journal,
		Workers:    runtime.NumCPU(),
		QueueDepth: 256,
		Telemetry:  reg,
	})
	if err != nil {
		return nil, fmt.Errorf("starting service: %w", err)
	}
	return &daemon{svc: svc, srv: httptest.NewServer(svc.Handler())}, nil
}

// close stops the server and hard-stops the service; unfinished jobs stay
// journaled, which the benchmark never resumes.
func (d *daemon) close() {
	d.srv.Close()
	if err := d.svc.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: closing service:", err)
	}
}

// request is one timed HTTP request of the load generator.
type request struct {
	idx              int // stream index (POST) or -1 (GET)
	due, sent, reply time.Time
	status           int
	id               string
	err              error
}

// loadgen drives one daemon over at most runtime.NumCPU() HTTP connections
// and observes job completion through Service.Watch.
type loadgen struct {
	d      *daemon
	client *http.Client
	stream []submission
	// span, when tracing, parents one span per HTTP request.
	span *telemetry.Span

	mu       sync.Mutex
	terminal map[string]time.Time
	watched  map[string]bool
	admitted []string
	stop     chan struct{}
	watchers sync.WaitGroup
}

func newLoadgen(d *daemon, stream []submission, span *telemetry.Span) *loadgen {
	conns := runtime.NumCPU()
	return &loadgen{
		d: d,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
		}},
		stream:   stream,
		span:     span,
		terminal: map[string]time.Time{},
		watched:  map[string]bool{},
		stop:     make(chan struct{}),
	}
}

// shutdown stops the watchers and closes idle connections.
func (g *loadgen) shutdown() {
	close(g.stop)
	g.watchers.Wait()
	g.client.CloseIdleConnections()
}

// watch records when job id reaches a terminal state (once per id).
func (g *loadgen) watch(id string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.watched[id] {
		return
	}
	g.watched[id] = true
	g.admitted = append(g.admitted, id)
	done, ok := g.d.svc.Watch(id)
	if !ok {
		return
	}
	g.watchers.Add(1)
	go func() {
		defer g.watchers.Done()
		select {
		case <-done:
			g.mu.Lock()
			g.terminal[id] = time.Now()
			g.mu.Unlock()
		case <-g.stop:
		}
	}()
}

// doneAt is when the request's job was terminal as the client saw it: the
// later of the job's terminal transition and the POST's reply.
func (g *loadgen) doneAt(r request) (time.Time, bool) {
	g.mu.Lock()
	t, ok := g.terminal[r.id]
	g.mu.Unlock()
	if !ok {
		return time.Time{}, false
	}
	if t.Before(r.reply) {
		t = r.reply
	}
	return t, true
}

func (g *loadgen) pending(ids []string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for _, id := range ids {
		if _, ok := g.terminal[id]; !ok {
			n++
		}
	}
	return n
}

// post submits stream entry idx.
func (g *loadgen) post(ctx context.Context, idx int) request {
	r := request{idx: idx, sent: time.Now()}
	sp := g.span.Child("http.post")
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.d.srv.URL+"/jobs", bytes.NewReader(g.stream[idx].body))
	if err == nil {
		req.Header.Set("Content-Type", "application/json")
		var resp *http.Response
		resp, err = g.client.Do(req)
		if err == nil {
			r.status = resp.StatusCode
			var body struct {
				ID string `json:"id"`
			}
			err = json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			r.id = body.ID
		}
	}
	r.reply = time.Now()
	sp.End()
	r.err = err
	if err == nil && (r.status == http.StatusAccepted || r.status == http.StatusOK) && r.id != "" {
		g.watch(r.id)
	}
	return r
}

// get reads one admitted job's status.
func (g *loadgen) get(ctx context.Context, k int) request {
	r := request{idx: -1, sent: time.Now()}
	g.mu.Lock()
	var id string
	if len(g.admitted) > 0 {
		id = g.admitted[(k*7919)%len(g.admitted)]
	}
	g.mu.Unlock()
	if id == "" {
		return request{} // nothing admitted yet: nothing to read
	}
	sp := g.span.Child("http.get")
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, g.d.srv.URL+"/jobs/"+id, nil)
	if err == nil {
		var resp *http.Response
		resp, err = g.client.Do(req)
		if err == nil {
			r.status = resp.StatusCode
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	r.reply = time.Now()
	sp.End()
	r.err = err
	return r
}

// openLoop sends the first n stream entries at a fixed rate, each POST
// followed half an interval later by a status read, from runtime.NumCPU()
// sender goroutines. A request's clock starts at its scheduled time, so a
// stalled sender makes later requests late, not fewer.
func (g *loadgen) openLoop(ctx context.Context, n int, rate float64) (posts, gets []request) {
	interval := time.Duration(float64(time.Second) / rate)
	posts = make([]request, n)
	gets = make([]request, n)
	type event struct {
		k   int
		get bool
		due time.Time
	}
	work := make(chan event)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ev := range work {
				if ev.get {
					r := g.get(ctx, ev.k)
					r.due = ev.due
					gets[ev.k] = r
				} else {
					r := g.post(ctx, ev.k)
					r.due = ev.due
					posts[ev.k] = r
				}
			}
		}()
	}
	start := time.Now()
dispatch:
	for k := 0; k < n; k++ {
		for _, ev := range []event{
			{k: k, due: start.Add(time.Duration(k) * interval)},
			{k: k, get: true, due: start.Add(time.Duration(k)*interval + interval/2)},
		} {
			if d := time.Until(ev.due); d > 0 {
				select {
				case <-time.After(d):
				case <-ctx.Done():
					break dispatch
				}
			}
			work <- ev
		}
	}
	close(work)
	wg.Wait()
	return posts, gets
}

// drain waits until every admitted job among reqs is terminal, or until the
// latency limit has passed since the last scheduled send.
func (g *loadgen) drain(ctx context.Context, reqs []request) {
	var ids []string
	var last time.Time
	for _, r := range reqs {
		if r.id != "" {
			ids = append(ids, r.id)
		}
		if r.due.After(last) {
			last = r.due
		}
	}
	deadline := last.Add(latencyLimit)
	for g.pending(ids) > 0 && time.Now().Before(deadline) && ctx.Err() == nil {
		time.Sleep(5 * time.Millisecond)
	}
}

// phaseStats summarises one open-loop phase.
type phaseStats struct {
	late              []float64
	failed, attempted int
	ids               []string // distinct admitted job ids, in stream order
}

// summarize scores a drained open-loop phase: a request fails on a
// transport error, any status other than 200/202, or a latency above the
// limit (an unfinished job counts as above it).
func (g *loadgen) summarize(posts, gets []request) phaseStats {
	var ps phaseStats
	seen := map[string]bool{}
	for _, r := range posts {
		ps.attempted++
		ps.late = append(ps.late, ms(r.sent.Sub(r.due)))
		if r.err != nil || (r.status != http.StatusAccepted && r.status != http.StatusOK) {
			ps.failed++
			fmt.Fprintf(os.Stderr, "perfbench: POST %d: status %d, err %v\n", r.idx, r.status, r.err)
			continue
		}
		if !seen[r.id] {
			seen[r.id] = true
			ps.ids = append(ps.ids, r.id)
		}
		if done, ok := g.doneAt(r); !ok || done.Sub(r.due) > latencyLimit {
			ps.failed++
		}
	}
	for _, r := range gets {
		if r.sent.IsZero() {
			continue
		}
		ps.attempted++
		ps.late = append(ps.late, ms(r.sent.Sub(r.due)))
		if r.err != nil || r.status != http.StatusOK {
			ps.failed++
		}
	}
	return ps
}

// checkJobs inspects the distinct jobs of a phase. A failed job counts as
// failed; every done repair is re-checked: parsed, then held to its
// technique's oracle by a fresh analyzer (ARepair's oracle is its AUnit
// suite). It returns the queue-wait and run times from the snapshot
// timestamps.
func checkJobs(ctx context.Context, rep *report, svc *service.Service, ids []string, subOf map[string]submission) (waitMs, runMs []float64) {
	an := freshAnalyzer()
	for _, id := range ids {
		result, snap, ok := svc.Result(id)
		if !ok || !snap.State.Terminal() {
			continue // already counted as a missed latency limit
		}
		if snap.StartedAt != nil && snap.FinishedAt != nil {
			waitMs = append(waitMs, ms(snap.StartedAt.Sub(snap.CreatedAt)))
			runMs = append(runMs, ms(snap.FinishedAt.Sub(*snap.StartedAt)))
		}
		if snap.State == service.StateFailed {
			rep.failed++
			fmt.Fprintf(os.Stderr, "perfbench: job %s failed: %s\n", id, snap.Error)
			continue
		}
		if !snap.Repaired {
			continue
		}
		sub := subOf[id]
		mod, err := parser.Parse(result)
		if err != nil {
			rep.mismatch("job %s: repaired spec does not parse: %v", id, err)
			continue
		}
		if sub.sub.Technique == "ARepair" {
			if !sub.spec.Tests.AllPass(mod) {
				rep.mismatch("job %s: ARepair result fails its AUnit suite", id)
			}
		} else if pass, err := repair.OracleAllCommandsPass(ctx, an, mod); err != nil || !pass {
			rep.mismatch("job %s: %s result fails the command oracle (err %v)", id, sub.sub.Technique, err)
		}
	}
	return waitMs, runMs
}

// subsByID maps each admitted job id to its stream entry.
func subsByID(stream []submission, posts []request) map[string]submission {
	m := map[string]submission{}
	for _, r := range posts {
		if r.id != "" {
			m[r.id] = stream[r.idx]
		}
	}
	return m
}

// replayService sends one round of the corpus's submissions through a
// traced in-process repaird at the reference rate, checks the jobs and
// reports the service, HTTP, load-generator and journal layers. The traced
// study-paper run replays its ARepair specs this way: no steady workload
// goes through the service, so its layers are measured beside one.
func replayService(ctx context.Context, rep *report, cfg *config, c *corpus) error {
	stream := submissionStream(c, cfg.seed)
	reg, sink := tracedRegistry()
	d, err := startDaemon(cfg.workDir, reg)
	if err != nil {
		return err
	}
	defer d.close()
	root := reg.StartSpan("bench.loadgen")
	g := newLoadgen(d, stream, root)
	defer g.shutdown()
	posts, gets := g.openLoop(ctx, len(stream), refRate)
	g.drain(ctx, posts)
	root.End()
	ps := g.summarize(posts, gets)
	stats := d.svc.Stats()
	wait, run := checkJobs(ctx, rep, d.svc, ps.ids, subsByID(stream, posts))
	rep.attempted += ps.attempted
	rep.failed += ps.failed

	var post, get []float64
	for _, r := range sink.records() {
		switch r.Name {
		case "http.post":
			post = append(post, float64(r.DurationNs)/1e6)
		case "http.get":
			get = append(get, float64(r.DurationNs)/1e6)
		}
	}
	rep.set("http.post_ms.p50", quantile(post, 0.50))
	rep.set("http.get_ms.p50", quantile(get, 0.50))
	rep.set("http.get_ms.p95", quantile(get, 0.95))
	rep.set("service.queue_wait_ms.p50", quantile(wait, 0.50))
	rep.set("service.queue_wait_ms.p95", quantile(wait, 0.95))
	rep.set("service.run_ms.p50", quantile(run, 0.50))
	rep.set("service.run_ms.p95", quantile(run, 0.95))
	rep.set("service.dedup_ratio", ratio(float64(stats.Deduped), float64(stats.Deduped+stats.Submitted)))
	rep.set("service.rejected", float64(stats.Rejected))
	rep.set("loadgen.late_ms.p95", quantile(ps.late, 0.95))
	rep.fact("service.submissions", len(stream))
	rep.fact("service.offered_rate", refRate)
	rep.fact("service.dup_share", 1.0/dupEvery)
	rep.fact("samples.http_post_ms", len(post))
	rep.fact("samples.http_get_ms", len(get))
	rep.fact("samples.service_ms", len(run))
	rep.fact("samples.late_ms", len(ps.late))

	records := make([]any, 0, len(stream))
	for _, sub := range stream {
		records = append(records, sub.sub)
	}
	appends := 2000
	if cfg.tiny {
		appends = 20
	}
	return replayJournal(rep, cfg.workDir, records, appends)
}
