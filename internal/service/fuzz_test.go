package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"specrepair/internal/alloy/printer"
	"specrepair/internal/aunit"
	"specrepair/internal/bench"
	"specrepair/internal/core"
	"specrepair/internal/telemetry"
)

// FuzzSubmit posts arbitrary bodies to POST /jobs. Every answer must be a
// client error, or an admission whose job ends in a terminal state without
// a recovered technique panic. The seeds are TestSubmitValidation's
// submissions and the benchmark's specs with their own AUnit tests.
func FuzzSubmit(f *testing.F) {
	seeds := append([]Submission{admittedSubmission()}, refusedSubmissions...)
	for _, c := range malformedValuations {
		seeds = append(seeds, Submission{Spec: faultySrc, Technique: "ARepair", Tests: []*aunit.Test{valuationTest(c.val)}})
	}
	for _, formula := range unrunnableFormulas {
		seeds = append(seeds, Submission{Spec: faultySrc, Technique: "ARepair", Tests: []*aunit.Test{formulaTest(formula)}})
	}
	g := bench.NewGenerator(nil)
	g.Scale = 400
	a4f, ar, err := g.Both()
	if err != nil {
		f.Fatal(err)
	}
	for i, sp := range append(append([]*bench.Spec(nil), a4f.Specs...), ar.Specs...) {
		technique := core.TechniqueNames[i%len(core.TechniqueNames)]
		seeds = append(seeds, Submission{Spec: printer.Module(sp.Faulty), Tests: sp.Tests.Tests, Technique: technique})
	}
	for _, sub := range seeds {
		body, err := json.Marshal(sub)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"spec": 7}`))
	f.Add([]byte(`{`))

	reg := telemetry.New()
	svc, err := New(Options{Timeout: time.Second, Telemetry: reg})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { svc.Close() })
	h := svc.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body)))
		switch {
		case rec.Code >= 400 && rec.Code < 500:
			return
		case rec.Code != http.StatusOK && rec.Code != http.StatusAccepted:
			t.Fatalf("HTTP %d: %s", rec.Code, rec.Body)
		}
		var resp submitResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("HTTP %d with undecodable body %q: %v", rec.Code, rec.Body, err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		snap, err := svc.Wait(ctx, resp.ID)
		if err != nil {
			t.Fatalf("job %s: %v", resp.ID, err)
		}
		if !snap.State.Terminal() {
			t.Fatalf("job %s ended waiting in state %s", resp.ID, snap.State)
		}
		if n := reg.CounterValue(telemetry.CtrJobPanics); n != 0 {
			t.Fatalf("job %s: technique panicked (%d so far): %s", resp.ID, n, snap.Error)
		}
	})
}
