package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"specrepair/internal/telemetry"
)

// errorBody is the JSON error envelope for non-2xx responses, mirroring the
// shard coordinator's wire style.
type errorBody struct {
	Error string `json:"error"`
}

// submitResponse answers POST /jobs.
type submitResponse struct {
	ID string `json:"id"`
	// State is the job's state at admission time (a duplicate of a finished
	// job answers "done" immediately).
	State State `json:"state"`
	// Duplicate reports that an identical submission was already known and
	// this response aliases the existing job.
	Duplicate bool `json:"duplicate,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// Handler serves the repaird HTTP API on a stdlib mux:
//
//	POST /jobs              submit a spec+tests+technique, get a job id (202)
//	GET  /jobs              list jobs
//	GET  /jobs/{id}         job state; ?wait=DUR long-polls for completion
//	GET  /jobs/{id}/stream  JSONL progress stream until the job finishes
//	GET  /jobs/{id}/result  the repaired spec (text/plain)
//	GET  /stats             queue/cache/admission snapshot
//	GET  /healthz           200 serving, 503 draining
//	GET  /metrics           live Prometheus metrics; /metrics.json for JSON
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Jobs())
	})
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.Draining() {
			writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "draining"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	telemetry.HandleMetrics(mux, s.reg)
	mux.HandleFunc("GET /{$}", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "specrepair repaird\nPOST /jobs\nGET /jobs/{id}\nGET /jobs/{id}/stream\nGET /jobs/{id}/result\nGET /stats\nGET /metrics\n")
	})
	return mux
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var sub Submission
	if err := json.NewDecoder(r.Body).Decode(&sub); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "decoding submission: " + err.Error()})
		return
	}
	snap, dup, err := s.Submit(sub)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
		return
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "5")
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		return
	case err != nil:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	status := http.StatusAccepted
	if dup {
		status = http.StatusOK
	}
	writeJSON(w, status, submitResponse{ID: snap.ID, State: snap.State, Duplicate: dup})
}

func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if waitSpec := r.URL.Query().Get("wait"); waitSpec != "" {
		d, err := time.ParseDuration(waitSpec)
		if err != nil {
			// Bare seconds are accepted too ("wait=5").
			secs, serr := strconv.Atoi(waitSpec)
			if serr != nil {
				writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad wait duration: " + err.Error()})
				return
			}
			d = time.Duration(secs) * time.Second
		}
		done, ok := s.Watch(id)
		if !ok {
			writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job " + id})
			return
		}
		select {
		case <-done:
		case <-time.After(d):
		case <-r.Context().Done():
			return
		}
	}
	snap, ok := s.Job(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job " + id})
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// handleStream writes one snapshot line immediately and another on every
// observed state change until the job finishes or the client goes away —
// the live-progress pattern of the telemetry /metrics listener, expressed
// as a chunked JSONL stream.
func (s *Service) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	done, ok := s.Watch(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job " + id})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	var last State
	emit := func() bool {
		snap, ok := s.Job(id)
		if !ok {
			return false
		}
		if snap.State == last {
			return true
		}
		last = snap.State
		if err := enc.Encode(snap); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	if !emit() {
		return
	}
	ticker := time.NewTicker(100 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-done:
			emit()
			return
		case <-r.Context().Done():
			return
		case <-ticker.C:
			if !emit() {
				return
			}
		}
	}
}

func (s *Service) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	result, snap, ok := s.Result(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job " + id})
		return
	}
	switch {
	case !snap.State.Terminal():
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusConflict, errorBody{Error: fmt.Sprintf("job %s is %s", id, snap.State)})
	case snap.State == StateFailed:
		writeJSON(w, http.StatusUnprocessableEntity, errorBody{Error: "job failed: " + snap.Error})
	case !snap.Repaired:
		writeJSON(w, http.StatusUnprocessableEntity, errorBody{Error: "technique exhausted its search without a repair"})
	default:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, result)
	}
}
