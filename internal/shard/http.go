package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"time"

	"specrepair/internal/core"
)

// Wire types of the lease protocol. Everything is JSON over three POST
// endpoints plus a status GET; the payloads are small enough that
// readability beats compactness.

// LeaseRequest asks the coordinator for a job-range. Digest must match the
// coordinator's study digest or the request is rejected with HTTP 409.
type LeaseRequest struct {
	Worker string `json:"worker"`
	Digest string `json:"digest"`
	// Max caps the granted range (0 = coordinator's chunk size).
	Max int `json:"max,omitempty"`
}

// LeaseResponse grants a contiguous job-range [Start, Start+Count). A zero
// Count means no work was available: Done tells the worker the study has
// finished; otherwise it should retry after RetryMs.
type LeaseResponse struct {
	LeaseID int64 `json:"lease_id,omitempty"`
	Start   int   `json:"start"`
	Count   int   `json:"count"`
	Done    bool  `json:"done,omitempty"`
	// HeartbeatMs is the interval the worker should heartbeat at (a third
	// of the coordinator's lease TTL).
	HeartbeatMs int64 `json:"heartbeat_ms,omitempty"`
	RetryMs     int64 `json:"retry_ms,omitempty"`
}

// HeartbeatRequest keeps a lease alive while its jobs run.
type HeartbeatRequest struct {
	Worker  string `json:"worker"`
	LeaseID int64  `json:"lease_id"`
}

// HeartbeatResponse reports whether the lease is still held. Revoked means
// the coordinator reaped it (the worker went silent past the TTL and the
// range was re-dispatched); the worker should abandon the range.
type HeartbeatResponse struct {
	OK      bool `json:"ok"`
	Revoked bool `json:"revoked,omitempty"`
}

// CompleteRequest posts one finished job: its global index and the
// journal-form record the coordinator will persist.
type CompleteRequest struct {
	Worker  string                 `json:"worker"`
	LeaseID int64                  `json:"lease_id"`
	Index   int                    `json:"index"`
	Record  *core.CheckpointRecord `json:"record"`
}

// CompleteResponse acknowledges a completion. Duplicate completions are
// acknowledged too — first-wins resolution is the coordinator's concern,
// not the worker's. Done tells the worker the study is now fully complete,
// so it can exit without another lease round (the coordinator may be gone
// by then).
type CompleteResponse struct {
	OK   bool `json:"ok"`
	Done bool `json:"done,omitempty"`
}

// errorBody is the JSON error envelope for non-200 responses.
type errorBody struct {
	Error string `json:"error"`
}

// Coordinator serves the lease protocol for one study run.
type Coordinator struct {
	board  *Board
	digest string
	ln     net.Listener
	srv    *http.Server
}

// Serve starts the coordinator's HTTP server on addr (":0" picks a free
// port; read it back from Addr).
func Serve(addr, digest string, board *Board) (*Coordinator, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("shard coordinator: %w", err)
	}
	c := &Coordinator{board: board, digest: digest, ln: ln}
	c.srv = &http.Server{Handler: c.handler()}
	go c.srv.Serve(ln)
	return c, nil
}

// handler routes the lease protocol's endpoints.
func (c *Coordinator) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/shard/lease", c.handleLease)
	mux.HandleFunc("/shard/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("/shard/complete", c.handleComplete)
	mux.HandleFunc("/shard/status", c.handleStatus)
	return mux
}

// Addr is the address the coordinator is listening on.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Close stops the server.
func (c *Coordinator) Close() error { return c.srv.Close() }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST required"})
		return false
	}
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return false
	}
	return true
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.Digest != c.digest {
		c.board.RejectWorker()
		writeJSON(w, http.StatusConflict, errorBody{Error: fmt.Sprintf(
			"study digest mismatch: worker %s has %.12s…, coordinator has %.12s… "+
				"(differing -seed/-scale, binary version, or corpus)",
			req.Worker, req.Digest, c.digest)})
		return
	}
	id, start, count, done := c.board.Lease(req.Worker, req.Max)
	resp := LeaseResponse{LeaseID: id, Start: start, Count: count, Done: done}
	if count > 0 {
		resp.HeartbeatMs = c.board.ttl.Milliseconds() / 3
		if resp.HeartbeatMs < 50 {
			resp.HeartbeatMs = 50
		}
	} else if !done {
		resp.RetryMs = 250
	}
	writeJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	ok := c.board.Heartbeat(req.LeaseID)
	writeJSON(w, http.StatusOK, HeartbeatResponse{OK: ok, Revoked: !ok})
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.Record == nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "completion without record"})
		return
	}
	if err := c.board.Complete(req.LeaseID, req.Index, req.Record); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, CompleteResponse{OK: true, Done: c.board.AllDone()})
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.board.Status())
}

// post sends one JSON request with bounded retries, decoding the response
// into out. Only transport errors (the request may never have reached the
// server) back off and retry; both the backoff sleep and the in-flight
// request abort promptly when ctx is cancelled. Everything that arrives as
// an HTTP response is terminal: HTTP-level errors are protocol outcomes,
// not flakiness (a 409 is returned as ErrRejected), and a malformed 200
// body means the server already handled the request — re-POSTing it would
// duplicate side effects (for /complete, a duplicate completion masked
// only by the board's first-wins rule), so decode errors never retry.
func post(ctx context.Context, client *http.Client, url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(time.Duration(attempt) * 200 * time.Millisecond):
			}
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			lastErr = err
			continue
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			var eb errorBody
			json.NewDecoder(resp.Body).Decode(&eb)
			if resp.StatusCode == http.StatusConflict {
				return fmt.Errorf("%w: %s", ErrRejected, eb.Error)
			}
			return fmt.Errorf("%s: HTTP %d: %s", url, resp.StatusCode, eb.Error)
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return fmt.Errorf("%s: decoding response: %w", url, err)
		}
		return nil
	}
	return lastErr
}
