package shard

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"specrepair/internal/core"
)

// fuzzEndpoints maps an input line's leading byte to the endpoint its body
// is posted to.
var fuzzEndpoints = map[byte]string{'l': "/shard/lease", 'h': "/shard/heartbeat", 'c': "/shard/complete"}

const fuzzDigest = "digest"

// newFuzzCoordinator returns a coordinator over a five-job board whose
// clock the caller advances.
func newFuzzCoordinator(clk *fakeClock) (*Coordinator, http.Handler) {
	board := NewBoard(testJobs(5), BoardOptions{
		ChunkSize: 2, TTL: 10 * time.Second, Journal: core.NewMemoryCheckpoint(), Now: clk.now,
	})
	c := &Coordinator{board: board, digest: fuzzDigest}
	return c, c.handler()
}

// fuzzPost posts one body and returns the response.
func fuzzPost(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// leaseRound runs one worker through the whole study on a fresh
// coordinator (lease, heartbeat, complete every job of the lease, until the
// study is done) and returns the messages it posted, one a line, each led
// by its endpoint's byte.
func leaseRound(t testing.TB) []byte {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	_, h := newFuzzCoordinator(clk)
	var msgs bytes.Buffer
	post := func(endpoint byte, in, out any) {
		body, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		msgs.WriteByte(endpoint)
		msgs.Write(body)
		msgs.WriteByte('\n')
		rec := fuzzPost(h, fuzzEndpoints[endpoint], body)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", fuzzEndpoints[endpoint], rec.Code, rec.Body)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatal(err)
		}
	}
	jobs := testJobs(5)
	for {
		var lr LeaseResponse
		post('l', LeaseRequest{Worker: "w", Digest: fuzzDigest}, &lr)
		if lr.Done {
			return msgs.Bytes()
		}
		post('h', HeartbeatRequest{Worker: "w", LeaseID: lr.LeaseID}, &HeartbeatResponse{})
		for i := lr.Start; i < lr.Start+lr.Count; i++ {
			post('c', CompleteRequest{Worker: "w", LeaseID: lr.LeaseID, Index: i, Record: recordFor(jobs[i], 1)}, &CompleteResponse{})
		}
	}
}

// FuzzLeaseMessages posts arbitrary lease, heartbeat and completion bodies
// to one coordinator over a small board. An input is a sequence of
// messages, one a line, each led by the byte naming its endpoint ('l', 'h'
// or 'c'). Every message advances the board's clock by half the lease TTL,
// so leases expire and ranges are stolen unless heartbeats keep them.
// Every answer must be 200 or a client error, and after every message the
// board must count each job exactly once (Done+Pending+Leased == Total),
// with Done never falling.
func FuzzLeaseMessages(f *testing.F) {
	round := leaseRound(f)
	f.Add(round)
	for _, line := range bytes.SplitAfter(round, []byte("\n")) {
		f.Add(line)
	}
	f.Add([]byte("c{\"lease_id\":1,\"index\":-1,\"record\":{}}\nl{\"digest\":\"other\"}\nh{}\n"))
	f.Fuzz(func(t *testing.T, input []byte) {
		clk := &fakeClock{t: time.Unix(1000, 0)}
		c, h := newFuzzCoordinator(clk)
		done := 0
		for n, line := range bytes.Split(input, []byte("\n")) {
			if n == 64 {
				break
			}
			if len(line) == 0 || fuzzEndpoints[line[0]] == "" {
				continue
			}
			clk.advance(5 * time.Second)
			rec := fuzzPost(h, fuzzEndpoints[line[0]], line[1:])
			if rec.Code != http.StatusOK && (rec.Code < 400 || rec.Code >= 500) {
				t.Fatalf("message %d %q: HTTP %d: %s", n, line, rec.Code, rec.Body)
			}
			st := c.board.Status()
			if st.Done+st.Pending+st.Leased != st.Total {
				t.Fatalf("message %d %q: board counts done %d + pending %d + leased %d of %d jobs",
					n, line, st.Done, st.Pending, st.Leased, st.Total)
			}
			if st.Done < done {
				t.Fatalf("message %d %q: done fell from %d to %d", n, line, done, st.Done)
			}
			done = st.Done
		}
	})
}
