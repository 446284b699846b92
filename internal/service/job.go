// Package service turns the one-shot repair pipeline into a long-running
// repair-as-a-service daemon: a durable job queue with admission control, a
// bounded worker pool, per-job deadlines and panic isolation, a multi-tenant
// shared analysis cache, and graceful drain. cmd/repaird is the HTTP front
// end; the package itself is transport-agnostic and fully testable
// in-process.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"specrepair/internal/alloy/ast"
	"specrepair/internal/alloy/parser"
	"specrepair/internal/alloy/printer"
	"specrepair/internal/alloy/types"
	"specrepair/internal/aunit"
	"specrepair/internal/repair"
)

// State is a job's position in its lifecycle. Queued and running jobs are
// volatile (a restarted daemon re-queues them from the journal); done and
// failed are terminal and journaled.
type State string

const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	// StateDone means the technique ran to completion. The job may still not
	// have produced a repair — Repaired distinguishes "searched and found"
	// from "searched and exhausted".
	StateDone State = "done"
	// StateFailed means the job terminated abnormally: technique error,
	// deadline exceeded, or a recovered panic.
	StateFailed State = "failed"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == StateDone || s == StateFailed }

// Submission is one repair request: a faulty Alloy spec, an optional AUnit
// test suite, and the technique to run. The zero Seed means "the service
// default"; TimeoutMs, when positive, tightens (never loosens) the service's
// per-job deadline.
type Submission struct {
	Spec      string        `json:"spec"`
	Tests     []*aunit.Test `json:"tests,omitempty"`
	Technique string        `json:"technique"`
	Seed      int64         `json:"seed,omitempty"`
	TimeoutMs int64         `json:"timeout_ms,omitempty"`
}

// key content-addresses a submission the same way anacache addresses
// analysis results: the SHA-256 of the *printed* parsed module (so
// whitespace and comment differences collapse) plus everything else that
// can change the outcome — technique, seed, tests, and the effective
// deadline. Identical submissions from different tenants therefore map to
// the same job, and the job ID is a stable prefix of the key.
func (s Submission) key(canonical string) string {
	h := sha256.New()
	io.WriteString(h, canonical)
	h.Write([]byte{0})
	io.WriteString(h, s.Technique)
	fmt.Fprintf(h, "\x00%d\x00%d\x00", s.Seed, s.TimeoutMs)
	if len(s.Tests) > 0 {
		tests, _ := json.Marshal(s.Tests)
		h.Write(tests)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// parse validates the submission's spec and returns the module plus its
// canonical printed form.
func (s Submission) parse() (*ast.Module, string, error) {
	mod, err := parser.Parse(s.Spec)
	if err != nil {
		return nil, "", fmt.Errorf("parsing spec: %w", err)
	}
	return mod, printer.Module(mod), nil
}

// checkTests reports every malformed tuple in the tests' valuations: an
// empty tuple, a relation whose tuples differ in length, and a tuple whose
// length is not the arity of the sig or field of mod that it names. Such a
// valuation would make the job's technique fail on every run, restarts
// included, since the submission is journaled. When mod type-checks, it
// also reports every relation, primed or not, that names no sig or field
// of mod.
func (s Submission) checkTests(mod *ast.Module) error {
	if len(s.Tests) == 0 {
		return nil
	}
	// A module that does not check still yields the sigs and fields it
	// resolved; a relation without a known arity gets the shape checks only.
	info, err := types.Check(mod)
	arity := func(name string) (int, bool) {
		name = strings.TrimSuffix(name, "'")
		if _, ok := info.Sigs[name]; ok {
			return 1, true
		}
		if f, ok := info.Fields[name]; ok {
			return f.Arity, true
		}
		return 0, false
	}
	var problems []string
	for i, t := range s.Tests {
		names := make([]string, 0, len(t.Valuation))
		for name := range t.Valuation {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			tuples := t.Valuation[name]
			want, known := arity(name)
			if !known && err == nil {
				problems = append(problems, fmt.Sprintf("test %d: %s names no sig or field", i, name))
			}
			shape := fmt.Sprintf("%s has arity %d", name, want)
			for k := 0; !known && k < len(tuples); k++ {
				if n := len(tuples[k]); n > 0 {
					want, known = n, true
					shape = fmt.Sprintf("tuple %d has %d", k, n)
				}
			}
			for j, tu := range tuples {
				switch {
				case len(tu) == 0:
					problems = append(problems, fmt.Sprintf("test %d: %s tuple %d is empty", i, name, j))
				case len(tu) != want:
					problems = append(problems, fmt.Sprintf("test %d: %s tuple %d has %d atoms, but %s", i, name, j, len(tu), shape))
				}
			}
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("invalid test valuations: %s", strings.Join(problems, "; "))
	}
	return nil
}

// runTests runs every test once against mod and reports each one that
// cannot run: its formula does not parse or does not evaluate over the spec,
// say by naming a relation the spec lacks or taking the closure of a set. A
// technique would fail on such a test on every run. A spec that
// does not lower is left to the technique, since no test can run against it.
func (s Submission) runTests(mod *ast.Module) error {
	if len(s.Tests) == 0 {
		return nil
	}
	model := aunit.Prepare(mod)
	if model.Err() != nil {
		return nil
	}
	results, _ := model.RunAll(s.suite())
	var problems []string
	for i, r := range results {
		if r.Err != nil {
			problems = append(problems, fmt.Sprintf("test %d: %v", i, r.Err))
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("tests cannot run: %s", strings.Join(problems, "; "))
	}
	return nil
}

// suite materializes the submission's tests (nil when none were supplied).
func (s Submission) suite() *aunit.Suite {
	if len(s.Tests) == 0 {
		return nil
	}
	return &aunit.Suite{Tests: s.Tests}
}

// Job is one admitted submission and everything the service knows about it.
// Mutable fields are guarded by the owning Service's mutex; handlers read
// them through Snapshot.
type Job struct {
	ID         string
	Key        string
	Submission Submission

	state    State
	repaired bool
	result   string // printed repaired module
	errMsg   string
	stats    repair.Stats

	created  time.Time
	started  time.Time
	finished time.Time

	// seq orders jobs by admission for queue-position reporting and
	// deterministic resume ordering.
	seq int64
	// mod is the parsed faulty module, cached at admission (re-parsed from
	// the journal on resume).
	mod *ast.Module
	// done is closed when the job reaches a terminal state.
	done chan struct{}
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Snapshot is the wire representation of a job's state.
type Snapshot struct {
	ID        string `json:"id"`
	State     State  `json:"state"`
	Technique string `json:"technique"`
	Seed      int64  `json:"seed"`
	// QueuePosition is the number of jobs ahead of this one (0 when running
	// or terminal).
	QueuePosition int          `json:"queue_position,omitempty"`
	Repaired      bool         `json:"repaired"`
	Error         string       `json:"error,omitempty"`
	Stats         repair.Stats `json:"stats"`
	CreatedAt     time.Time    `json:"created_at"`
	StartedAt     *time.Time   `json:"started_at,omitempty"`
	FinishedAt    *time.Time   `json:"finished_at,omitempty"`
}
