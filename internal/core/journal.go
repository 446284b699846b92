package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
)

// Journal is the append-only JSONL event log underlying every durable store
// in the system: one marshaled record per line, flushed to the operating
// system per append (no fsync), so a process crash loses at most the record
// being written. The study checkpoint and the repaird job store are both
// built on it — the checkpoint journals one record type keyed by job
// coordinates, the job store journals typed lifecycle events — and both
// inherit the same recovery contract: a truncated final line (the signature
// of a crash mid-append) is dropped on load, any other malformed content is
// an error.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	w    *bufio.Writer
	path string
}

// CreateJournal starts a fresh journal at path, refusing to overwrite an
// existing file (errors.Is(err, os.ErrExist)) — a leftover journal is either
// state to resume or stale state the operator should remove explicitly.
func CreateJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("creating journal: %w", err)
	}
	return &Journal{f: f, w: bufio.NewWriter(f), path: path}, nil
}

// OpenJournal loads an existing journal and reopens it for appending,
// feeding every complete line to replay in append order. A missing file
// starts an empty journal. A truncated final line is dropped — and truncated
// from the file before the journal reopens for append, so the next record
// does not concatenate onto the torn tail and corrupt the journal for every
// subsequent load. A replay error aborts the load, since silently skipping
// records would desynchronize the caller's state from the journal.
func OpenJournal(path string, replay func(line []byte) error) (*Journal, error) {
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("reading journal: %w", err)
	}
	consumed := 0
	rest := data
	for len(rest) > 0 {
		i := bytes.IndexByte(rest, '\n')
		if i < 0 {
			// No trailing newline: the record was cut off mid-append.
			break
		}
		line := rest[:i]
		rest = rest[i+1:]
		consumed += i + 1
		if len(line) == 0 {
			continue
		}
		if err := replay(line); err != nil {
			return nil, fmt.Errorf("corrupt journal %s: %w", path, err)
		}
	}
	if len(rest) > 0 {
		if err := os.Truncate(path, int64(consumed)); err != nil {
			return nil, fmt.Errorf("truncating torn journal tail: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("opening journal: %w", err)
	}
	return &Journal{f: f, w: bufio.NewWriter(f), path: path}, nil
}

// Path is the journal's file path.
func (j *Journal) Path() string { return j.path }

// Append marshals one record, writes it as a line, and flushes the write
// buffer to the operating system. It does not fsync: an appended record
// survives a kill of this process, but not an OS crash or power loss.
func (j *Journal) Append(v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errors.New("journal is closed")
	}
	if _, err := j.w.Write(append(line, '\n')); err != nil {
		return err
	}
	return j.w.Flush()
}

// Close flushes and closes the journal file. Further appends error.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	ferr := j.w.Flush()
	cerr := j.f.Close()
	j.f = nil
	if ferr != nil {
		return ferr
	}
	return cerr
}
