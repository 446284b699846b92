package core

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

type journalRec struct {
	N int `json:"n"`
}

// loadJournal opens the journal at path, collecting the N of every replayed
// record.
func loadJournal(t *testing.T, path string) (*Journal, []int) {
	t.Helper()
	var ns []int
	j, err := OpenJournal(path, func(line []byte) error {
		var r journalRec
		if err := json.Unmarshal(line, &r); err != nil {
			return err
		}
		ns = append(ns, r.N)
		return nil
	})
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	return j, ns
}

// TestOpenJournalTruncatesTornTail covers the full crash-mid-append
// sequence: a torn final line must not only be dropped on load, it must be
// removed from the file — otherwise the next Append concatenates onto the
// torn tail and the *following* load fails on the merged malformed line,
// permanently refusing the journal that experienced exactly the crash the
// design claims to tolerate.
func TestOpenJournalTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	if err := os.WriteFile(path, []byte("{\"n\":1}\n{\"n\":2"), 0o644); err != nil {
		t.Fatal(err)
	}

	j, ns := loadJournal(t, path)
	if len(ns) != 1 || ns[0] != 1 {
		t.Fatalf("first load replayed %v, want [1]", ns)
	}
	if err := j.Append(journalRec{N: 3}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// The restart after the crash: torn record 2 is gone, and appended
	// record 3 loads cleanly instead of fusing with its remains.
	j2, ns2 := loadJournal(t, path)
	defer j2.Close()
	if len(ns2) != 2 || ns2[0] != 1 || ns2[1] != 3 {
		t.Fatalf("reload replayed %v, want [1 3]", ns2)
	}
}

// TestOpenJournalKeepsCompleteFile ensures the truncation path does not fire
// on a cleanly-closed journal.
func TestOpenJournalKeepsCompleteFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	if err := os.WriteFile(path, []byte("{\"n\":1}\n{\"n\":2}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	j, ns := loadJournal(t, path)
	defer j.Close()
	if len(ns) != 2 || ns[0] != 1 || ns[1] != 2 {
		t.Fatalf("replayed %v, want [1 2]", ns)
	}
}

// FuzzJournal writes arbitrary bytes as a journal file — the state a crash,
// a full disk or a stray editor can leave behind — and checks the recovery
// contract: opening never panics, and a journal that opened once keeps
// working. After one append and a reopen, the replay is exactly the first
// replay's lines plus the new record, and the file is the original's
// complete lines followed by that record (a torn tail is cut, never fused).
func FuzzJournal(f *testing.F) {
	f.Add([]byte("{\"n\":1}\n{\"n\":2}\n"))         // valid journal
	f.Add([]byte("{\"n\":1}\n{\"n\":2"))            // torn tail
	f.Add([]byte(""))                               // empty file
	f.Add([]byte("{\"n\":1}"))                      // no trailing newline
	f.Add([]byte("\n\n{\"n\":1}\n\nnot json\n{\"")) // blank lines and junk
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "j.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		open := func() (*Journal, []string, error) {
			var lines []string
			j, err := OpenJournal(path, func(line []byte) error {
				lines = append(lines, string(line))
				return nil
			})
			return j, lines, err
		}
		j, first, err := open()
		if err != nil {
			return // an I/O failure, not a verdict on the bytes
		}
		if err := j.Append(journalRec{N: 7}); err != nil {
			t.Fatalf("append: %v", err)
		}
		if err := j.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		j2, second, err := open()
		if err != nil {
			t.Fatalf("reopening a journal that opened once: %v", err)
		}
		defer j2.Close()
		const record = `{"n":7}`
		want := append(append([]string(nil), first...), record)
		if len(second) != len(want) {
			t.Fatalf("reopen replayed %q, want %q", second, want)
		}
		for i := range want {
			if second[i] != want[i] {
				t.Fatalf("reopen replayed %q, want %q", second, want)
			}
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		complete := data[:bytes.LastIndexByte(data, '\n')+1]
		if wantFile := string(complete) + record + "\n"; string(got) != wantFile {
			t.Fatalf("journal file %q, want %q", got, wantFile)
		}
	})
}
