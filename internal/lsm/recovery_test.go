package lsm

// Crash-recovery suite: a store killed at any stage of a compaction (via the
// CompactHook), or before ever flushing its delta, must reopen into a state
// that answers exactly like an uninterrupted twin — and WAL replay must be
// idempotent, so re-applying a duplicated log suffix changes nothing.

import (
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"simsearch/internal/core"
)

// script applies a deterministic op sequence: inserts, deletes, and periodic
// flushes so several segments exist by the end.
func script(t *testing.T, st *Store, universe []string) {
	t.Helper()
	for i, s := range universe {
		if _, _, err := st.Insert(s); err != nil {
			t.Fatalf("Insert(%q): %v", s, err)
		}
		if i%3 == 0 {
			if _, err := st.Delete(universe[i/2]); err != nil {
				t.Fatalf("Delete: %v", err)
			}
		}
		if i%10 == 9 {
			if err := st.Flush(); err != nil {
				t.Fatalf("Flush: %v", err)
			}
		}
	}
}

// twinModel replays the same script against the pure model.
func twinModel(universe []string) *model {
	m := newModel(nil)
	for i, s := range universe {
		m.insert(s)
		if i%3 == 0 {
			m.delete(universe[i/2])
		}
	}
	return m
}

func TestCrashMidCompactionRecovers(t *testing.T) {
	universe := take(t, dedupe(append(cityUniverse(150), dnaUniverse(30, 8)...)), 100)
	stages := []string{"merged", "written", "renamed", "removed-first"}
	for _, stage := range stages {
		t.Run(stage, func(t *testing.T) {
			dir := t.TempDir()
			var arm atomic.Bool
			st, err := Open(Options{
				Dir:         dir,
				FlushLimit:  1 << 20,
				maxSegments: 100, // no background interference: the crash is scripted
				compactHook: func(s string) bool {
					return !(arm.Load() && s == stage)
				},
			})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			script(t, st, universe)
			arm.Store(true)
			if err := st.Compact(); err != nil {
				t.Fatalf("Compact: %v", err)
			}
			// The abandoned compaction left disk mid-transition; drop
			// the process state on the floor.
			if err := st.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			re, err := Open(Options{Dir: dir})
			if err != nil {
				t.Fatalf("reopen after crash at %q: %v", stage, err)
			}
			defer re.Close()
			m := twinModel(universe)
			checkDict(t, re, m)
			// k = 0 and 1 are where a signature word rejects the most: a
			// checkpoint whose words did not follow its strings into their
			// new slots loses matches here first.
			for k := 0; k <= 2; k++ {
				checkAll(t, re, m, universe[:40], k)
			}
		})
	}
}

func TestUnflushedDeltaRecoversFromWAL(t *testing.T) {
	universe := take(t, dedupe(cityUniverse(80)), 50)
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir, FlushLimit: 1 << 20})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	// No flush ever happens: everything lives in the delta + WAL.
	for _, s := range universe {
		st.Insert(s)
	}
	st.Delete(universe[3])
	st.Delete(universe[7])
	if got := st.Stats().Segments; got != 0 {
		t.Fatalf("pre-crash segments: %d, want 0", got)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	re, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	m := newModel(universe)
	m.delete(universe[3])
	m.delete(universe[7])
	checkDict(t, re, m)
	checkAll(t, re, m, universe, 2)
}

func TestWALReplayIdempotent(t *testing.T) {
	universe := take(t, dedupe(cityUniverse(60)), 40)
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir, FlushLimit: 1 << 20})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for _, s := range universe {
		st.Insert(s)
	}
	st.Delete(universe[5])
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Duplicate the WAL payload after the header, simulating a log whose
	// suffix gets replayed twice.
	walPath := filepath.Join(dir, walName)
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatalf("read WAL: %v", err)
	}
	if len(raw) <= len(walMagic) {
		t.Fatalf("WAL unexpectedly empty (%d bytes)", len(raw))
	}
	dup := append(append([]byte{}, raw...), raw[len(walMagic):]...)
	if err := os.WriteFile(walPath, dup, 0o644); err != nil {
		t.Fatalf("write duplicated WAL: %v", err)
	}

	re, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen with duplicated WAL: %v", err)
	}
	defer re.Close()
	m := newModel(universe)
	m.delete(universe[5])
	checkDict(t, re, m)
	checkAll(t, re, m, universe, 2)
}

func TestTornWALTailRecovers(t *testing.T) {
	universe := take(t, dedupe(cityUniverse(60)), 30)
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir, FlushLimit: 1 << 20})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for _, s := range universe {
		st.Insert(s)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Chop the last record in half: a crash mid-append. Recovery keeps
	// every complete record and drops the torn tail.
	walPath := filepath.Join(dir, walName)
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatalf("read WAL: %v", err)
	}
	if err := os.WriteFile(walPath, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatalf("truncate WAL: %v", err)
	}

	re, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen with torn WAL: %v", err)
	}
	defer re.Close()
	// The final insert is lost (it never fully reached the log); all
	// prior ones survive.
	m := newModel(universe[:len(universe)-1])
	checkDict(t, re, m)
	checkAll(t, re, m, universe, 2)
}

func TestRecoveryCheckpointsToSingleSegment(t *testing.T) {
	universe := take(t, dedupe(cityUniverse(80)), 50)
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir, FlushLimit: 5, maxSegments: 100})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for _, s := range universe {
		st.Insert(s)
	}
	pre := st.Stats()
	if pre.Segments < 2 {
		t.Fatalf("want several segments before reopen, got %d", pre.Segments)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	re, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if got := re.Stats().Segments; got != 1 {
		t.Fatalf("segments after recovery checkpoint: %d, want 1", got)
	}
	// Exactly one segment file and a header-only WAL remain on disk.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	segFiles := 0
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".seg" {
			segFiles++
		}
	}
	if segFiles != 1 {
		t.Fatalf("segment files after checkpoint: %d, want 1", segFiles)
	}
	m := newModel(universe)
	checkDict(t, re, m)
	checkSearch(t, re, m, core.Query{Text: universe[0], K: 2})
}
