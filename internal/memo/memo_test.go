package memo

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestDoMemoizesInProcess(t *testing.T) {
	c := New("", 0)
	calls := 0
	for i := 0; i < 3; i++ {
		v, hit, err := c.Do("k", func() ([]byte, error) {
			calls++
			return []byte("payload"), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if string(v) != "payload" {
			t.Fatalf("payload = %q", v)
		}
		if hit != (i > 0) {
			t.Fatalf("call %d: hit = %v", i, hit)
		}
	}
	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 1 {
		t.Fatalf("stats = %+v, want 2 hits / 1 miss", s)
	}
}

// TestSingleFlight: concurrent requests for one key run the computation
// exactly once and all receive its result.
func TestSingleFlight(t *testing.T) {
	c := New("", 0)
	var calls atomic.Int32
	release := make(chan struct{})
	const waiters = 16
	var wg sync.WaitGroup
	results := make([][]byte, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.Do("k", func() ([]byte, error) {
				calls.Add(1)
				<-release // hold the flight open until all waiters queued
				return []byte("once"), nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	// Let the goroutines pile onto the in-flight call, then release it.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("computation ran %d times, want 1", n)
	}
	for i, v := range results {
		if string(v) != "once" {
			t.Fatalf("waiter %d got %q", i, v)
		}
	}
}

// TestErrorsAreNotCached: a failing computation propagates to its
// waiters but the next request retries.
func TestErrorsAreNotCached(t *testing.T) {
	c := New("", 0)
	boom := fmt.Errorf("boom")
	if _, _, err := c.Do("k", func() ([]byte, error) { return nil, boom }); err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	v, hit, err := c.Do("k", func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || hit || string(v) != "ok" {
		t.Fatalf("retry: v=%q hit=%v err=%v", v, hit, err)
	}
}

func TestDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	first := New(dir, 0)
	want := []byte("cell-result")
	if _, _, err := first.Do("abc", func() ([]byte, error) { return want, nil }); err != nil {
		t.Fatal(err)
	}
	// A fresh Cache (a new process, in effect) must serve from disk.
	second := New(dir, 0)
	v, hit, err := second.Do("abc", func() ([]byte, error) {
		t.Fatal("computation ran despite disk entry")
		return nil, nil
	})
	if err != nil || !hit || !bytes.Equal(v, want) {
		t.Fatalf("disk hit: v=%q hit=%v err=%v", v, hit, err)
	}
	if s := second.Stats(); s.DiskHits != 1 {
		t.Fatalf("stats = %+v, want 1 disk hit", s)
	}
}

// TestCorruptEntryIsAMiss: truncated or bit-flipped cache files are
// deleted and recomputed, never returned.
func TestCorruptEntryIsAMiss(t *testing.T) {
	for name, corrupt := range map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)/2] },
		"bitflip":   func(b []byte) []byte { b[len(b)-1] ^= 0x40; return b },
		"badmagic":  func(b []byte) []byte { b[0] = 'X'; return b },
		"tiny":      func([]byte) []byte { return []byte{1, 2, 3} },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			w := New(dir, 0)
			w.Warnf = func(string, ...interface{}) {}
			if _, _, err := w.Do("k", func() ([]byte, error) { return []byte("good-data"), nil }); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, "k.cell")
			buf, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, corrupt(buf), 0o644); err != nil {
				t.Fatal(err)
			}
			r := New(dir, 0)
			r.Warnf = func(string, ...interface{}) {}
			v, hit, err := r.Do("k", func() ([]byte, error) { return []byte("recomputed"), nil })
			if err != nil || hit || string(v) != "recomputed" {
				t.Fatalf("corrupt entry served: v=%q hit=%v err=%v", v, hit, err)
			}
			if _, err := os.Stat(path); err == nil {
				// writeDisk replaced it with the recomputed payload — fine —
				// but it must now validate.
				chk := New(dir, 0)
				if v, ok := chk.Get("k"); !ok || string(v) != "recomputed" {
					t.Fatalf("replacement entry invalid: %q %v", v, ok)
				}
			}
		})
	}
}

// TestEviction: the oldest entries go first once the directory exceeds
// the cap, and survivors still validate.
func TestEviction(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte{7}, 100)
	// Cap at ~3 entries (payload + 8-byte header each).
	c := New(dir, 3*108)
	for i := 0; i < 6; i++ {
		c.Put(fmt.Sprintf("k%d", i), payload)
		// Distinct mtimes so "oldest" is well-defined on coarse clocks.
		past := time.Now().Add(time.Duration(i-10) * time.Second)
		os.Chtimes(filepath.Join(dir, fmt.Sprintf("k%d.cell", i)), past, past)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var left []string
	for _, e := range entries {
		left = append(left, e.Name())
	}
	if len(left) > 3 {
		t.Fatalf("eviction left %d entries: %v", len(left), left)
	}
	if s := c.Stats(); s.Evictions == 0 {
		t.Fatalf("stats = %+v, want evictions > 0", s)
	}
	// The newest entry must have survived and still validate from disk.
	fresh := New(dir, 0)
	if v, ok := fresh.Get("k5"); !ok || !bytes.Equal(v, payload) {
		t.Fatalf("newest entry evicted or corrupt (ok=%v)", ok)
	}
}

// TestDiskFailureNonFatal: an unusable cache directory degrades to
// in-memory operation — results still flow, one warning, errors counted.
func TestDiskFailureNonFatal(t *testing.T) {
	// A regular file where the directory should be: MkdirAll fails.
	blocker := filepath.Join(t.TempDir(), "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := New(blocker, 0)
	warnings := 0
	c.Warnf = func(string, ...interface{}) { warnings++ }
	for i := 0; i < 3; i++ {
		v, _, err := c.Do(fmt.Sprintf("k%d", i), func() ([]byte, error) { return []byte("v"), nil })
		if err != nil || string(v) != "v" {
			t.Fatalf("disk failure became fatal: v=%q err=%v", v, err)
		}
	}
	if warnings != 1 {
		t.Fatalf("warned %d times, want exactly 1", warnings)
	}
	if s := c.Stats(); s.Errors == 0 {
		t.Fatalf("stats = %+v, want errors > 0", s)
	}
}
