// Package memo provides the content-addressed result cache behind the
// harness's -cache/-cache-dir flags: an in-memory map from cell
// fingerprints to encoded results, with single-flight deduplication
// (concurrent sweep workers asking for the same fingerprint simulate it
// once and share the result) and an optional on-disk tier that makes
// repeated reproduce/CI invocations incremental across processes.
//
// The disk tier is strictly best-effort: writes are crash-safe (full
// content to a temp file, fsync, then rename, so a torn write can never
// be taken for an entry), reads are corruption-tolerant (a checksummed
// payload that fails to validate — truncated, bit-flipped, or
// wrong-magic — is deleted and treated as a miss), the directory is
// size-capped with oldest-first eviction, and every I/O failure is
// non-fatal — one warning line, an error counter, and the caller
// recomputes. Correctness never depends on the cache: a stored payload
// is only ever a replay of a deterministic computation keyed by a
// fingerprint that covers every behavior-relevant input.
//
// Because each cell is written to disk the moment it completes, the
// disk tier is also the campaigns' crash resume: a sweep interrupted
// part-way (SIGINT, a kill, a crash) and re-run with the same directory
// recomputes only the cells that never reached disk.
package memo

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// magic prefixes every cache file; bump it if the file format changes.
// (The payload schema itself is covered by the caller's fingerprint
// schema version, which is part of the key, not the file format.)
var magic = [4]byte{'L', 'T', 'M', '1'}

// Stats are the cache's monotonic counters. Hits counts in-memory and
// single-flight hits; DiskHits counts payloads served from the disk
// tier; Misses counts computations actually run; Evictions counts
// size-cap deletions; Errors counts non-fatal disk failures.
type Stats struct {
	Hits      uint64
	DiskHits  uint64
	Misses    uint64
	Evictions uint64
	Errors    uint64
}

// call is one in-flight computation other waiters block on.
type call struct {
	done chan struct{}
	val  []byte
	err  error
}

// Cache is a content-addressed result cache. Construct with New; the
// zero value is not usable. All methods are safe for concurrent use.
type Cache struct {
	dir      string // "" = in-memory only
	maxBytes int64  // disk cap; <= 0 = unlimited

	mu       sync.Mutex
	mem      map[string][]byte
	inflight map[string]*call

	hits      atomic.Uint64
	diskHits  atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
	errors    atomic.Uint64

	warnOnce sync.Once
	// Warnf receives the one-line warning on the first disk failure
	// (default: standard error). Replaceable for tests.
	Warnf func(format string, args ...interface{})
}

// New returns a cache. dir "" keeps the cache purely in-memory;
// otherwise dir is created on demand and holds one checksummed file per
// key, evicted oldest-first once the directory exceeds maxBytes
// (<= 0 disables the cap).
func New(dir string, maxBytes int64) *Cache {
	return &Cache{
		dir:      dir,
		maxBytes: maxBytes,
		mem:      make(map[string][]byte),
		inflight: make(map[string]*call),
	}
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		DiskHits:  c.diskHits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Errors:    c.errors.Load(),
	}
}

// warn reports a disk failure: counted always, logged once (the first
// failure explains the mode; repeating it per cell would drown a sweep).
func (c *Cache) warn(op string, err error) {
	c.errors.Add(1)
	c.warnOnce.Do(func() {
		f := c.Warnf
		if f == nil {
			f = func(format string, args ...interface{}) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			}
		}
		f("memo: disk cache disabled-for-entry (%s): %v (results are recomputed; further failures counted silently)", op, err)
	})
}

// Do returns the payload for key, computing it at most once per process
// (and at most once across processes when the disk tier already holds
// it). hit reports whether the payload came from the cache rather than
// this call's fn. A failing fn is never stored, in memory or on disk.
func (c *Cache) Do(key string, fn func() ([]byte, error)) (payload []byte, hit bool, err error) {
	c.mu.Lock()
	if v, ok := c.mem[key]; ok {
		c.mu.Unlock()
		c.hits.Add(1)
		return v, true, nil
	}
	if cl, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		<-cl.done
		if cl.err == nil {
			c.hits.Add(1)
			return cl.val, true, nil
		}
		return nil, false, cl.err
	}
	cl := &call{done: make(chan struct{})}
	c.inflight[key] = cl
	c.mu.Unlock()

	defer func() {
		cl.val, cl.err = payload, err
		c.mu.Lock()
		if err == nil {
			c.mem[key] = payload
		}
		delete(c.inflight, key)
		c.mu.Unlock()
		close(cl.done)
	}()

	if v, ok := c.readDisk(key); ok {
		c.diskHits.Add(1)
		return v, true, nil
	}
	c.misses.Add(1)
	payload, err = fn()
	if err != nil {
		return nil, false, err
	}
	c.writeDisk(key, payload)
	return payload, false, nil
}

// Get returns the payload for key if cached (memory, then disk),
// without computing anything.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	v, ok := c.mem[key]
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
		return v, true
	}
	if v, ok := c.readDisk(key); ok {
		c.diskHits.Add(1)
		c.mu.Lock()
		c.mem[key] = v
		c.mu.Unlock()
		return v, true
	}
	return nil, false
}

// Put stores a payload under key in memory and, when configured, on
// disk.
func (c *Cache) Put(key string, payload []byte) {
	c.mu.Lock()
	c.mem[key] = payload
	c.mu.Unlock()
	c.writeDisk(key, payload)
}

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".cell")
}

// readDisk loads and validates one cache file. Any failure — missing,
// truncated, corrupt — is a miss; a present-but-invalid file is deleted
// so it cannot fail again.
func (c *Cache) readDisk(key string) ([]byte, bool) {
	if c.dir == "" {
		return nil, false
	}
	buf, err := os.ReadFile(c.path(key))
	if err != nil {
		if !os.IsNotExist(err) {
			c.warn("read", err)
		}
		return nil, false
	}
	if len(buf) < 8 || [4]byte(buf[:4]) != magic {
		c.corrupt(key)
		return nil, false
	}
	sum := uint32(buf[4])<<24 | uint32(buf[5])<<16 | uint32(buf[6])<<8 | uint32(buf[7])
	payload := buf[8:]
	if crc32.ChecksumIEEE(payload) != sum {
		c.corrupt(key)
		return nil, false
	}
	return payload, true
}

func (c *Cache) corrupt(key string) {
	c.warn("validate", fmt.Errorf("corrupt cache entry %s", key))
	os.Remove(c.path(key))
}

// writeDisk stores one cache file crash-safely: full content to a
// temporary file in the same directory, fsync, then rename — so a
// crash at any point leaves either the complete entry or no entry,
// never a torn one (and a torn rename target still fails the CRC and
// reads as a miss). Failures are non-fatal.
func (c *Cache) writeDisk(key string, payload []byte) {
	if c.dir == "" {
		return
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		c.warn("mkdir", err)
		return
	}
	tmp, err := os.CreateTemp(c.dir, "tmp-*.cell")
	if err != nil {
		c.warn("create", err)
		return
	}
	sum := crc32.ChecksumIEEE(payload)
	hdr := []byte{magic[0], magic[1], magic[2], magic[3],
		byte(sum >> 24), byte(sum >> 16), byte(sum >> 8), byte(sum)}
	_, err = tmp.Write(hdr)
	if err == nil {
		_, err = tmp.Write(payload)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), c.path(key))
	}
	if err != nil {
		os.Remove(tmp.Name())
		c.warn("write", err)
		return
	}
	c.evict()
}

// evict enforces the size cap: while the directory's cache files exceed
// maxBytes, the oldest (by modification time, then name, so the order
// is stable) are removed.
func (c *Cache) evict() {
	if c.maxBytes <= 0 {
		return
	}
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		c.warn("evict-scan", err)
		return
	}
	type file struct {
		name  string
		size  int64
		mtime int64
	}
	var files []file
	var total int64
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".cell" {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, file{e.Name(), info.Size(), info.ModTime().UnixNano()})
		total += info.Size()
	}
	if total <= c.maxBytes {
		return
	}
	sort.Slice(files, func(i, j int) bool {
		if files[i].mtime != files[j].mtime {
			return files[i].mtime < files[j].mtime
		}
		return files[i].name < files[j].name
	})
	for _, f := range files {
		if total <= c.maxBytes {
			break
		}
		if err := os.Remove(filepath.Join(c.dir, f.name)); err != nil {
			c.warn("evict", err)
			continue
		}
		total -= f.size
		c.evictions.Add(1)
	}
}
