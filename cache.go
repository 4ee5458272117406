package logtmse

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"logtmse/internal/core"
	"logtmse/internal/memo"
)

// ResultCache memoizes simulation-cell results by fingerprint: in
// memory with single-flight dedup, and optionally on disk so repeated
// invocations are incremental. See internal/memo for the storage
// semantics (atomic writes, corruption-tolerant reads, size-capped
// eviction, non-fatal failures).
type ResultCache = memo.Cache

// DefaultCacheMaxBytes caps a disk-backed result cache at 1 GiB unless
// the caller chooses otherwise; a full figure4 sweep's cells encode to
// a few kilobytes each, so the cap is effectively "never in CI, only
// under unattended accumulation".
const DefaultCacheMaxBytes = 1 << 30

// NewResultCache returns a result cache. dir "" keeps it in-memory
// (single-flight dedup within one process); otherwise results persist
// under dir, evicted oldest-first past maxBytes (<= 0 applies
// DefaultCacheMaxBytes).
func NewResultCache(dir string, maxBytes int64) *ResultCache {
	if maxBytes <= 0 {
		maxBytes = DefaultCacheMaxBytes
	}
	return memo.New(dir, maxBytes)
}

// CacheSummary formats the one-line report the sweep commands print to
// standard error after a cached run (standard output stays
// byte-identical with and without caching; see the CI job).
func CacheSummary(c *ResultCache) string {
	s := c.Stats()
	return fmt.Sprintf("cache: %d hits (%d from disk), %d misses, %d evictions, %d errors",
		s.Hits, s.DiskHits, s.Misses, s.Evictions, s.Errors)
}

// encodeResult serializes one cell result for the cache. gob covers
// every exported RunResult field — including check failures and fault
// counters — and decodes to a DeepEqual-identical value (pinned by
// TestResultCodecRoundTrip).
func encodeResult(r RunResult) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(r); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeResult(payload []byte) (RunResult, error) {
	var r RunResult
	err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&r)
	return r, err
}

// poolableCell reports whether a cell may run on a pooled machine:
// nothing attached beyond the machine itself. Observers are excluded
// because pooled systems are only reset, not re-observed; oracles and
// fault injection are excluded conservatively — they attach extra state
// whose reset path is not worth auditing for a pure performance
// optimization (such cells simply construct cold, exactly as before).
func poolableCell(rc RunConfig) bool {
	return Cacheable(rc) && !rc.Checks.Any() && !rc.Fault.Active()
}

// poolingOff disables pooled-System reuse globally (see SetSystemPooling).
var poolingOff atomic.Bool

// SetSystemPooling enables or disables pooled-System reuse and reports
// the previous setting. Pooling is on by default and byte-identical to
// cold construction (pinned by TestPooledResetIdentity); the switch
// exists for benchmarks and tests that want to measure or pin the cold
// path specifically.
func SetSystemPooling(enabled bool) (prev bool) {
	return !poolingOff.Swap(!enabled)
}

// systemPool recycles fully constructed machines between cells. Keyed
// by the machine configuration (Params with the seed zeroed), so a cell
// only ever reuses a machine built for exactly its configuration; the
// per-key free list is capped so an eclectic sweep cannot hoard
// machines. A pooled machine is Reset(seed) on checkout, which refuses
// machines with live threads — those never enter the pool, but the
// checkout-time check makes reuse safe even if a future caller pools
// carelessly.
type systemPool struct {
	mu   sync.Mutex
	free map[core.Params][]*core.System
}

var sysPool = systemPool{free: make(map[core.Params][]*core.System)}

func poolKey(p core.Params) core.Params {
	p.Seed = 0
	return p
}

func (sp *systemPool) get(p core.Params, seed int64) *core.System {
	if poolingOff.Load() {
		return nil
	}
	key := poolKey(p)
	sp.mu.Lock()
	list := sp.free[key]
	var sys *core.System
	if n := len(list); n > 0 {
		sys = list[n-1]
		list[n-1] = nil
		sp.free[key] = list[:n-1]
	}
	sp.mu.Unlock()
	if sys == nil {
		return nil
	}
	if err := sys.Reset(seed); err != nil {
		// A machine with a live thread is unusable; drop it.
		return nil
	}
	return sys
}

func (sp *systemPool) put(sys *core.System) {
	if poolingOff.Load() || !sys.AllDone() {
		return
	}
	key := poolKey(sys.P)
	limit := 2 * runtime.GOMAXPROCS(0)
	sp.mu.Lock()
	if len(sp.free[key]) < limit {
		sp.free[key] = append(sp.free[key], sys)
	}
	sp.mu.Unlock()
}

// drainSystemPool empties the pool (tests: guarantee the next cell
// constructs cold, or that a specific machine is reused).
func drainSystemPool() {
	sysPool.mu.Lock()
	sysPool.free = make(map[core.Params][]*core.System)
	sysPool.mu.Unlock()
}
