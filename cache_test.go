package logtmse

import (
	"context"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"logtmse/internal/sig"
	"logtmse/internal/workload"
)

// TestResultCodecRoundTrip: the gob payload stored in cache files must
// reproduce a RunResult exactly, including the optional oracle and
// fault-injection fields.
func TestResultCodecRoundTrip(t *testing.T) {
	r := RunResult{
		Seed:          42,
		Cycles:        123456,
		WorkUnits:     789,
		CyclesPerUnit: 156.4759,
		Stats:         Stats{Begins: 10, Commits: 9, Aborts: 1, Stalls: 3},
		CheckFailures: []CheckFailure{
			{Cycle: 500, Oracle: "shadow", TID: 3, Detail: "mismatch at 0x40"},
		},
		Faults: map[string]uint64{"net-delay": 7, "victim": 2},
	}
	buf, err := encodeResult(r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeResult(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, r)
	}
	// The common case — no failures, no faults — must round-trip to a
	// result DeepEqual to the original (nil stays nil, not empty).
	plain := RunResult{Seed: 1, Cycles: 10, Stats: Stats{Commits: 1}}
	buf, err = encodeResult(plain)
	if err != nil {
		t.Fatal(err)
	}
	got, err = decodeResult(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, plain) {
		t.Fatalf("plain round trip diverged:\n got %+v\nwant %+v", got, plain)
	}
}

// TestCachedRunIdentity is the correctness acceptance gate for the
// cache: a cold run, a memory-cache hit, and a disk-cache hit (fresh
// Cache instance, same directory) must be DeepEqual.
func TestCachedRunIdentity(t *testing.T) {
	v, _ := VariantByName("BS")
	rc := RunConfig{Workload: "BerkeleyDB", Variant: v, Scale: testScale}
	cold, err := RunOne(rc, 5)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cached := rc
	cached.Cache = NewResultCache(dir, 0)
	miss, err := RunOne(cached, 5) // populates memory + disk
	if err != nil {
		t.Fatal(err)
	}
	hit, err := RunOne(cached, 5) // memory hit
	if err != nil {
		t.Fatal(err)
	}
	fresh := rc
	fresh.Cache = NewResultCache(dir, 0)
	disk, err := RunOne(fresh, 5) // disk hit in a new Cache instance
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]RunResult{"store": miss, "memory-hit": hit, "disk-hit": disk} {
		if !reflect.DeepEqual(got, cold) {
			t.Errorf("%s result differs from cold run:\n got %+v\nwant %+v", name, got, cold)
		}
	}
	s := cached.Cache.Stats()
	if s.Misses != 1 || s.Hits != 1 {
		t.Errorf("cache stats = %+v, want 1 miss + 1 hit", s)
	}
	if s = fresh.Cache.Stats(); s.DiskHits != 1 {
		t.Errorf("fresh cache stats = %+v, want 1 disk hit", s)
	}
}

// TestFigure4CachedIdentity: the full Figure 4 row with a cache (cold,
// then warm) must match the row computed with no cache at all.
func TestFigure4CachedIdentity(t *testing.T) {
	seeds := []int64{1, 2}
	rc := RunConfig{Workload: "Cholesky", Scale: testScale, Seeds: seeds, Jobs: 2}
	plain, err := Figure4(context.Background(), rc)
	if err != nil {
		t.Fatal(err)
	}
	rc.Cache = NewResultCache(t.TempDir(), 0)
	coldRow, err := Figure4(context.Background(), rc)
	if err != nil {
		t.Fatal(err)
	}
	warmRow, err := Figure4(context.Background(), rc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(coldRow, plain) {
		t.Errorf("cold cached row differs from uncached row")
	}
	if !reflect.DeepEqual(warmRow, plain) {
		t.Errorf("warm cached row differs from uncached row")
	}
	s := rc.Cache.Stats()
	if s.Hits == 0 || s.Misses == 0 {
		t.Errorf("cache stats = %+v, want both misses (cold) and hits (warm + shared lock baseline)", s)
	}
}

// TestFigure4ResumesFromDiskCache: a sweep cancelled part-way (what
// SIGINT does to the campaign commands) leaves every finished cell on
// disk, and a re-run with a fresh cache over the same directory serves
// them from disk and computes only the rest, with rows identical to a
// cold, uncached run. Like CI's kill-and-resume step, it counts the
// finished cells as the .cell files in the cache directory.
func TestFigure4ResumesFromDiskCache(t *testing.T) {
	const k = 3
	seeds := []int64{1, 2, 3}
	rc := RunConfig{Workload: "Cholesky", Scale: testScale, Seeds: seeds, Jobs: 2}
	cold, err := Figure4(context.Background(), rc)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		for ctx.Err() == nil && cellsDone(t, dir) < k {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	rc.Jobs, rc.Cache = 1, NewResultCache(dir, 0)
	_, err = Figure4(ctx, rc)
	<-watched
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted sweep returned %v, want context.Canceled", err)
	}
	done := cellsDone(t, dir)
	if done < k || done >= int64(len(Figure4Variants())*len(seeds)) {
		t.Fatalf("interrupted after %d cells, want at least %d and not all", done, k)
	}

	resume := NewResultCache(dir, 0)
	rc.Cache = resume
	got, err := Figure4(context.Background(), rc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cold) {
		t.Errorf("resumed row differs from cold uncached row")
	}
	if s := resume.Stats(); s.DiskHits < uint64(done) || s.Errors != 0 {
		t.Errorf("resume stats = %+v, want >= %d disk hits and 0 errors", s, done)
	}
}

// cellsDone counts the finished cells a disk cache holds: its .cell
// files, less the temporary ones a write has not renamed yet.
func cellsDone(t *testing.T, dir string) int64 {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) {
		t.Error(err)
	}
	var n int64
	for _, e := range entries {
		if name := e.Name(); strings.HasSuffix(name, ".cell") && !strings.HasPrefix(name, "tmp-") {
			n++
		}
	}
	return n
}

// TestFigure4SharesLockBaseline: the Lock cell is one simulation per
// (benchmark, seed) — with a cache attached, the warm pass must hit for
// every cell, and the lock cells must not be recomputed per variant
// even on the cold pass (the row assembles them once).
func TestFigure4SharesLockBaseline(t *testing.T) {
	cache := NewResultCache("", 0)
	seeds := []int64{3}
	rc := RunConfig{Workload: "Radiosity", Scale: testScale, Seeds: seeds, Jobs: 1, Cache: cache}
	if _, err := Figure4(context.Background(), rc); err != nil {
		t.Fatal(err)
	}
	s := cache.Stats()
	// 6 variants × 1 seed, lock baseline shared: exactly 6 cells simulated.
	variants := len(Figure4Variants())
	if int(s.Misses) != variants {
		t.Errorf("cold Figure4 simulated %d cells, want %d (one per variant; lock baseline not duplicated)", s.Misses, variants)
	}
}

// TestPooledResetIdentity pins the pooled-System fast path: for every
// workload, a run that reuses a pooled machine via Reset(seed) must be
// DeepEqual to a cold run that constructed its System from scratch.
func TestPooledResetIdentity(t *testing.T) {
	prev := SetSystemPooling(true)
	defer SetSystemPooling(prev)
	variants := []Variant{
		{Name: "BS", Mode: workload.TM, Sig: sig.Config{Kind: sig.KindBitSelect, Bits: 2048}},
		{Name: "Lock", Mode: workload.Lock, Sig: sig.Config{Kind: sig.KindPerfect}},
	}
	for _, w := range Workloads() {
		for _, v := range variants {
			rc := RunConfig{Workload: w.Name, Variant: v, Scale: testScale}
			SetSystemPooling(false)
			drainSystemPool()
			cold, err := RunOne(rc, 13)
			if err != nil {
				t.Fatalf("%s/%s cold: %v", w.Name, v.Name, err)
			}
			SetSystemPooling(true)
			// Prime the pool: this run's machine is returned on success …
			if _, err := RunOne(rc, 7); err != nil {
				t.Fatalf("%s/%s priming: %v", w.Name, v.Name, err)
			}
			// … and the next run of the same cell shape Reset()s it.
			pooled, err := RunOne(rc, 13)
			if err != nil {
				t.Fatalf("%s/%s pooled: %v", w.Name, v.Name, err)
			}
			if !reflect.DeepEqual(pooled, cold) {
				t.Errorf("%s/%s: pooled-Reset run differs from cold run:\n got %+v\nwant %+v",
					w.Name, v.Name, pooled, cold)
			}
		}
	}
	drainSystemPool()
}

// TestPoolSkipsObservedAndFaultedCells: cells with oracles, faults, or
// observers must never draw from the pool (their Systems carry extra
// state), and their runs still work with pooling globally enabled.
func TestPoolSkipsObservedAndFaultedCells(t *testing.T) {
	prev := SetSystemPooling(true)
	defer SetSystemPooling(prev)
	drainSystemPool()
	v, _ := VariantByName("Perfect")
	rc := RunConfig{Workload: "Mp3d", Variant: v, Scale: testScale}
	if poolableCell(rc.withDefaults()) != true {
		t.Fatalf("bare cell reported unpoolable")
	}
	checked := rc
	checked.Checks = AllChecks(0)
	faulted := rc
	faulted.Fault, _ = FaultMix("storm", 3)
	observed := rc
	observed.Sink = DiscardSink{}
	for name, c := range map[string]RunConfig{"checked": checked, "faulted": faulted, "observed": observed} {
		if poolableCell(c.withDefaults()) {
			t.Errorf("%s cell reported poolable", name)
		}
	}
	bare, err := RunOne(rc, 3)
	if err != nil {
		t.Fatal(err)
	}
	withSink, err := RunOne(observed, 3)
	if err != nil {
		t.Fatal(err)
	}
	if bare.Stats != withSink.Stats {
		t.Errorf("observer perturbed stats with pooling enabled")
	}
	drainSystemPool()
}
