package workload

import (
	"math/rand"
	"sort"
	"testing"

	"logtmse/internal/addr"
	"logtmse/internal/core"
)

const bdbMaxSet = 27 // hard cap on read-/write-set draws

// bdbSets holds one transaction's lock-object index sets in reusable
// buffers, so the per-transaction draws allocate nothing after the
// first use.
type bdbSets struct {
	ridxs, widxs []int
	buf          [2 * bdbMaxSet]int
}

// draw refills ridxs/widxs with the transaction's skewed lock-object
// sets (write set sorted, per the deadlock-avoidance discipline).
func (s *bdbSets) draw(rng *rand.Rand) {
	kr := drawCount(rng, 7.3, 27)
	s.ridxs = s.buf[:kr:bdbMaxSet]
	for i := range s.ridxs {
		s.ridxs[i] = zipfIdx(rng, bdbLockBlocks, 1.5)
	}
	kw := drawCount(rng, 7.6, 27)
	s.widxs = s.buf[bdbMaxSet : bdbMaxSet+kw]
	for i := range s.widxs {
		s.widxs[i] = zipfIdx(rng, bdbLockBlocks, 2.8)
	}
	sort.Ints(s.widxs)
}

// referenceBDB is the closure-based reference for compileBDB.
func referenceBDB(sys *core.System, cfg Config) (*Instance, error) {
	inst, units := newBDB(sys, cfg)
	regionMutex := newSpinLock(regionLocks)
	expected := inst.Counters[0]

	worker := func(id int, a *core.API) {
		rng := a.Rand()
		myUnits := split(units, cfg.Threads, id)
		// Read-/write-set index buffers live for the whole worker; each
		// transaction reslices them instead of allocating (guarded by
		// TestBDBDrawSetsNoAlloc).
		var sets bdbSets
		for u := 0; u < myUnits; u++ {
			for tx := 0; tx < bdbTxnsPerUnit; tx++ {
				// One lock-subsystem operation: read lock-status blocks
				// (holder lists, hash buckets), atomically update a
				// skewed set of lock objects in sorted order (the
				// database's deadlock-avoidance discipline), and read a
				// database word.
				sets.draw(rng)
				ridxs, widxs := sets.ridxs, sets.widxs
				writeMeta := rng.Float64() < 0.5
				// Occasionally a lock object's state is inspected before
				// acquisition; these reads create the rare read-write
				// deadlock cycles (and thus aborts) the paper observes.
				peek := -1
				if rng.Float64() < 0.1 {
					peek = zipfIdx(rng, bdbLockBlocks, 2.0)
				}
				dbWord := rng.Intn(bdbDBWords)

				body := func() {
					// System calls, I/O and allocation inside the
					// critical section run as non-transactional escape
					// actions (§6.2, via Nested LogTM): not signed, not
					// logged, never rolled back.
					a.Escape(func() {
						a.FetchAdd(privBase(id), 1)
					})
					if writeMeta {
						a.FetchAdd(regionMeta, 1)
					} else {
						_ = a.Load(regionMeta)
					}
					if peek >= 0 {
						_ = a.Load(spreadAt(regionA, peek))
					}
					// Acquire the lock objects first (holding them for
					// the rest of the operation), then walk holder lists
					// and the database page.
					for _, i := range widxs {
						a.FetchAdd(spreadAt(regionA, i), 1)
					}
					for _, i := range ridxs {
						_ = a.Load(spreadAt(regionB, i))
					}
					_ = a.Load(regionC + addr.VAddr(dbWord)*addr.WordBytes)
					a.Compute(20)
				}
				if cfg.Mode == TM {
					a.Transaction(body)
				} else {
					regionMutex.With(a, body)
				}
				// Tally after the (possibly retried) atomic section has
				// committed, so aborted executions are not counted.
				expected.Add(int64(len(widxs)))
				a.Compute(150)
			}
			a.WorkUnit()
		}
	}
	return spawnAll(sys, inst, cfg.Threads, "bdb", worker)
}

// TestBDBDrawSetsNoAlloc pins the per-transaction draw path as
// allocation-free: bdbSets reslices its fixed backing array, so a
// steady-state BerkeleyDB worker performs no heap allocation per
// transaction for its index sets.
func TestBDBDrawSetsNoAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var sets bdbSets
	sets.draw(rng) // warm up (first use may fault in nothing, but be safe)
	if allocs := testing.AllocsPerRun(100, func() { sets.draw(rng) }); allocs != 0 {
		t.Fatalf("bdbSets.draw allocates %.1f objects per transaction, want 0", allocs)
	}
}

// TestBDBDrawSetsBounds checks the reslicing discipline: ridxs is capped
// at bdbMaxSet so appends cannot clobber widxs' half of the buffer, and
// both sets stay within the drawn bounds.
func TestBDBDrawSetsBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var sets bdbSets
	for i := 0; i < 1000; i++ {
		sets.draw(rng)
		if len(sets.ridxs) < 1 || len(sets.ridxs) > bdbMaxSet {
			t.Fatalf("ridxs length %d out of [1, %d]", len(sets.ridxs), bdbMaxSet)
		}
		if len(sets.widxs) < 1 || len(sets.widxs) > bdbMaxSet {
			t.Fatalf("widxs length %d out of [1, %d]", len(sets.widxs), bdbMaxSet)
		}
		if cap(sets.ridxs) != bdbMaxSet {
			t.Fatalf("ridxs cap %d, want %d (full-slice cap would let appends clobber widxs)",
				cap(sets.ridxs), bdbMaxSet)
		}
		for j := 1; j < len(sets.widxs); j++ {
			if sets.widxs[j-1] > sets.widxs[j] {
				t.Fatalf("widxs not sorted at %d: %v", j, sets.widxs)
			}
		}
		for _, idx := range sets.ridxs {
			if idx < 0 || idx >= bdbLockBlocks {
				t.Fatalf("ridxs index %d out of range", idx)
			}
		}
	}
}
