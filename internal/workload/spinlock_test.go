package workload

import (
	"testing"

	"logtmse/internal/addr"
	"logtmse/internal/core"
	"logtmse/internal/sim"
)

// The lock-based synchronization baseline the paper compares against
// (the "Lock" bars in Figure 4), in its core.API form for the reference
// bodies: test-and-test-and-set spinlocks built from ordinary loads,
// stores and an atomic exchange, all issued through the simulated
// memory system so they incur the coherence traffic a real lock would.
// Production runs txvm's LockAcq/LockRel ops, which replicate this spin
// cycle for cycle; TestCompiledMatchesInterpreted holds them to it.

// spinLock is a spinlock at a fixed virtual address. Each lock occupies
// its own cache block to avoid false sharing between locks.
type spinLock struct {
	Addr addr.VAddr
}

// newSpinLock places a lock at va.
func newSpinLock(va addr.VAddr) spinLock { return spinLock{Addr: va} }

// Acquire spins (test-and-test-and-set with randomized exponential
// backoff) until the lock is taken.
func (m spinLock) Acquire(a *core.API) {
	backoff := sim.Cycle(8)
	for {
		// Test: spin on a read (cache-friendly) until the lock looks free.
		for a.Load(m.Addr) != 0 {
			a.Compute(backoff + sim.Cycle(a.Rand().Int63n(int64(backoff))))
			if backoff < 1024 {
				backoff *= 2
			}
		}
		// Test-and-set.
		if a.Exchange(m.Addr, 1) == 0 {
			return
		}
		a.Compute(backoff + sim.Cycle(a.Rand().Int63n(int64(backoff))))
		if backoff < 1024 {
			backoff *= 2
		}
	}
}

// Release frees the lock.
func (m spinLock) Release(a *core.API) {
	a.Store(m.Addr, 0)
}

// With runs fn as a lock-protected critical section.
func (m spinLock) With(a *core.API, fn func()) {
	m.Acquire(a)
	fn()
	m.Release(a)
}

// lockTable is an array of spinlocks (e.g., a database lock table), one
// per cache block starting at base.
type lockTable struct {
	base addr.VAddr
	n    int
}

// newLockTable builds a table of n locks starting at base.
func newLockTable(base addr.VAddr, n int) lockTable {
	return lockTable{base: base.Block(), n: n}
}

// Lock returns the i'th lock.
func (t lockTable) Lock(i int) spinLock {
	return spinLock{Addr: t.base + addr.VAddr(i%t.n)*addr.BlockBytes}
}

// WithAll acquires locks for the given indexes in sorted order (deadlock
// avoidance, as lock-based programs must), runs fn, and releases them in
// reverse.
func (t lockTable) WithAll(a *core.API, idxs []int, fn func()) {
	sorted := append([]int(nil), idxs...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	// Deduplicate after sorting so re-acquisition cannot self-deadlock.
	uniq := sorted[:0]
	for i, v := range sorted {
		if i == 0 || v != sorted[i-1] {
			uniq = append(uniq, v)
		}
	}
	for _, i := range uniq {
		t.Lock(i).Acquire(a)
	}
	fn()
	for i := len(uniq) - 1; i >= 0; i-- {
		t.Lock(uniq[i]).Release(a)
	}
}

func lockParams() core.Params {
	p := core.DefaultParams()
	p.Cores = 4
	p.GridW, p.GridH = 2, 2
	p.L1Bytes = 4 * 1024
	p.L2Bytes = 64 * 1024
	p.L2Banks = 4
	return p
}

func runLocked(t *testing.T, s *core.System) {
	t.Helper()
	s.Run()
	if !s.AllDone() {
		t.Fatalf("threads stuck: %v", s.Stuck())
	}
}

func TestMutualExclusionCounter(t *testing.T) {
	s, err := core.NewSystem(lockParams())
	if err != nil {
		t.Fatal(err)
	}
	pt := s.NewPageTable(1)
	m := newSpinLock(0x100)
	counter := addr.VAddr(0x9000)
	const perThread = 20
	for c := 0; c < 4; c++ {
		s.SpawnOn(c, 0, "w", 1, pt, func(a *core.API) {
			for i := 0; i < perThread; i++ {
				m.With(a, func() {
					v := a.Load(counter)
					a.Compute(10)
					a.Store(counter, v+1)
				})
			}
		})
	}
	runLocked(t, s)
	if got := s.Mem.ReadWord(pt.Translate(counter)); got != 4*perThread {
		t.Errorf("counter = %d, want %d (lock broken)", got, 4*perThread)
	}
	// Locks must not involve the TM machinery.
	if st := s.Stats(); st.Commits != 0 || st.Aborts != 0 {
		t.Errorf("lock run produced TM stats: %+v", st)
	}
}

func TestLockIsHeldExclusively(t *testing.T) {
	s, err := core.NewSystem(lockParams())
	if err != nil {
		t.Fatal(err)
	}
	pt := s.NewPageTable(1)
	m := newSpinLock(0x200)
	inCS := 0
	maxInCS := 0
	for c := 0; c < 4; c++ {
		s.SpawnOn(c, 0, "w", 1, pt, func(a *core.API) {
			for i := 0; i < 5; i++ {
				m.Acquire(a)
				inCS++
				if inCS > maxInCS {
					maxInCS = inCS
				}
				a.Compute(200)
				inCS--
				m.Release(a)
			}
		})
	}
	runLocked(t, s)
	if maxInCS != 1 {
		t.Errorf("max threads in critical section = %d, want 1", maxInCS)
	}
}

func TestTableLockPlacement(t *testing.T) {
	tab := newLockTable(0x1000, 8)
	a0 := tab.Lock(0).Addr
	a1 := tab.Lock(1).Addr
	if a1-a0 != addr.BlockBytes {
		t.Errorf("locks not one block apart: %v %v", a0, a1)
	}
	if tab.Lock(8).Addr != a0 {
		t.Errorf("lock index does not wrap")
	}
	if tab.Lock(3).Addr.BlockOffset() != 0 {
		t.Errorf("lock not block-aligned")
	}
}

func TestWithAllSortedNoDeadlock(t *testing.T) {
	// Threads acquire overlapping lock sets in conflicting orders;
	// WithAll must sort (and dedupe) so no deadlock occurs.
	s, err := core.NewSystem(lockParams())
	if err != nil {
		t.Fatal(err)
	}
	pt := s.NewPageTable(1)
	tab := newLockTable(0x1000, 4)
	shared := addr.VAddr(0x9000)
	for c := 0; c < 4; c++ {
		c := c
		s.SpawnOn(c, 0, "w", 1, pt, func(a *core.API) {
			for i := 0; i < 5; i++ {
				idxs := []int{0, c % 4, (c + 1) % 4, (c + 1) % 4} // common lock 0 + duplicate
				tab.WithAll(a, idxs, func() {
					v := a.Load(shared)
					a.Compute(20)
					a.Store(shared, v+1)
				})
			}
		})
	}
	runLocked(t, s)
	if got := s.Mem.ReadWord(pt.Translate(shared)); got != 20 {
		t.Errorf("shared = %d, want 20", got)
	}
}
