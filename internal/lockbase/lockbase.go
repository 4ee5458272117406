// Package lockbase provides the lock-based synchronization baseline the
// paper compares against (the "Lock" bars in Figure 4): test-and-test-
// and-set spinlocks built from ordinary loads, stores and an atomic
// exchange, all issued through the simulated memory system so they incur
// the same coherence traffic a real lock would.
//
// This is the core.API form of the spin. The paper's workloads run it as
// txvm's LockAcq/LockRel ops, which replicate it cycle for cycle; here it
// serves goroutine-thread programs and the workloads' test-only
// reference bodies.
package lockbase

import (
	"logtmse/internal/addr"
	"logtmse/internal/core"
	"logtmse/internal/sim"
)

// Mutex is a spinlock at a fixed virtual address. Each lock occupies its
// own cache block to avoid false sharing between locks.
type Mutex struct {
	Addr addr.VAddr
}

// NewMutex places a lock at va.
func NewMutex(va addr.VAddr) Mutex { return Mutex{Addr: va} }

// Acquire spins (test-and-test-and-set with randomized exponential
// backoff) until the lock is taken.
func (m Mutex) Acquire(a *core.API) {
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
func (m Mutex) Release(a *core.API) {
	a.Store(m.Addr, 0)
}

// With runs fn as a lock-protected critical section.
func (m Mutex) With(a *core.API, fn func()) {
	m.Acquire(a)
	fn()
	m.Release(a)
}

// TicketLock is a fair FIFO spinlock: acquirers take a ticket with an
// atomic fetch-add and spin until the serving counter reaches it. The
// ticket and serving words live in separate cache blocks so releases
// do not invalidate the ticket-dispensing block.
type TicketLock struct {
	next    addr.VAddr
	serving addr.VAddr
}

// NewTicketLock places a ticket lock at va (it occupies two blocks).
func NewTicketLock(va addr.VAddr) TicketLock {
	va = va.Block()
	return TicketLock{next: va, serving: va + addr.BlockBytes}
}

// Acquire takes a ticket and spins until served.
func (l TicketLock) Acquire(a *core.API) {
	my := a.FetchAdd(l.next, 1)
	for a.Load(l.serving) != my {
		a.Compute(16 + sim.Cycle(a.Rand().Int63n(16)))
	}
}

// Release hands the lock to the next ticket holder.
func (l TicketLock) Release(a *core.API) {
	a.FetchAdd(l.serving, 1)
}

// With runs fn under the ticket lock.
func (l TicketLock) With(a *core.API, fn func()) {
	l.Acquire(a)
	fn()
	l.Release(a)
}

// Table is an array of mutexes (e.g., a database lock table), one per
// cache block starting at base.
type Table struct {
	base addr.VAddr
	n    int
}

// NewTable builds a table of n locks starting at base.
func NewTable(base addr.VAddr, n int) Table {
	return Table{base: base.Block(), n: n}
}

// Len reports the number of locks.
func (t Table) Len() int { return t.n }

// Lock returns the i'th mutex.
func (t Table) Lock(i int) Mutex {
	return Mutex{Addr: t.base + addr.VAddr(i%t.n)*addr.BlockBytes}
}

// WithAll acquires locks for the given indexes in sorted order (deadlock
// avoidance, as lock-based programs must), runs fn, and releases them in
// reverse.
func (t Table) WithAll(a *core.API, idxs []int, fn func()) {
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
