package workload

import (
	"logtmse/internal/core"
	"logtmse/internal/sim"
)

// referenceCholesky is the closure-based reference for compileCholesky.
func referenceCholesky(sys *core.System, cfg Config) (*Instance, error) {
	inst, tasks := newCholesky(sys, cfg)
	queueMutex := newSpinLock(regionLocks)
	done := inst.Barriers[0]

	worker := func(id int, a *core.API) {
		for {
			var claimed uint64
			pop := func() {
				head := a.Load(blockAt(regionA, 0))
				_ = a.Load(blockAt(regionA, 1))
				_ = a.Load(blockAt(regionA, 2))
				_ = a.Load(blockAt(regionA, 3))
				claimed = head
				if head < uint64(tasks) {
					a.Store(blockAt(regionA, 0), head+1)
					a.Store(blockAt(regionA, 1), head+1)
				} else {
					// Worker-done bookkeeping keeps the write set at the
					// constant two blocks Table 2 reports.
					a.Store(blockAt(regionA, 2), head)
					a.Store(blockAt(regionA, 3), head)
				}
			}
			if cfg.Mode == TM {
				a.Transaction(pop)
			} else {
				queueMutex.With(a, pop)
			}
			if claimed >= uint64(tasks) {
				break
			}
			// Numeric kernel: private data + compute.
			base := privBase(id)
			for i := 0; i < 8; i++ {
				a.Store(base+blockAt(0, i), claimed+uint64(i))
			}
			a.Compute(sim.Cycle(choleskyKernelCost))
		}
		a.Barrier(done)
		if id == 0 {
			a.WorkUnit() // the factorization is one unit of work
		}
	}
	return spawnAll(sys, inst, cfg.Threads, "chol", worker)
}
