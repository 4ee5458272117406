package workload

import "logtmse/internal/core"

// referenceRadiosity is the closure-based reference for compileRadiosity.
func referenceRadiosity(sys *core.System, cfg Config) (*Instance, error) {
	inst, tasks := newRadiosity(sys, cfg)
	// Locks: one per queue, plus a table hashed over patches.
	queueLocks := newLockTable(regionLocks, radiosityQueues)
	patchLocks := newLockTable(blockAt(regionLocks, 8), 64)
	patchWrites := inst.Counters[0]

	worker := func(id int, a *core.API) {
		rng := a.Rand()
		myTasks := split(tasks, cfg.Threads, id)
		for task := 0; task < myTasks; task++ {
			// Pop from our queue, stealing from a random one 25% of the
			// time (contention between queue sharers).
			q := id % radiosityQueues
			if rng.Float64() < 0.25 {
				q = rng.Intn(radiosityQueues)
			}
			head := spreadAt(regionB, q)
			pop := func() {
				a.FetchAdd(head, 1)
			}
			if cfg.Mode == TM {
				a.Transaction(pop)
			} else {
				queueLocks.Lock(q).With(a, pop)
			}

			// Visibility interactions: small read/write transactions on
			// random patches; a few are batch enqueues with large write
			// sets (up to ~45 blocks).
			for i := 0; i < radiosityTxnsPerTask; i++ {
				if rng.Float64() < 0.03 {
					// Batch enqueue: write a span of queue blocks.
					n := drawCount(rng, 12, 44)
					qq := rng.Intn(radiosityQueues)
					body := func() {
						v := a.Load(spreadAt(regionB, qq))
						for j := 0; j < n; j++ {
							a.Store(blockAt(regionC, qq*64+j), v+uint64(j))
						}
					}
					if cfg.Mode == TM {
						a.Transaction(body)
					} else {
						queueLocks.Lock(qq).With(a, body)
					}
					a.Compute(100)
					continue
				}
				p := rng.Intn(radiosityPatches)
				extra := drawCount(rng, 2.0, 24) - 1
				body := func() {
					v := a.Load(blockAt(regionA, p))
					for j := 1; j <= extra; j++ {
						_ = a.Load(blockAt(regionA, (p+j)%radiosityPatches))
					}
					a.Store(blockAt(regionA, p), v+1)
				}
				if cfg.Mode == TM {
					a.Transaction(body)
				} else {
					patchLocks.Lock(p%64).With(a, body)
				}
				patchWrites.Add(1) // tallied post-commit, not in the body
				a.Compute(900)
			}
			a.WorkUnit()
		}
	}
	return spawnAll(sys, inst, cfg.Threads, "rad", worker)
}
