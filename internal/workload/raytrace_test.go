package workload

import "logtmse/internal/core"

// referenceRaytrace is the closure-based reference for compileRaytrace.
func referenceRaytrace(sys *core.System, cfg Config) (*Instance, error) {
	inst, rays := newRaytrace(sys, cfg)
	counterMutex := newSpinLock(regionLocks)
	sceneMutex := newSpinLock(blockAt(regionLocks, 1))
	issued, done := inst.Counters[0], inst.Barriers[0]

	worker := func(id int, a *core.API) {
		rng := a.Rand()
		myRays := split(rays, cfg.Threads, id)
		for r := 0; r < myRays; r++ {
			// Fetch the next ray id from the hot global counter and
			// record bookkeeping reads of the scene structures the
			// original performs inside the same critical section.
			reads := drawCount(rng, 3.9, 17)
			start := rng.Intn(raytraceSceneSize)
			pixel := rng.Intn(raytraceImageSize)
			body := func() {
				// Atomic fetch of the next ray id: the counter block
				// enters the write set directly (no read-upgrade window).
				v := a.FetchAdd(regionMeta, 1)
				for j := 0; j < reads; j++ {
					_ = a.Load(blockAt(regionA, (start+j)%raytraceSceneSize))
				}
				// Write the shaded result into the shared image; image
				// blocks migrate between cores, so their GETMs exercise
				// remote signature checks (aliasing hurts small
				// signatures here).
				a.Store(blockAt(regionC, pixel), v)
			}
			if cfg.Mode == TM {
				a.Transaction(body)
			} else {
				counterMutex.With(a, body)
			}
			issued.Add(1) // tallied post-commit
			// Trace the ray: private compute.
			a.Compute(180)

			if rng.Float64() < 1.0/raytraceBigEvery {
				// Scene refit: read a large contiguous span (up to the
				// 550-block worst case) and update a couple of blocks.
				// Mostly mid-sized refits with a thin tail reaching the
				// 550-block worst case Table 2 reports.
				span := 60 + rng.Intn(380)
				if rng.Float64() < 0.06 {
					span = 480 + rng.Intn(70)
				}
				base := rng.Intn(raytraceSceneSize)
				big := func() {
					// Mark two shared scene blocks for refit (write-set
					// max 3 with the private block below), then rescan
					// the span. Two overlapping refits marking in
					// opposite orders can deadlock, producing the
					// occasional abort the paper observes.
					a.Store(blockAt(regionA, base%raytraceSceneSize), uint64(span))
					a.Store(blockAt(regionA, (base+span/2)%raytraceSceneSize), uint64(span))
					for j := 0; j < span; j++ {
						_ = a.Load(blockAt(regionA, (base+j)%raytraceSceneSize))
					}
					a.Store(blockAt(regionB, id), uint64(base))
				}
				if cfg.Mode == TM {
					a.Transaction(big)
				} else {
					sceneMutex.With(a, big)
				}
			}
		}
		a.Barrier(done)
		if id == 0 {
			a.WorkUnit() // the parallel phase is one unit of work
		}
	}
	return spawnAll(sys, inst, cfg.Threads, "ray", worker)
}
