package workload

import "logtmse/internal/core"

// referenceMp3d is the closure-based reference for compileMp3d.
func referenceMp3d(sys *core.System, cfg Config) (*Instance, error) {
	inst, steps := newMp3d(sys, cfg)
	cellLocks := newLockTable(regionLocks, mp3dCells)
	moves, stepBarrier := inst.Counters[0], inst.Barriers[0]

	worker := func(id int, a *core.API) {
		rng := a.Rand()
		myMols := split(mp3dMolecules, cfg.Threads, id)
		for s := 0; s < steps; s++ {
			// Move each owned molecule with ~27% probability this step,
			// calibrated to Table 2's ~34.6 transactions per step.
			for m := 0; m < myMols; m++ {
				if rng.Float64() >= 0.27 {
					continue
				}
				mol := blockAt(regionB, id*myMols+m)
				cell := rng.Intn(mp3dCells)
				// Collision chains read extra cells occasionally.
				extra := drawCount(rng, 1.3, 16) - 1
				if rng.Float64() < 0.015 {
					// Multi-cell collision chain (Table 2's read tail).
					extra = 4 + rng.Intn(13)
				}
				body := func() {
					_ = a.Load(mol)
					v := a.Load(spreadAt(regionA, cell))
					for j := 1; j <= extra; j++ {
						_ = a.Load(spreadAt(regionA, (cell+j)%mp3dCells))
					}
					a.Store(spreadAt(regionA, cell), v+1)
					for j := 0; j <= extra/2 && j < 8; j++ {
						// Momentum exchange on the chain (widens the
						// write set on collision chains, Table 2's
						// write tail).
						if extra > 2 {
							a.Store(spreadAt(regionC, (cell+j)%mp3dCells), uint64(extra))
						}
					}
					if rng.Float64() < 0.7 {
						a.Store(mol, uint64(cell))
					}
				}
				if cfg.Mode == TM {
					a.Transaction(body)
				} else {
					// Fine-grained cell locks; collision chains take the
					// involved cells in sorted order.
					idxs := []int{cell}
					for j := 1; j <= extra; j++ {
						idxs = append(idxs, (cell+j)%mp3dCells)
					}
					cellLocks.WithAll(a, idxs, body)
				}
				moves.Add(1) // tallied post-commit
				a.Compute(3200)
			}
			a.Barrier(stepBarrier)
			if id == 0 {
				a.WorkUnit() // one simulation step completed
			}
		}
	}
	return spawnAll(sys, inst, cfg.Threads, "mp3d", worker)
}
