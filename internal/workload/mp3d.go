package workload

import (
	"fmt"
	"sync/atomic"

	"logtmse/internal/core"
	"logtmse/internal/txvm"
)

// Mp3d models the SPLASH rarefied-fluid-flow simulation with 128
// molecules: barrier-separated steps in which each thread moves its
// molecules through shared space cells, colliding occasionally. Critical
// sections are small cell updates (Table 2: read 2.2/18, write 1.7/10)
// with collision chains providing the occasional larger set; the lock
// version uses fine-grained per-cell locks, so TM and locks tie.
func Mp3d() *Workload {
	return &Workload{
		Name:       "Mp3d",
		Input:      "128 molecules",
		UnitOfWork: "1 step",
		Units:      512,
		spawn:      spawnMp3d,
	}
}

const (
	mp3dMolecules = 128
	mp3dCells     = 48 // shared space cells (blocks)
)

func spawnMp3d(sys *core.System, cfg Config) (*Instance, error) {
	inst, steps := newMp3d(sys, cfg)
	moves, stepBarrier := inst.Counters[0], inst.Barriers[0]
	return spawnCompiled(sys, inst, cfg.Threads, "mp3d", func(id int) *txvm.Program {
		return compileMp3d(cfg, steps, id, moves, stepBarrier)
	})
}

// newMp3d builds the state every Mp3d executor shares: the address
// space, the committed-move tally (Counters[0]), the step barrier
// (Barriers[0]) and Verify. It returns the step count.
func newMp3d(sys *core.System, cfg Config) (*Instance, int) {
	pt := sys.NewPageTable(1)
	steps := int(float64(Mp3d().Units) * cfg.Scale)
	if steps < 1 {
		steps = 1
	}
	stepBarrier := core.NewBarrier(cfg.Threads)
	moves := new(atomic.Int64)
	return &Instance{
		PT:       pt,
		Counters: []*atomic.Int64{moves},
		Barriers: []*core.Barrier{stepBarrier},
		Verify: func(sys *core.System) error {
			var got int64
			for c := 0; c < mp3dCells; c++ {
				got += int64(sys.Mem.ReadWord(pt.Translate(spreadAt(regionA, c))))
			}
			if got != moves.Load() {
				return fmt.Errorf("Mp3d: cell populations = %d, want %d moves", got, moves.Load())
			}
			return nil
		},
	}, steps
}
