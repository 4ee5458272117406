package workload

import (
	"fmt"

	"logtmse/internal/core"
	"logtmse/internal/txvm"
)

// Cholesky models the SPLASH Cholesky factorization (tk14.O): threads pull
// supernode tasks from a shared queue and spend most of their time in the
// numeric kernel. Critical sections are short, constant-sized queue
// operations — Table 2 shows exactly 4-block read sets and 2-block write
// sets (avg == max) over 261 transactions — so TM and locks perform the
// same within noise.
func Cholesky() *Workload {
	return &Workload{
		Name:       "Cholesky",
		Input:      "tk14.O",
		UnitOfWork: "Factorization",
		Units:      1,
		spawn:      spawnCholesky,
	}
}

const (
	choleskyTasks      = 261   // transactions at scale 1 (one pop each)
	choleskyKernelCost = 30000 // cycles of factorization per task
)

func spawnCholesky(sys *core.System, cfg Config) (*Instance, error) {
	inst, tasks := newCholesky(sys, cfg)
	done := inst.Barriers[0]
	return spawnCompiled(sys, inst, cfg.Threads, "chol", func(id int) *txvm.Program {
		return compileCholesky(cfg, tasks, id, done)
	})
}

// newCholesky builds the state every Cholesky executor shares: the
// address space, the completion barrier (Barriers[0]) and Verify. It
// returns the task count.
//
// Queue layout: block 0 of regionA is the head counter, blocks 1-3 are
// bookkeeping the pop reads; a pop writes blocks 0 and 1, and a pop
// that finds the queue drained writes blocks 2 and 3 instead.
func newCholesky(sys *core.System, cfg Config) (*Instance, int) {
	pt := sys.NewPageTable(1)
	tasks := int(float64(choleskyTasks) * cfg.Scale)
	if tasks < cfg.Threads {
		tasks = cfg.Threads
	}
	return &Instance{
		PT:       pt,
		Barriers: []*core.Barrier{core.NewBarrier(cfg.Threads)},
		Verify: func(sys *core.System) error {
			head := sys.Mem.ReadWord(pt.Translate(blockAt(regionA, 0)))
			if head != uint64(tasks) {
				return fmt.Errorf("Cholesky: %d tasks popped, want %d", head, tasks)
			}
			return nil
		},
	}, tasks
}
