package workload

import (
	"fmt"
	"sync/atomic"

	"logtmse/internal/core"
	"logtmse/internal/txvm"
)

// Radiosity models the SPLASH radiosity batch run: threads process tasks
// from distributed task queues (with stealing) and update shared patch
// data. Transactions are mostly tiny (Table 2: read avg 2.0, write avg
// 1.5) but occasional batch enqueues write up to ~45 blocks, which is why
// the simple bit-select signature degrades modestly on this workload.
//
// Table 2 calibration: 512 tasks measured, ~11172 transactions
// (~22 per task), read 2.0/25, write 1.5/45.
func Radiosity() *Workload {
	return &Workload{
		Name:       "Radiosity",
		Input:      "batch",
		UnitOfWork: "1 task",
		Units:      512,
		spawn:      spawnRadiosity,
	}
}

const (
	radiosityPatches     = 1024 // shared patch blocks
	radiosityQueues      = 4    // distributed task queues
	radiosityTxnsPerTask = 21   // interaction txns per task (plus the pop)
)

func spawnRadiosity(sys *core.System, cfg Config) (*Instance, error) {
	inst, tasks := newRadiosity(sys, cfg)
	patchWrites := inst.Counters[0]
	return spawnCompiled(sys, inst, cfg.Threads, "rad", func(id int) *txvm.Program {
		return compileRadiosity(cfg, tasks, id, patchWrites)
	})
}

// newRadiosity builds the state every Radiosity executor shares: the
// address space, the committed patch-write tally (Counters[0]) and
// Verify. It returns the task count. Queue q's head counter lives at
// spreadAt(regionB, q).
func newRadiosity(sys *core.System, cfg Config) (*Instance, int) {
	pt := sys.NewPageTable(1)
	tasks := int(float64(Radiosity().Units) * cfg.Scale)
	if tasks < cfg.Threads {
		tasks = cfg.Threads
	}
	patchWrites := new(atomic.Int64)
	return &Instance{
		PT:       pt,
		Counters: []*atomic.Int64{patchWrites},
		Verify: func(sys *core.System) error {
			var got int64
			for i := 0; i < radiosityPatches; i++ {
				got += int64(sys.Mem.ReadWord(pt.Translate(blockAt(regionA, i))))
			}
			if got != patchWrites.Load() {
				return fmt.Errorf("Radiosity: patch increments = %d, want %d", got, patchWrites.Load())
			}
			var popped int64
			for q := 0; q < radiosityQueues; q++ {
				popped += int64(sys.Mem.ReadWord(pt.Translate(spreadAt(regionB, q))))
			}
			if popped != int64(tasks) {
				return fmt.Errorf("Radiosity: %d pops recorded, want %d", popped, tasks)
			}
			return nil
		},
	}, tasks
}
