package workload

import (
	"fmt"
	"sync/atomic"

	"logtmse/internal/core"
	"logtmse/internal/txvm"
)

// BerkeleyDB models the paper's BerkeleyDB workload: a driver initializes
// a 1000-word database and worker threads perform random database reads.
// Each read stresses the lock subsystem — repeated requests for locks on
// database objects — which the TM version converts into transactions over
// the shared lock-table blocks, while the Lock version serializes on the
// lock-region mutex (as BerkeleyDB's region locking does).
//
// Table 2 calibration: 128 units (database reads), ~1120 transactions
// (9 per read), read sets avg 8.1 / max 30, write sets avg 6.8 / max 28.
func BerkeleyDB() *Workload {
	return &Workload{
		Name:       "BerkeleyDB",
		Input:      "1000 words",
		UnitOfWork: "1 database read",
		Units:      128,
		spawn:      spawnBDB,
	}
}

const (
	bdbLockBlocks  = 64 // lock-table objects, one per block
	bdbTxnsPerUnit = 9  // lock-subsystem ops per database read
	bdbDBWords     = 1000
)

func spawnBDB(sys *core.System, cfg Config) (*Instance, error) {
	inst, units := newBDB(sys, cfg)
	expected := inst.Counters[0]
	return spawnCompiled(sys, inst, cfg.Threads, "bdb", func(id int) *txvm.Program {
		return compileBDB(cfg, units, id, expected)
	})
}

// newBDB builds the state every BerkeleyDB executor shares: the address
// space, the committed lock-object increment tally (Counters[0]) and
// Verify. It returns the unit count.
func newBDB(sys *core.System, cfg Config) (*Instance, int) {
	pt := sys.NewPageTable(1)
	units := int(float64(BerkeleyDB().Units) * cfg.Scale)
	if units < cfg.Threads {
		units = cfg.Threads
	}
	expected := new(atomic.Int64)
	return &Instance{
		PT:       pt,
		Counters: []*atomic.Int64{expected},
		Verify: func(sys *core.System) error {
			var got int64
			for i := 0; i < bdbLockBlocks; i++ {
				got += int64(sys.Mem.ReadWord(pt.Translate(spreadAt(regionA, i))))
			}
			if got != expected.Load() {
				return fmt.Errorf("BerkeleyDB: lock-table increments = %d, want %d (lost updates)", got, expected.Load())
			}
			return nil
		},
	}, units
}
