package workload

import (
	"fmt"
	"sync/atomic"

	"logtmse/internal/core"
	"logtmse/internal/txvm"
)

// NestedMicro is not one of the paper's five benchmarks: it is the
// nesting-heavy microworkload used by the §3.2 ablations (backup
// signatures, nesting overheads). Each unit of work is an outer
// transaction containing two closed nested transactions and one open
// nested commit, the composition pattern §3.2 motivates.
func NestedMicro() *Workload {
	return &Workload{
		Name:       "NestedMicro",
		Input:      "synthetic",
		UnitOfWork: "1 nested operation",
		Units:      2048,
		spawn:      spawnNestedMicro,
	}
}

func spawnNestedMicro(sys *core.System, cfg Config) (*Instance, error) {
	inst, units := newNestedMicro(sys, cfg)
	opens := inst.Counters[0]
	return spawnCompiled(sys, inst, cfg.Threads, "nest", func(id int) *txvm.Program {
		return compileNestedMicro(cfg, units, id, opens)
	})
}

// newNestedMicro builds the state every NestedMicro executor shares:
// the address space, the committed-operation tally (Counters[0]) and
// Verify. It returns the unit count.
func newNestedMicro(sys *core.System, cfg Config) (*Instance, int) {
	pt := sys.NewPageTable(1)
	units := int(float64(NestedMicro().Units) * cfg.Scale)
	if units < cfg.Threads {
		units = cfg.Threads
	}
	opens := new(atomic.Int64)
	return &Instance{
		PT:       pt,
		Counters: []*atomic.Int64{opens},
		Verify: func(sys *core.System) error {
			got := int64(sys.Mem.ReadWord(pt.Translate(regionMeta)))
			if got != opens.Load() {
				return fmt.Errorf("NestedMicro: open-commit counter = %d, want %d", got, opens.Load())
			}
			var a, b int64
			for i := 0; i < 64; i++ {
				a += int64(sys.Mem.ReadWord(pt.Translate(spreadAt(regionA, i))))
				b += int64(sys.Mem.ReadWord(pt.Translate(spreadAt(regionB, i))))
			}
			if a != opens.Load() || b != opens.Load() {
				return fmt.Errorf("NestedMicro: bucket sums %d/%d, want %d", a, b, opens.Load())
			}
			return nil
		},
	}, units
}
