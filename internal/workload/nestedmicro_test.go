package workload

import (
	"testing"

	"logtmse/internal/core"
)

// referenceNestedMicro is the closure-based reference for compileNestedMicro.
func referenceNestedMicro(sys *core.System, cfg Config) (*Instance, error) {
	inst, units := newNestedMicro(sys, cfg)
	mutex := newSpinLock(regionLocks)
	opens := inst.Counters[0]

	worker := func(id int, a *core.API) {
		rng := a.Rand()
		myUnits := split(units, cfg.Threads, id)
		priv := privBase(id)
		for u := 0; u < myUnits; u++ {
			slot := rng.Intn(256)
			body := func() {
				a.Store(priv, uint64(u))
				// Remove from one bucket, insert into another —
				// composed operations, each its own transaction.
				a.Transaction(func() {
					a.FetchAdd(spreadAt(regionA, slot%64), 1)
				})
				a.Transaction(func() {
					a.FetchAdd(spreadAt(regionB, slot%64), 1)
				})
				// Open-nested statistics update.
				a.OpenTransaction(func() {
					a.FetchAdd(regionMeta, 1)
				})
				a.Compute(60)
			}
			if cfg.Mode == TM {
				a.Transaction(body)
			} else {
				// The lock version flattens the whole operation under
				// one mutex (locks do not compose).
				mutex.With(a, func() {
					a.Store(priv, uint64(u))
					a.FetchAdd(spreadAt(regionA, slot%64), 1)
					a.FetchAdd(spreadAt(regionB, slot%64), 1)
					a.FetchAdd(regionMeta, 1)
					a.Compute(60)
				})
			}
			opens.Add(1)
			a.WorkUnit()
			a.Compute(120)
		}
	}
	return spawnAll(sys, inst, cfg.Threads, "nest", worker)
}

func TestNestedMicroBothModes(t *testing.T) {
	for _, mode := range []Mode{TM, Lock} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			runWorkload(t, NestedMicro(), Config{Mode: mode, Scale: 0.05}, testParams())
		})
	}
}

func TestNestedMicroUsesNesting(t *testing.T) {
	sys, _ := runWorkload(t, NestedMicro(), Config{Mode: TM, Scale: 0.05}, testParams())
	st := sys.Stats()
	if st.NestedBegins == 0 || st.NestedCommits == 0 {
		t.Errorf("no nested transactions: %+v", st)
	}
	if st.OpenCommits == 0 {
		t.Errorf("no open commits")
	}
	// Three nested begins per outer transaction.
	if st.NestedBegins < 3*st.Commits {
		t.Errorf("nested begins %d < 3x commits %d", st.NestedBegins, st.Commits)
	}
}

func TestNestedMicroInExtrasNotAll(t *testing.T) {
	for _, w := range All() {
		if w.Name == "NestedMicro" {
			t.Errorf("NestedMicro leaked into the Table 2 benchmark set")
		}
	}
	if w, ok := ByName("NestedMicro"); !ok || w.Name != "NestedMicro" {
		t.Errorf("NestedMicro not resolvable by name")
	}
	if len(Extras()) != 1 {
		t.Errorf("Extras() = %d entries", len(Extras()))
	}
}

func TestNestedMicroBackupSignaturesSpeedup(t *testing.T) {
	run := func(backups int) uint64 {
		p := testParams()
		p.SigBackupCopies = backups
		sys, err := core.NewSystem(p)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := NestedMicro().Spawn(sys, Config{Mode: TM, Scale: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		sys.Run()
		if err := inst.Verify(sys); err != nil {
			t.Fatal(err)
		}
		return uint64(sys.Stats().Cycles)
	}
	if with, without := run(4), run(0); with >= without {
		t.Errorf("backup signatures did not help nesting: %d vs %d cycles", with, without)
	}
}
