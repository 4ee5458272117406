package workload_test

import (
	"reflect"
	"testing"

	"logtmse"
	"logtmse/internal/core"
	"logtmse/internal/snap"
	"logtmse/internal/workload"
)

// allWorkloads are the five Table 2 benchmarks plus the nesting
// microbenchmark: every workload with a compiled tape.
var allWorkloads = []string{"BerkeleyDB", "Cholesky", "Radiosity", "Raytrace", "Mp3d", "NestedMicro"}

// runReference runs one cell on the closure-based reference executor
// and assembles its result the way logtmse.RunOne does.
func runReference(t *testing.T, wname string, v logtmse.Variant, p core.Params, scale float64, seed int64) logtmse.RunResult {
	t.Helper()
	w, ok := workload.Reference(wname)
	if !ok {
		t.Fatalf("no reference for %q", wname)
	}
	p.Seed = seed
	p.Signature = v.Sig
	sys, err := core.NewSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := w.Spawn(sys, workload.Config{Mode: v.Mode, Scale: scale})
	if err != nil {
		t.Fatal(err)
	}
	end := sys.Run()
	if !sys.AllDone() {
		t.Fatalf("reference run hung; stuck: %v", sys.Stuck())
	}
	if err := inst.Verify(sys); err != nil {
		t.Fatalf("reference verify: %v", err)
	}
	st := sys.Stats()
	if st.WorkUnits == 0 {
		t.Fatalf("reference run produced no work units")
	}
	return logtmse.RunResult{
		Seed:          seed,
		Cycles:        end,
		WorkUnits:     st.WorkUnits,
		CyclesPerUnit: float64(end) / float64(st.WorkUnits),
		Stats:         st,
	}
}

// TestCompiledMatchesInterpreted pins the tapes to their reference
// bodies: for every workload, Figure-4 variant, and machine size, the
// production run (compiled txvm tapes, through logtmse.RunOne) must be
// bit-identical to the closure-based reference executor — same cycles,
// same work units, same value of every counter. A diff means a tape's
// op or RNG-draw sequence diverged from its workload body. Short mode
// trims to the default machine and three variants (Lock exercises the
// spinlock engine, Perfect and BS_64 the transactional paths with and
// without signature pressure).
func TestCompiledMatchesInterpreted(t *testing.T) {
	small := logtmse.DefaultParams()
	small.Cores, small.GridW, small.GridH = 8, 4, 2
	machines := []struct {
		name string
		p    logtmse.Params
	}{
		{"c16", logtmse.DefaultParams()},
		{"c8", small},
	}
	shortVariants := map[string]bool{"Lock": true, "Perfect": true, "BS_64": true}
	for _, m := range machines {
		if testing.Short() && m.name != "c16" {
			continue
		}
		for _, wname := range allWorkloads {
			for _, v := range logtmse.Figure4Variants() {
				if testing.Short() && !shortVariants[v.Name] {
					continue
				}
				m, wname, v := m, wname, v
				t.Run(m.name+"/"+wname+"/"+v.Name, func(t *testing.T) {
					t.Parallel()
					p := m.p
					const scale, seed = 0.02, 3
					compiled, err := logtmse.RunOne(logtmse.RunConfig{Workload: wname, Variant: v, Scale: scale, Params: &p}, seed)
					if err != nil {
						t.Fatal(err)
					}
					interpreted := runReference(t, wname, v, p, scale, seed)
					if !reflect.DeepEqual(compiled, interpreted) {
						t.Errorf("executors diverged:\ncompiled    %+v\ninterpreted %+v", compiled, interpreted)
					}
				})
			}
		}
	}
}

// TestResetAndRestoreEquivalence is the reference executor's half of
// the root package's test of the same name: a Reset machine re-spawned
// with the reference bodies, and a machine restored from a snapshot,
// must reproduce a fresh reference run bit for bit. A goroutine thread
// mid-run lives on its stack, so the snapshot is taken at cycle zero
// (every thread still at its start continuation).
func TestResetAndRestoreEquivalence(t *testing.T) {
	for _, wname := range allWorkloads {
		wname := wname
		t.Run(wname+"/interpreted", func(t *testing.T) {
			t.Parallel()
			const seed = 3
			p := core.DefaultParams()
			p.Cores, p.ThreadsPerCore = 4, 2
			p.GridW, p.GridH = 2, 2
			p.L2Banks = 4
			p.Seed = seed
			w, ok := workload.Reference(wname)
			if !ok {
				t.Fatalf("no reference for %q", wname)
			}
			cfg := workload.Config{Scale: 0.02}
			spawn := func() (*core.System, *workload.Instance) {
				sys, err := core.NewSystem(p)
				if err != nil {
					t.Fatalf("NewSystem: %v", err)
				}
				inst, err := w.Spawn(sys, cfg)
				if err != nil {
					t.Fatalf("Spawn: %v", err)
				}
				return sys, inst
			}
			finish := func(sys *core.System, inst *workload.Instance) core.Stats {
				sys.Run()
				if !sys.AllDone() {
					t.Fatalf("run hung; stuck: %v", sys.Stuck())
				}
				if err := inst.Verify(sys); err != nil {
					t.Fatalf("verify: %v", err)
				}
				return sys.Stats()
			}

			// Fresh reference run, snapshotted before its first event.
			sys, inst := spawn()
			shot, err := snap.Capture(sys, inst)
			if err != nil {
				t.Fatalf("cycle-0 capture: %v", err)
			}
			want := finish(sys, inst)

			// Pooled path: Reset the same machine and run the cell again.
			if err := sys.Reset(seed); err != nil {
				t.Fatalf("Reset: %v", err)
			}
			rinst, err := w.Spawn(sys, cfg)
			if err != nil {
				t.Fatalf("re-spawn after Reset: %v", err)
			}
			if got := finish(sys, rinst); got != want {
				t.Errorf("Reset machine diverged:\n got %+v\nwant %+v", got, want)
			}

			// Restore path: fork the snapshot onto a fresh machine.
			fsys, finst := spawn()
			if err := snap.Restore(fsys, finst, shot); err != nil {
				t.Fatalf("restore (cycle %d): %v", shot.Cycle, err)
			}
			if got := finish(fsys, finst); got != want {
				t.Errorf("restored machine (cycle %d) diverged:\n got %+v\nwant %+v", shot.Cycle, got, want)
			}
		})
	}
}
