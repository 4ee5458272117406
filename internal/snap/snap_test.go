package snap

import (
	"errors"
	"fmt"
	"testing"

	"logtmse/internal/addr"
	"logtmse/internal/core"
	"logtmse/internal/sim"
	"logtmse/internal/workload"
)

// testParams is a small machine so every workload finishes quickly.
func testParams(seed int64) core.Params {
	p := core.DefaultParams()
	p.Cores = 4
	p.ThreadsPerCore = 2
	p.GridW, p.GridH = 2, 2
	p.L2Banks = 4
	p.Seed = seed
	return p
}

func spawnPair(t *testing.T, p core.Params, name string, cfg workload.Config) (*core.System, *workload.Instance) {
	t.Helper()
	sys, err := core.NewSystem(p)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	w, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	inst, err := w.Spawn(sys, cfg)
	if err != nil {
		t.Fatalf("Spawn(%s): %v", name, err)
	}
	return sys, inst
}

// finish drives sys to completion and returns its stats plus the
// workload verification result.
func finish(t *testing.T, sys *core.System, inst *workload.Instance) core.Stats {
	t.Helper()
	sys.Run()
	if !sys.AllDone() {
		t.Fatalf("run hung; stuck: %v", sys.Stuck())
	}
	if err := inst.Verify(sys); err != nil {
		t.Fatalf("verify: %v", err)
	}
	return sys.Stats()
}

// TestForkEquivalence is the load-bearing tentpole test: for every
// workload, capture at a mid-run quiescent boundary, fork onto a freshly
// spawned system, and require the forked run's Stats to be bit-identical
// to the uninterrupted run's.
func TestForkEquivalence(t *testing.T) {
	for _, name := range []string{"BerkeleyDB", "Cholesky", "Radiosity", "Raytrace", "Mp3d", "NestedMicro"} {
		for _, seed := range []int64{1, 7} {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				cfg := workload.Config{Scale: 0.02}
				p := testParams(seed)

				// Uninterrupted reference run, snapshotting mid-flight.
				sys, inst := spawnPair(t, p, name, cfg)
				var snaps []*Snapshot
				for cut := sim.Cycle(3_000); cut <= 24_000; cut += 7_000 {
					sys.RunUntil(cut)
					if sys.AllDone() {
						break
					}
					s, err := Capture(sys, inst)
					if err != nil {
						t.Fatalf("capture at %d: %v", cut, err)
					}
					snaps = append(snaps, s)
				}
				want := finish(t, sys, inst)
				if len(snaps) == 0 {
					t.Skip("run finished before the first snapshot boundary")
				}

				// Fork every snapshot onto a fresh spawn; each must land
				// on identical final Stats.
				for i, s := range snaps {
					fsys, finst := spawnPair(t, p, name, cfg)
					if err := Restore(fsys, finst, s); err != nil {
						t.Fatalf("restore snapshot %d (cycle %d): %v", i, s.Cycle, err)
					}
					got := finish(t, fsys, finst)
					if got != want {
						t.Errorf("snapshot %d (cycle %d): forked stats differ\n got: %+v\nwant: %+v",
							i, s.Cycle, got, want)
					}
				}
			})
		}
	}
}

// TestForkIndependence forks the same snapshot twice; both forks and the
// original must agree (the capture is not consumed or aliased).
func TestForkIndependence(t *testing.T) {
	cfg := workload.Config{Scale: 0.02}
	p := testParams(3)
	sys, inst := spawnPair(t, p, "Mp3d", cfg)
	sys.RunUntil(5_000)
	if sys.AllDone() {
		t.Skip("run too short")
	}
	s, err := Capture(sys, inst)
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	want := finish(t, sys, inst)
	for i := 0; i < 2; i++ {
		fsys, finst := spawnPair(t, p, "Mp3d", cfg)
		if err := Restore(fsys, finst, s); err != nil {
			t.Fatalf("restore #%d: %v", i, err)
		}
		if got := finish(t, fsys, finst); got != want {
			t.Errorf("fork #%d stats differ\n got: %+v\nwant: %+v", i, got, want)
		}
	}
}

// TestInterpretedNotCapturable pins the documented limitation: a
// goroutine (core.API) thread mid-run lives on its goroutine stack and
// cannot be captured; Capture reports ErrNotCapturable so callers fall
// back.
func TestInterpretedNotCapturable(t *testing.T) {
	sys, err := core.NewSystem(testParams(1))
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	pt := sys.NewPageTable(1)
	if _, err := sys.SpawnOn(0, 0, "api-0", 1, pt, func(a *core.API) {
		for i := 0; i < 100; i++ {
			a.Store(addr.VAddr(0x1000_0000+i*addr.BlockBytes), uint64(i))
			a.Compute(100)
		}
		a.WorkUnit()
	}); err != nil {
		t.Fatalf("SpawnOn: %v", err)
	}
	inst := &workload.Instance{PT: pt, Verify: func(*core.System) error { return nil }}
	sys.RunUntil(5_000)
	if sys.AllDone() {
		t.Fatal("goroutine thread finished before the capture probe")
	}
	if _, err := Capture(sys, inst); !errors.Is(err, core.ErrNotCapturable) {
		t.Fatalf("capture of goroutine thread mid-run: err=%v, want ErrNotCapturable", err)
	}
	finish(t, sys, inst)
}

// TestCaptureRejectsFinishedRun pins the PendingStrong gate: after the
// run drains there is nothing to resume, and capturing the boundary
// would record a misleading clock.
func TestCaptureRejectsFinishedRun(t *testing.T) {
	cfg := workload.Config{Scale: 0.02}
	sys, inst := spawnPair(t, testParams(1), "Raytrace", cfg)
	finish(t, sys, inst)
	if _, err := Capture(sys, inst); !errors.Is(err, core.ErrNotCapturable) {
		t.Fatalf("capture of finished run: err=%v, want ErrNotCapturable", err)
	}
}

// FuzzSnapshotRoundTrip fuzzes the capture/restore layer across the
// whole input space the engine exposes: any workload, any seed, any
// cut cycle. Whatever quiescent boundary the run reaches first at or
// after the cut must round-trip — restoring the capture onto a fresh
// machine and finishing has to land on Stats bit-identical to the
// donor run's own finish.
func FuzzSnapshotRoundTrip(f *testing.F) {
	names := []string{"BerkeleyDB", "Cholesky", "Mp3d", "NestedMicro", "Radiosity", "Raytrace"}
	f.Add(int64(1), uint16(5_000), uint8(0))
	f.Add(int64(7), uint16(12_000), uint8(2))
	f.Add(int64(42), uint16(800), uint8(5))
	f.Add(int64(3), uint16(2_000), uint8(1))
	f.Add(int64(5), uint16(4_000), uint8(3))
	f.Add(int64(9), uint16(6_000), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, cut uint16, which uint8) {
		name := names[int(which)%len(names)]
		p := testParams(seed)
		cfg := workload.Config{Scale: 0.02}
		sys, inst := spawnPair(t, p, name, cfg)

		// Hunt from the cut for the first capturable boundary.
		var shot *Snapshot
		for at := sim.Cycle(cut); at < sim.Cycle(cut)+8_000; at += 250 {
			sys.RunUntil(at)
			if sys.AllDone() {
				break
			}
			if s, err := Capture(sys, inst); err == nil {
				shot = s
				break
			}
		}
		want := finish(t, sys, inst)
		if shot == nil {
			t.Skip("run ended before a capturable boundary past the cut")
		}

		fsys, finst := spawnPair(t, p, name, cfg)
		if err := Restore(fsys, finst, shot); err != nil {
			t.Fatalf("restore (cycle %d): %v", shot.Cycle, err)
		}
		if got := finish(t, fsys, finst); got != want {
			t.Errorf("round-trip at cycle %d diverged:\n got %+v\nwant %+v", shot.Cycle, got, want)
		}
	})
}
