package core_test

import (
	"testing"

	"logtmse/internal/addr"
	"logtmse/internal/core"
	"logtmse/internal/fault"
	"logtmse/internal/sim"
	"logtmse/internal/snap"
	"logtmse/internal/workload"
)

// The continuation lane merges with the engine queue on (cycle, key),
// so a run must be bit-identical to the single-queue engine it
// replaced. The golden fingerprints and the campaign goldens pin default
// runs; these tests pin the shapes they do not reach — retries queued
// past the lane's wheel, many small run bounds, a snapshot taken with
// the lane full, weak ticks while every thread waits in the lane —
// against values recorded with the single-queue engine (Raytrace and BerkeleyDB,
// scale 0.02, seed 1, Perfect signatures, 32 contexts).

// lanePin is a run's headline outcome: Stats counters, the end cycle and
// the engine RNG's draw count (one jitter draw per stall).
type lanePin struct {
	cycles                        sim.Cycle
	commits, aborts, stalls, epis uint64
	nacks, draws                  uint64
}

func pinOf(sys *core.System) lanePin {
	st := sys.Stats()
	return lanePin{st.Cycles, st.Commits, st.Aborts, st.Stalls, st.StallEpisodes, st.Coh.NACKs, sys.Engine.RandDraws()}
}

var (
	pinRaytrace   = lanePin{1141126, 958, 0, 1391773, 948, 1347270, 1391773}
	pinBerkeleyDB = lanePin{300095, 288, 1167, 313102, 1611, 293720, 313102}
)

func laneSpawn(t *testing.T, p core.Params, wl string) (*core.System, *workload.Instance) {
	t.Helper()
	sys, err := core.NewSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := workload.ByName(wl)
	inst, err := w.Spawn(sys, workload.Config{Mode: workload.TM, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	return sys, inst
}

// laneFinish runs sys to completion and checks the workload's invariants.
func laneFinish(t *testing.T, sys *core.System, inst *workload.Instance) {
	t.Helper()
	sys.Run()
	if !sys.AllDone() {
		t.Fatalf("threads stuck at cycle %d: %v", sys.Engine.Now(), sys.Stuck())
	}
	if err := inst.Verify(sys); err != nil {
		t.Fatal(err)
	}
}

// requireLaneHoldsContinuations checks that every pending thread
// continuation — start, completion, retry or backoff — is a lane entry:
// none forks back to an engine closure. It returns the lane's far
// entries and the number of threads waiting on a NACK retry.
func requireLaneHoldsContinuations(t *testing.T, sys *core.System) (far, retrying int) {
	t.Helper()
	wheel, far, pending, retrying := core.LaneState(sys)
	if wheel+far != pending {
		t.Fatalf("cycle %d: the lane holds %d+%d continuations, %d threads have one pending", sys.Engine.Now(), wheel, far, pending)
	}
	return far, retrying
}

// TestLaneFarRetries: retries re-armed further out than the lane's wheel
// reaches — a 200-cycle base delay, and fault-injected NACK delays of up
// to 500 cycles on half the retries — queue in the lane's far heap and
// run in the same order as before.
func TestLaneFarRetries(t *testing.T) {
	for _, tc := range []struct {
		name  string
		lat   sim.Cycle
		plan  fault.Plan
		want  lanePin
		extra uint64 // fault-injected delay cycles
	}{
		{name: "StallRetryLat200", lat: 200, want: lanePin{1131419, 958, 0, 158856, 945, 153650, 158856}},
		{name: "NackDelay500", lat: 20, plan: fault.Plan{Seed: 1, NackDelayPct: 50, NackDelayMax: 500},
			want: lanePin{1145045, 958, 0, 219100, 947, 212022, 219100}, extra: 27495405},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := core.DefaultParams()
			p.StallRetryLat = tc.lat
			sys, inst := laneSpawn(t, p, "Raytrace")
			var inj *fault.Injector
			if tc.plan.Active() {
				inj = fault.New(tc.plan, sys)
			}
			maxFar := 0
			for c := sim.Cycle(1000); !sys.AllDone() && c < 2*tc.want.cycles; c += 1000 {
				sys.RunUntil(c)
				if far, _ := requireLaneHoldsContinuations(t, sys); far > maxFar {
					maxFar = far
				}
			}
			laneFinish(t, sys, inst)
			if maxFar == 0 {
				t.Errorf("no retry was ever queued past the lane's wheel")
			}
			if got := pinOf(sys); got != tc.want {
				t.Errorf("run drifted:\n got %+v\nwant %+v", got, tc.want)
			}
			if inj != nil && inj.Stats().ExtraCycles != tc.extra {
				t.Errorf("injected %d delay cycles, want %d", inj.Stats().ExtraCycles, tc.extra)
			}
		})
	}
}

// TestLaneRunUntilMatchesRun: a retry-bound run advanced by thousands of
// small RunUntil bounds, which cut the lane's runs at every possible
// cycle, ends exactly as one Run does.
func TestLaneRunUntilMatchesRun(t *testing.T) {
	for _, tc := range []struct {
		wl   string
		want lanePin
	}{{"Raytrace", pinRaytrace}, {"BerkeleyDB", pinBerkeleyDB}} {
		t.Run(tc.wl, func(t *testing.T) {
			sys, inst := laneSpawn(t, core.DefaultParams(), tc.wl)
			bounds := 0
			for c, step := sim.Cycle(0), sim.Cycle(1); !sys.AllDone(); step = step%97 + 1 {
				if c > 2*tc.want.cycles {
					t.Fatalf("still running at cycle %d", sys.Engine.Now())
				}
				c += step
				sys.RunUntil(c)
				bounds++
			}
			laneFinish(t, sys, inst)
			if got := pinOf(sys); got != tc.want {
				t.Errorf("%d RunUntil bounds drifted from one Run:\n got %+v\nwant %+v", bounds, got, tc.want)
			}
		})
	}
}

// TestLaneSnapshotRestore: a snapshot taken mid-storm — at least 8
// threads wait on a NACK retry, as many of them marked for a storm step,
// and every other live thread on another continuation — restores them
// all on the lane at their recorded (cycle, key), unmarked, so each
// first retry re-validates; the fork finishes exactly as the
// uninterrupted run.
func TestLaneSnapshotRestore(t *testing.T) {
	p := core.DefaultParams()
	sys, inst := laneSpawn(t, p, "Raytrace")
	var s *snap.Snapshot
	for c := sim.Cycle(500); s == nil; c += 500 {
		if sys.AllDone() {
			t.Fatal("the run ended before 8 threads waited on a storm step")
		}
		sys.RunUntil(c)
		if _, retrying := requireLaneHoldsContinuations(t, sys); retrying >= 8 && core.StormMarked(sys) >= 8 && sys.StormSteps() > 0 {
			var err error
			if s, err = snap.Capture(sys, inst); err != nil {
				t.Fatal(err)
			}
		}
	}
	fork, finst := laneSpawn(t, p, "Raytrace")
	if err := snap.Restore(fork, finst, s); err != nil {
		t.Fatal(err)
	}
	if _, retrying := requireLaneHoldsContinuations(t, fork); retrying < 8 {
		t.Fatalf("the restored lane holds %d retries, want at least 8", retrying)
	}
	if n := core.StormMarked(fork); n != 0 {
		t.Fatalf("the restored lane holds %d retries marked for a storm step, want none", n)
	}
	laneFinish(t, sys, inst)
	laneFinish(t, fork, finst)
	for name, got := range map[string]lanePin{"original": pinOf(sys), "fork": pinOf(fork)} {
		if got != pinRaytrace {
			t.Errorf("%s drifted:\n got %+v\nwant %+v", name, got, pinRaytrace)
		}
	}
}

// tickScenario builds a mutual stall: the younger transaction waits in
// the lane on the older one's block, then the older one stalls on the
// younger's, so for up to a retry interval every live thread waits in
// the lane, until the younger one's possible_cycle abort.
func tickScenario(t *testing.T, p core.Params) *core.System {
	t.Helper()
	sys, err := core.NewSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	A, B := addr.VAddr(0xa000), addr.VAddr(0xb000)
	pt := sys.NewPageTable(1)
	if _, err := sys.SpawnOn(0, 0, "old", 1, pt, func(a *core.API) {
		a.Transaction(func() {
			a.Store(A, a.Load(A)+1)
			a.Compute(300)
			a.Store(B, a.Load(B)+1)
		})
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.SpawnOn(1, 0, "young", 1, pt, func(a *core.API) {
		a.Compute(50)
		a.Transaction(func() {
			a.Store(B, a.Load(B)+10)
			a.Store(A, a.Load(A)+10)
		})
	}); err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestLaneWeakTicks: Pending and PendingStrong count the lane's
// continuations, so a self-rearming weak tick keeps firing while all the
// strong work queued is retries in the lane, and fires as often as it
// did when retries were engine events: on Raytrace, and every cycle
// through tickScenario's mutual stall.
func TestLaneWeakTicks(t *testing.T) {
	for _, tc := range []struct {
		name        string
		every       sim.Cycle
		build       func() *core.System
		ticks       int
		want        lanePin
		needAllLane bool
	}{
		{"Raytrace", 97, func() *core.System {
			sys, _ := laneSpawn(t, core.DefaultParams(), "Raytrace")
			return sys
		}, 11764, pinRaytrace, false},
		{"MutualStall", 1, func() *core.System { return tickScenario(t, core.DefaultParams()) },
			1400, lanePin{1401, 2, 2, 18, 5, 18, 18}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := tc.build()
			ticks, allInLane := 0, 0
			sys.Engine.ScheduleWeakEvery(tc.every, func() bool {
				ticks++
				if _, _, _, retrying := core.LaneState(sys); retrying == sys.Engine.PendingStrong() {
					allInLane++
				}
				return true
			})
			sys.Run()
			if !sys.AllDone() {
				t.Fatalf("threads stuck: %v", sys.Stuck())
			}
			if ticks != tc.ticks {
				t.Errorf("%d ticks, want %d", ticks, tc.ticks)
			}
			if tc.needAllLane && allInLane == 0 {
				t.Errorf("no tick fired while all strong work was retries in the lane")
			}
			if got := pinOf(sys); got != tc.want {
				t.Errorf("run drifted:\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}
