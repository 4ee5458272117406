package core_test

import (
	"reflect"
	"testing"

	"logtmse/internal/cache"
	"logtmse/internal/coherence"
	"logtmse/internal/core"
	"logtmse/internal/fault"
	"logtmse/internal/sig"
	"logtmse/internal/workload"
)

// A storm step (System.stormStep) is a clean replay's retry run without
// its thread, its charges deferred to a flush. Forcing every lane step
// through runCont (core.PerRetry) re-validates and replays each retry in
// full instead, so a run must come out identical either way: Stats,
// per-thread Stats, the end cycle, the engine's RNG draws, the fault
// injector's delays and every L1's LRU state.

// stormCase is one workload run compared with and without storm steps.
type stormCase struct {
	name  string
	wl    string
	sig   sig.Config
	scale float64
	seed  int64
	limit int        // Params.StarvationRetryLimit
	plan  fault.Plan // a fault injector, if active
}

// stormOutcome is everything a storm step could disturb.
type stormOutcome struct {
	stats   core.Stats
	threads [][4]uint64 // Commits, Aborts, Stalls, WorkUnits
	draws   uint64
	fault   fault.Stats
	l1      []*cache.Snapshot
}

var (
	sigPerfect = sig.Config{Kind: sig.KindPerfect}
	sigCBS     = sig.Config{Kind: sig.KindCoarseBitSelect, Bits: 2048}
	sigBS64    = sig.Config{Kind: sig.KindBitSelect, Bits: 64}
)

// runStorm runs c to completion, with storm steps or (perRetry) without,
// and returns its outcome and the system.
func runStorm(t testing.TB, c stormCase, perRetry bool) (stormOutcome, *core.System) {
	t.Helper()
	p := core.DefaultParams()
	p.Seed, p.Signature, p.StarvationRetryLimit = c.seed, c.sig, c.limit
	sys, err := core.NewSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	w, ok := workload.ByName(c.wl)
	if !ok {
		t.Fatalf("no workload %q", c.wl)
	}
	inst, err := w.Spawn(sys, workload.Config{Mode: workload.TM, Scale: c.scale})
	if err != nil {
		t.Fatal(err)
	}
	if perRetry {
		core.PerRetry(sys)
	}
	var inj *fault.Injector
	if c.plan.Active() {
		inj = fault.New(c.plan, sys)
	}
	sys.Run()
	if !sys.AllDone() {
		t.Fatalf("%s: threads stuck: %v", c.name, sys.Stuck())
	}
	if err := inst.Verify(sys); err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	out := stormOutcome{stats: sys.Stats(), draws: sys.Engine.RandDraws()}
	for _, th := range sys.Threads() {
		out.threads = append(out.threads, [4]uint64{th.Commits, th.Aborts, th.Stalls, th.WorkUnits})
	}
	if inj != nil {
		out.fault = inj.Stats()
	}
	coh := sys.Coh.(*coherence.System)
	for i := 0; i < p.Cores; i++ {
		out.l1 = append(out.l1, coh.L1(i).Snapshot())
	}
	return out, sys
}

// requireStormMatchesPerRetry runs c both ways, requires the same
// outcome, and returns the storm run.
func requireStormMatchesPerRetry(t testing.TB, c stormCase) *core.System {
	t.Helper()
	storm, sys := runStorm(t, c, false)
	each, ref := runStorm(t, c, true)
	if ref.StormSteps() != 0 || ref.ReplaySkips() != 0 {
		t.Fatalf("%s: the per-retry run took %d storm steps, skipped %d", c.name, ref.StormSteps(), ref.ReplaySkips())
	}
	if storm.stats != each.stats {
		t.Errorf("%s: Stats differ:\nstorm     %+v\nper-retry %+v", c.name, storm.stats, each.stats)
	}
	if !reflect.DeepEqual(storm.threads, each.threads) {
		t.Errorf("%s: per-thread Stats differ:\nstorm     %v\nper-retry %v", c.name, storm.threads, each.threads)
	}
	if storm.draws != each.draws {
		t.Errorf("%s: %d engine RNG draws, per-retry %d", c.name, storm.draws, each.draws)
	}
	if storm.fault != each.fault {
		t.Errorf("%s: fault injector %+v, per-retry %+v", c.name, storm.fault, each.fault)
	}
	for i := range storm.l1 {
		if !reflect.DeepEqual(storm.l1[i], each.l1[i]) {
			t.Errorf("%s: core %d's L1 (tags, states, LRU clock) differs", c.name, i)
		}
	}
	if sys.VerdictReplays() != ref.VerdictReplays() {
		t.Errorf("%s: %d verdict replays, per-retry %d", c.name, sys.VerdictReplays(), ref.VerdictReplays())
	}
	return sys
}

// TestStormMatchesPerRetry compares storm and per-retry runs on the
// retry-bound workloads, with the starvation limit escalating retries
// out of a storm, and with NACK-retry delays drawn by the fault
// injector at every storm step.
func TestStormMatchesPerRetry(t *testing.T) {
	var cases []stormCase
	for _, wl := range []string{"Raytrace", "BerkeleyDB"} {
		for _, v := range []struct {
			name string
			sig  sig.Config
		}{{"Perfect", sigPerfect}, {"CBS", sigCBS}, {"BS_64", sigBS64}} {
			cases = append(cases, stormCase{name: wl + "/" + v.name, wl: wl, sig: v.sig, scale: 0.05, seed: 1})
		}
	}
	limited := stormCase{name: "Radiosity/BS_64/starvation", wl: "Radiosity", sig: sigBS64, scale: 0.05, seed: 1, limit: 24}
	delayed := stormCase{name: "Raytrace/CBS/nack-delay", wl: "Raytrace", sig: sigCBS, scale: 0.02, seed: 3,
		plan: fault.Plan{Seed: 5, NackDelayPct: 30, NackDelayMax: 60}}
	cases = append(cases, limited, delayed)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sys := requireStormMatchesPerRetry(t, c)
			t.Logf("%d stalls, %d replays, %d skips, %d storm steps", sys.Stats().Stalls, sys.VerdictReplays(), sys.ReplaySkips(), sys.StormSteps())
			if sys.StormSteps() == 0 {
				t.Fatalf("no retry ran as a storm step")
			}
			switch c.name {
			case limited.name:
				// The budget ends storms: the retry that escalates
				// skipped re-validation but took the full path.
				if sys.ReplaySkips() <= sys.StormSteps() {
					t.Errorf("%d skips, %d storm steps: no storm ran into the starvation limit", sys.ReplaySkips(), sys.StormSteps())
				}
			case delayed.name:
				if sys.StormSteps() < 10_000 {
					t.Errorf("only %d storm steps under NACK-retry delays", sys.StormSteps())
				}
			default:
				if sys.ReplaySkips() != sys.StormSteps() {
					t.Errorf("%d skips but %d storm steps", sys.ReplaySkips(), sys.StormSteps())
				}
			}
		})
	}
}

// FuzzStormMatchesPerRetry runs the comparison on a fuzzed seed and
// knobs: the workload, the signature, a starvation limit and NACK-retry
// delays, at a small scale.
func FuzzStormMatchesPerRetry(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(2), uint8(0xc4))
	f.Add(int64(7), uint8(0x51))
	f.Fuzz(func(t *testing.T, seed int64, knobs uint8) {
		wls := []string{"Raytrace", "BerkeleyDB", "Radiosity", "Mp3d", "Cholesky"}
		sigs := []sig.Config{sigPerfect, sigCBS, sigBS64}
		c := stormCase{name: "fuzz", wl: wls[knobs%5], sig: sigs[knobs/5%3], scale: 0.01, seed: seed}
		if knobs&0x40 != 0 {
			c.limit = 2 + int(uint64(seed)%40)
		}
		if knobs&0x80 != 0 {
			c.plan = fault.Plan{Seed: seed, NackDelayPct: 30, NackDelayMax: 60}
		}
		requireStormMatchesPerRetry(t, c)
	})
}
