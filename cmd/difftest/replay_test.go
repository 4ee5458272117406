package main

import (
	"reflect"
	"testing"

	"logtmse/internal/fault"
	"logtmse/internal/obs"
	"logtmse/internal/progen"
)

// replayVsWalk is the replay-vs-walk oracle for one random program: it
// runs the program on every matrix cell twice, bare — NACK retries
// replayed from their verdicts wherever the cell allows it — and with an
// event sink attached, which walks every retry through the protocol.
// The two outcomes (Stats, end cycle, commit order, witness values,
// memory images, fault counts, oracle failures) must be identical. It
// returns each cell's bare outcome.
func replayVsWalk(t *testing.T, seed int64) map[string]*simOutcome {
	t.Helper()
	prog := progen.Generate(seed, progen.DeriveGenConfig(seed))
	opts := runOpts{Checks: true, Watchdog: 300_000, MaxCycles: 2_000_000}
	walkOpts := opts
	walkOpts.Extra = obs.Discard{}
	outs := make(map[string]*simOutcome)
	for _, cfg := range matrix() {
		bare, err := runSim(prog, cfg, seed, opts)
		if err != nil {
			t.Fatal(err)
		}
		walk, err := runSim(prog, cfg, seed, walkOpts)
		if err != nil {
			t.Fatal(err)
		}
		if walk.Replays != 0 {
			t.Fatalf("seed %d %s: the sink-attached run replayed %d retries", seed, cfg.Name, walk.Replays)
		}
		outs[cfg.Name] = bare
		replays := bare.Replays
		bare.Replays = 0
		if bare.Stats != walk.Stats || bare.Cycles != walk.Cycles {
			t.Errorf("seed %d %s: replay diverged from the walk:\nreplay %d cycles %+v\nwalk   %d cycles %+v",
				seed, cfg.Name, bare.Cycles, bare.Stats, walk.Cycles, walk.Stats)
		} else if !reflect.DeepEqual(bare, walk) {
			t.Errorf("seed %d %s: replay and walk agree on Stats but not on the outcome", seed, cfg.Name)
		}
		bare.Replays = replays
	}
	return outs
}

// FuzzReplayMatchesWalk runs the replay-vs-walk oracle on the program a
// fuzzed seed generates (scripts/check.sh gives it a short fuzz budget).
func FuzzReplayMatchesWalk(f *testing.F) {
	f.Add(int64(1))
	f.Fuzz(func(t *testing.T, seed int64) { replayVsWalk(t, seed) })
}

// TestReplayMatchesWalkAcrossMatrix runs the replay-vs-walk oracle over a
// fixed set of programs and checks it is not vacuous: every cell whose
// fault mix leaves the protocol walk unperturbed — SMT cores, OS
// scheduling with deschedules and page relocations, victimization storms,
// signature noise, injected aborts, snooping — replays retries, and the
// cells with network-delay faults replay none.
func TestReplayMatchesWalkAcrossMatrix(t *testing.T) {
	total := make(map[string]uint64)
	relocated := false // a page relocation in a replaying run
	for seed := int64(1); seed <= 12; seed++ {
		for name, out := range replayVsWalk(t, seed) {
			total[name] += out.Replays
			relocated = relocated || (out.Replays > 0 && out.Faults["relocate"] > 0)
		}
	}
	if !relocated {
		t.Errorf("no replaying run relocated a page")
	}
	for _, cfg := range matrix() {
		perturbed := false
		if cfg.Mix != "" {
			plan, err := fault.MixPlan(cfg.Mix, 1)
			if err != nil {
				t.Fatal(err)
			}
			perturbed = plan.NetDelayPct > 0
		}
		if got := total[cfg.Name]; (got == 0) != perturbed {
			t.Errorf("%s: %d replayed retries; network-delay faults: %v", cfg.Name, got, perturbed)
		}
	}
}
