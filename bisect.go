package logtmse

import (
	"fmt"
	"reflect"

	"logtmse/internal/core"
	"logtmse/internal/snap"
	"logtmse/internal/sweep"
	"logtmse/internal/workload"
)

// Cycle-level bisect.
//
// A corrupted run usually announces itself long after the corruption: a
// final verification failure, a late oracle audit, a watchdog trip. The
// defect cycle is buried somewhere in a multi-million-cycle timeline,
// and replaying from zero with full instrumentation for every guess is
// how one burns an afternoon.
//
// BisectFailure localizes it in O(log n) partial replays. The failing
// run executes once more without any oracle attached — snapshots
// (internal/snap) don't coexist with hooks — capturing state every
// snapEvery cycles at quiescent boundaries. A probe then restores a
// snapshot onto a fresh machine and attaches a fresh checker: its
// shadow memory seeds from the restored state (damage that predates the
// snapshot is absorbed into the baseline and invisible), and threads
// caught mid-transaction hand it their open log frames, rewinding the
// shadow to committed state. The probe then runs the suffix and fails
// exactly when a violation occurs after the snapshot. Binary search
// over the snapshots finds the latest one that still reproduces the
// failure — the nearest snapshot — and the first violation of that
// probe's replay is the failing cycle.
//
// This works because sabotage (core.Sabotage) is machine state, not a
// hook: snapshots carry its firing counter, so a probe restored past
// the defect does not re-fire it. The fault injector, by contrast, is
// an external hook with its own schedule state — fault-plan runs
// cannot be bisected and are rejected up front.

// BisectResult reports where cycle-level bisect localized a failure.
type BisectResult struct {
	Workload string `json:"workload"`
	Variant  string `json:"variant"`
	Seed     int64  `json:"seed"`
	// SnapEvery is the requested snapshot stride (the effective stride
	// doubles when a very long run would exceed the snapshot budget).
	SnapEvery Cycle `json:"snap_every"`
	// EndCycle is the last cycle of the uninstrumented collection run.
	EndCycle Cycle `json:"end_cycle"`
	// Snapshots counts the snapshots collected.
	Snapshots int `json:"snapshots"`
	// Probes counts replays performed: the from-scratch reference plus
	// one partial replay per binary-search step.
	Probes int `json:"probes"`
	// Clean is true when the run completes, verifies, and no oracle
	// records a violation — nothing to bisect.
	Clean bool `json:"clean,omitempty"`
	// RunError is the collection run's own failure (verification error
	// or stuck threads), empty when it completed cleanly — an oracle
	// violation can precede any externally visible damage.
	RunError string `json:"run_error,omitempty"`
	// DetectedCycle is the first violation cycle of the from-scratch
	// reference probe (oracles attached from cycle 0).
	DetectedCycle Cycle `json:"detected_cycle"`
	// FirstBad is the first violation cycle replayed from the nearest
	// snapshot — the bisected failing cycle.
	FirstBad Cycle `json:"first_bad"`
	// FromCycle is the nearest snapshot's cycle: the latest boundary
	// from which the failure still reproduces. Restoring here replays
	// only FirstBad-FromCycle cycles to reach the defect.
	FromCycle Cycle `json:"from_cycle"`
	// Window brackets the replay: [FromCycle, the next snapshot's cycle
	// or EndCycle). Probes from boundaries at or past Window[1] run
	// clean.
	Window [2]Cycle `json:"window"`
	// Failure is the violation found at FirstBad.
	Failure *CheckFailure `json:"failure,omitempty"`
}

// String formats the headline localization.
func (r *BisectResult) String() string {
	if r.Clean {
		return fmt.Sprintf("%s/%s seed %d: clean (%d cycles, %d snapshots)",
			r.Workload, r.Variant, r.Seed, r.EndCycle, r.Snapshots)
	}
	return fmt.Sprintf("%s/%s seed %d: first bad cycle %d (window [%d,%d), %d snapshots, %d probes)",
		r.Workload, r.Variant, r.Seed, r.FirstBad, r.Window[0], r.Window[1], r.Snapshots, r.Probes)
}

// maxBisectSnaps bounds the snapshots held live during collection; past
// it, every other snapshot is dropped and the stride doubles (memory
// stays O(1) in run length, search stays O(log)).
const maxBisectSnaps = 512

// BisectFailure localizes the first failing cycle of a broken cell. The
// cell must be observer-free, fault-plan-free and on the
// single-chip signature-mode baseline (the snapshot layer's domain);
// rc.Checks selects the probing oracles (default: all, watchdog off).
// Typically rc.Sabotage arms the defect under study, but any
// deterministic in-engine defect an oracle can see is bisectable.
func BisectFailure(rc RunConfig, seed int64, snapEvery Cycle) (*BisectResult, error) {
	rc = rc.withDefaults()
	if err := rc.validate(); err != nil {
		return nil, err
	}
	if rc.Params.Sink != nil {
		return nil, errParamsSink
	}
	if rc.observed() {
		return nil, fmt.Errorf("logtmse: bisect needs an observer-free cell (snapshots don't coexist with hooks)")
	}
	if rc.Fault.Active() {
		return nil, fmt.Errorf("logtmse: the fault injector's schedule is hook state a snapshot cannot carry; bisect localizes sabotage- and engine-class defects")
	}
	if rc.Params.CD != CDSignature || rc.Params.Chips > 1 {
		return nil, fmt.Errorf("logtmse: bisect needs the single-chip signature-mode baseline")
	}
	if snapEvery <= 0 {
		snapEvery = 10_000
	}
	checks := rc.Checks
	if !checks.Any() {
		checks = AllChecks(0)
	}
	b, err := newBisector(rc, checks, seed)
	if err != nil {
		return nil, err
	}

	res := &BisectResult{
		Workload: rc.Workload, Variant: rc.Variant.Name, Seed: seed, SnapEvery: snapEvery,
	}
	err = sweep.Trap(func() error { return b.run(res, snapEvery) })
	if err != nil {
		return nil, err
	}
	return res, nil
}

// bisector holds everything needed to spawn the cell again and again.
type bisector struct {
	rc     RunConfig // normalized; Checks stripped (collection must be hook-free)
	checks CheckConfig
	seed   int64
	w      *workload.Workload
	p      core.Params
}

func newBisector(rc RunConfig, checks CheckConfig, seed int64) (*bisector, error) {
	w, ok := workload.ByName(rc.Workload)
	if !ok {
		return nil, fmt.Errorf("logtmse: unknown workload %q", rc.Workload)
	}
	p := *rc.Params
	p.Seed = seed
	p.Signature = rc.Variant.Sig
	rc.Checks = CheckConfig{}
	return &bisector{rc: rc, checks: checks, seed: seed, w: w, p: p}, nil
}

func (b *bisector) spawn() (*core.System, *workload.Instance, error) {
	sys, err := core.NewSystem(b.p)
	if err != nil {
		return nil, nil, err
	}
	inst, err := b.w.Spawn(sys, workload.Config{
		Mode:    b.rc.Variant.Mode,
		Threads: b.rc.Threads,
		Scale:   b.rc.Scale,
	})
	if err != nil {
		return nil, nil, err
	}
	sys.Sabotage = b.rc.Sabotage
	return sys, inst, nil
}

func (b *bisector) run(res *BisectResult, snapEvery Cycle) error {
	snaps, end, runErr, err := b.collect(snapEvery)
	if err != nil {
		return err
	}
	res.EndCycle = end
	res.Snapshots = len(snaps)
	if runErr != nil {
		res.RunError = runErr.Error()
	}

	// From-scratch reference probe: oracles from cycle 0 are the ground
	// truth the snapshot probes are searched against. No violation and a
	// clean collection run means there is nothing to bisect.
	rcRef := b.rc
	rcRef.Checks = b.checks
	rcRef.Cache = nil
	ref, refErr := runOneSafe(rcRef, b.seed)
	res.Probes++
	if len(ref.CheckFailures) == 0 {
		if runErr == nil && refErr == nil {
			res.Clean = true
			return nil
		}
		return fmt.Errorf("logtmse: %s/%s seed %d fails but no oracle records a violation — bisect has no probe signal (run error: %v / %v)",
			b.rc.Workload, b.rc.Variant.Name, b.seed, runErr, refErr)
	}
	first := earliestFailure(ref.CheckFailures)
	res.DetectedCycle = first.Cycle

	if len(snaps) == 0 {
		// The run ended before the first boundary (or none was
		// quiescent): the reference probe is the whole answer.
		res.FirstBad = first.Cycle
		res.Window = [2]Cycle{0, end}
		res.Failure = &first
		return nil
	}

	// Binary search for the latest snapshot whose probe still fails.
	// Invariant: lo fails (lo == -1 is the reference probe), hi is clean
	// (hi == len(snaps) is the empty suffix past the last violation).
	outs := make(map[int]probeOut)
	fails := func(i int) (bool, error) {
		out, ok := outs[i]
		if !ok {
			var err error
			out, err = b.probe(snaps[i])
			if err != nil {
				return false, err
			}
			outs[i] = out
			res.Probes++
		}
		return len(out.failures) > 0 || out.stuck, nil
	}
	lo, hi := -1, len(snaps)
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		bad, err := fails(mid)
		if err != nil {
			return err
		}
		if bad {
			lo = mid
		} else {
			hi = mid
		}
	}

	if lo == -1 {
		// Every snapshot probe is clean: the defect struck before the
		// first boundary, and only the reference probe sees it.
		res.FirstBad = first.Cycle
		res.FromCycle = 0
		res.Window = [2]Cycle{0, snaps[0].Cycle}
		res.Failure = &first
		return nil
	}
	out := outs[lo]
	res.FromCycle = snaps[lo].Cycle
	res.Window = [2]Cycle{snaps[lo].Cycle, end}
	if hi < len(snaps) {
		res.Window[1] = snaps[hi].Cycle
	}
	if len(out.failures) > 0 {
		f := earliestFailure(out.failures)
		res.FirstBad = f.Cycle
		res.Failure = &f
	} else {
		// Stuck probe with no recorded violation (no watchdog armed):
		// the hang is only bracketed, not pinned to a cycle.
		res.FirstBad = res.Window[1]
	}
	return nil
}

// collect replays the cell without hooks, capturing a snapshot every
// snapEvery cycles. It returns the snapshots, the end cycle, and the
// run's own completion error (nil when it finished and verified).
func (b *bisector) collect(snapEvery Cycle) ([]*snap.Snapshot, Cycle, error, error) {
	sys, inst, err := b.spawn()
	if err != nil {
		return nil, 0, nil, err
	}
	var snaps []*snap.Snapshot
	every := snapEvery
	for next := every; b.rc.MaxCycles == 0 || next < b.rc.MaxCycles; next += every {
		sys.RunUntil(next)
		if sys.AllDone() {
			break
		}
		// A busy cell is rarely capturable at the exact boundary cycle
		// (strong messages in flight), so hunt forward in sub-steps for
		// a quiescent point before writing this stride off. Capture is
		// read-only and RunUntil only advances the same deterministic
		// trajectory, so the hunt perturbs nothing. Open transactions
		// are fine: the probe's checker adopts their log frames.
		step := every / 16
		for at := next; ; at += step {
			if s, cerr := snap.Capture(sys, inst); cerr == nil {
				snaps = append(snaps, s)
				if len(snaps) >= maxBisectSnaps {
					kept := snaps[:0]
					for i := 0; i < len(snaps); i += 2 {
						kept = append(kept, snaps[i])
					}
					for i := len(kept); i < len(snaps); i++ {
						snaps[i] = nil
					}
					snaps = kept
					every *= 2
				}
				break
			}
			if step == 0 || at+step >= next+every/2 {
				break
			}
			sys.RunUntil(at + step)
			if sys.AllDone() {
				break
			}
		}
		if sys.AllDone() {
			break
		}
	}
	var end Cycle
	if b.rc.MaxCycles > 0 {
		end = sys.RunUntil(b.rc.MaxCycles)
	} else {
		end = sys.Run()
	}
	var runErr error
	if !sys.AllDone() {
		runErr = fmt.Errorf("threads stuck: %v", sys.Stuck())
	} else if verr := inst.Verify(sys); verr != nil {
		runErr = verr
	}
	return snaps, end, runErr, nil
}

type probeOut struct {
	failures []CheckFailure
	stuck    bool
}

// probe restores one snapshot onto a fresh machine, attaches a fresh
// checker (shadow memory seeded from the restored state — damage before
// the snapshot is baseline, not violation), and replays the suffix.
func (b *bisector) probe(s *snap.Snapshot) (probeOut, error) {
	sys, inst, err := b.spawn()
	if err != nil {
		return probeOut{}, err
	}
	if err := snap.Restore(sys, inst, s); err != nil {
		return probeOut{}, err
	}
	chk := sys.AttachChecker(b.checks)
	if b.rc.MaxCycles > 0 {
		sys.RunUntil(b.rc.MaxCycles)
	} else {
		sys.Run()
	}
	return probeOut{failures: chk.Failures(), stuck: !sys.AllDone()}, nil
}

// earliestFailure returns the violation with the smallest cycle.
func earliestFailure(fs []CheckFailure) CheckFailure {
	first := fs[0]
	for _, f := range fs[1:] {
		if f.Cycle < first.Cycle {
			first = f
		}
	}
	return first
}

// SnapSelfCheck reports a snapshot round-trip self-check (see
// RunWithSnapshots; surfaced by logtmsim -snap-every).
type SnapSelfCheck struct {
	// Snapshots counts captures taken during the run.
	Snapshots int `json:"snapshots"`
	// ResumedFrom is the cycle of the last snapshot, which the check
	// restores and replays (0 when the run ended before the first
	// boundary).
	ResumedFrom Cycle `json:"resumed_from"`
	// EndCycle is the run's final cycle.
	EndCycle Cycle `json:"end_cycle"`
	// Identical is true when the resumed replay finished at the same
	// cycle with bit-identical Stats and a passing verification. It
	// stays false when nothing was captured: no replay, no proof.
	Identical bool `json:"identical"`
}

// RunWithSnapshots runs one cell capturing a snapshot every `every`
// cycles, then proves the snapshot layer on the spot: the last capture
// is restored onto a freshly spawned machine and replayed to
// completion, and the replay must finish at the same cycle with
// bit-identical Stats. The cell must satisfy the same constraints as
// BisectFailure (observer-free, no fault plan, single-chip
// signature baseline); the returned RunResult is the original run's,
// bit-identical to RunOne.
func RunWithSnapshots(rc RunConfig, seed int64, every Cycle) (RunResult, SnapSelfCheck, error) {
	rc = rc.withDefaults()
	var sc SnapSelfCheck
	if err := rc.validate(); err != nil {
		return RunResult{}, sc, err
	}
	if every <= 0 {
		return RunResult{}, sc, fmt.Errorf("logtmse: snapshot stride must be positive")
	}
	if rc.Checks.Any() {
		return RunResult{}, sc, fmt.Errorf("logtmse: snapshots don't coexist with oracles (use BisectFailure to probe a checked run)")
	}
	if rc.Params.Sink != nil {
		return RunResult{}, sc, errParamsSink
	}
	if rc.observed() {
		return RunResult{}, sc, fmt.Errorf("logtmse: snapshots need an observer-free cell")
	}
	if rc.Fault.Active() {
		return RunResult{}, sc, fmt.Errorf("logtmse: the fault injector is not snapshot-capable")
	}
	if rc.Params.CD != CDSignature || rc.Params.Chips > 1 {
		return RunResult{}, sc, fmt.Errorf("logtmse: snapshots need the single-chip signature-mode baseline")
	}
	b, err := newBisector(rc, CheckConfig{}, seed)
	if err != nil {
		return RunResult{}, sc, err
	}

	var res RunResult
	err = sweep.Trap(func() error {
		sys, inst, err := b.spawn()
		if err != nil {
			return err
		}
		var last *snap.Snapshot
		for next := every; rc.MaxCycles == 0 || next < rc.MaxCycles; next += every {
			sys.RunUntil(next)
			if sys.AllDone() {
				break
			}
			if s, cerr := snap.Capture(sys, inst); cerr == nil {
				last = s
				sc.Snapshots++
			}
		}
		var end Cycle
		if rc.MaxCycles > 0 {
			end = sys.RunUntil(rc.MaxCycles)
		} else {
			end = sys.Run()
		}
		sc.EndCycle = end
		res, err = finishBisectRun(rc, seed, sys, inst, end)
		if err != nil {
			return err
		}
		if last == nil {
			return nil // nothing captured, nothing replayed
		}
		sc.ResumedFrom = last.Cycle

		sys2, inst2, err := b.spawn()
		if err != nil {
			return err
		}
		if err := snap.Restore(sys2, inst2, last); err != nil {
			return err
		}
		end2 := sys2.Run()
		res2, err := finishBisectRun(rc, seed, sys2, inst2, end2)
		if err != nil {
			return fmt.Errorf("snapshot replay from cycle %d: %w", last.Cycle, err)
		}
		if end2 != end || !reflect.DeepEqual(res2.Stats, res.Stats) {
			return fmt.Errorf("snapshot replay from cycle %d diverged: end %d vs %d", last.Cycle, end2, end)
		}
		sc.Identical = true
		return nil
	})
	if err != nil {
		return res, sc, err
	}
	return res, sc, nil
}

// finishBisectRun is the run postlude for the snapshot-capable subset:
// completion check, verification, result assembly. Unlike
// finishSharedRun it never pools the machine — sabotage may have run
// here.
func finishBisectRun(rc RunConfig, seed int64, sys *core.System, inst *workload.Instance, end Cycle) (RunResult, error) {
	res := RunResult{Seed: seed}
	if !sys.AllDone() {
		return res, fmt.Errorf("logtmse: %s/%s seed %d: threads stuck: %v\n%s",
			rc.Workload, rc.Variant.Name, seed, sys.Stuck(), sys.Diagnose())
	}
	if err := inst.Verify(sys); err != nil {
		return res, fmt.Errorf("logtmse: %s/%s seed %d: %w", rc.Workload, rc.Variant.Name, seed, err)
	}
	st := sys.Stats()
	if st.WorkUnits == 0 {
		return res, fmt.Errorf("logtmse: %s produced no work units", rc.Workload)
	}
	res.Cycles = end
	res.WorkUnits = st.WorkUnits
	res.CyclesPerUnit = float64(end) / float64(st.WorkUnits)
	res.Stats = st
	return res, nil
}
