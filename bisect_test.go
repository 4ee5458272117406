package logtmse

import (
	"math/bits"
	"reflect"
	"testing"
)

// findSabotageCell calibrates the canary: a (cell, seed) where a
// single skipped undo record (Sabotage.SkipLimit = 1) actually fires
// and an oracle catches it. Small signatures produce the aborts the
// sabotage needs; which workload/seed aborts first is an empirical
// detail the loop discovers rather than hard-codes.
func findSabotageCell(t *testing.T) (RunConfig, int64) {
	t.Helper()
	sab := Sabotage{SkipUndoRecord: true, SkipLimit: 1}
	for _, wl := range []string{"Mp3d", "BerkeleyDB", "Raytrace", "Radiosity", "Cholesky"} {
		for _, vn := range []string{"BS_64", "BS"} {
			v, _ := VariantByName(vn)
			for seed := int64(1); seed <= 3; seed++ {
				rc := RunConfig{Workload: wl, Variant: v, Scale: testScale,
					Sabotage: sab, Checks: AllChecks(0)}
				r, _ := RunOne(rc, seed)
				if len(r.CheckFailures) > 0 {
					rc.Checks = CheckConfig{}
					return rc, seed
				}
			}
		}
	}
	t.Fatal("no (workload, variant, seed) made the single-shot sabotage fire — aborts with undo records have vanished?")
	return RunConfig{}, 0
}

// TestBisectLocalizesSabotage is the bisect canary: plant exactly one
// undo-walk corruption, hand BisectFailure only the unchecked failing
// cell, and require the reported first-bad cycle to be the exact cycle
// a full oracle run detects — reached in O(log snapshots) probes.
func TestBisectLocalizesSabotage(t *testing.T) {
	rc, seed := findSabotageCell(t)

	// Ground truth: the earliest violation cycle of a fully checked run.
	chk := rc
	chk.Checks = AllChecks(0)
	r, _ := RunOne(chk, seed)
	if len(r.CheckFailures) == 0 {
		t.Fatal("calibrated cell no longer fails under oracles")
	}
	want := earliestFailure(r.CheckFailures)

	br, err := BisectFailure(rc, seed, 2_000)
	if err != nil {
		t.Fatal(err)
	}
	if br.Clean {
		t.Fatalf("bisect called the sabotaged run clean: %+v", br)
	}
	if br.FirstBad != want.Cycle {
		t.Errorf("bisect found cycle %d, full oracle run detects at %d", br.FirstBad, want.Cycle)
	}
	if br.Failure == nil || br.Failure.Oracle != want.Oracle {
		t.Errorf("bisect failure %+v, want oracle %q", br.Failure, want.Oracle)
	}
	if br.FirstBad < br.Window[0] || br.FirstBad > br.Window[1] {
		t.Errorf("first bad cycle %d outside window [%d,%d]", br.FirstBad, br.Window[0], br.Window[1])
	}
	if br.FromCycle > br.FirstBad {
		t.Errorf("nearest snapshot %d is past the failing cycle %d", br.FromCycle, br.FirstBad)
	}
	// One reference probe plus a binary search: never a linear scan.
	if maxProbes := 2 + bits.Len(uint(br.Snapshots)); br.Probes > maxProbes {
		t.Errorf("%d probes over %d snapshots, want <= %d", br.Probes, br.Snapshots, maxProbes)
	}
	if br.Snapshots > 1 && br.FromCycle == 0 && br.Window[1] != br.SnapEvery {
		// With several snapshots the search should normally narrow the
		// window below the whole run; only defects before the first
		// boundary legitimately pin FromCycle to zero.
		if br.Window[1] > br.EndCycle/2 && br.FirstBad > br.Window[1]/2 {
			t.Errorf("window [%d,%d) did not narrow (end %d, %d snapshots)",
				br.Window[0], br.Window[1], br.EndCycle, br.Snapshots)
		}
	}
	t.Logf("bisect: %s", br)
}

// TestBisectLocalizesLateSabotage plants the single corruption deep in
// the run (sparing the first qualifying aborts via Sabotage.SkipAfter),
// so bisect must exercise the nearest-snapshot path: a snapshot taken
// before the defect still reproduces it, later ones run clean — and a
// snapshot restored past the defect must NOT re-fire the sabotage
// (its firing counters ride in the capture).
func TestBisectLocalizesLateSabotage(t *testing.T) {
	rc, seed := findSabotageCell(t)

	// Place the defect mid-run: spare ever fewer qualifying aborts
	// until it still fires.
	clean := rc
	clean.Sabotage = Sabotage{}
	cr, err := RunOne(clean, seed)
	if err != nil {
		t.Fatal(err)
	}
	var want CheckFailure
	placed := false
	for after := int(cr.Stats.Aborts) / 2; after >= 1; after /= 2 {
		late := rc
		late.Sabotage = Sabotage{SkipUndoRecord: true, SkipLimit: 1, SkipAfter: after}
		late.Checks = AllChecks(0)
		r, _ := RunOne(late, seed)
		if len(r.CheckFailures) == 0 {
			continue
		}
		want = earliestFailure(r.CheckFailures)
		rc.Sabotage = late.Sabotage
		placed = true
		break
	}
	if !placed {
		t.Skip("could not place a late defect (all qualifying aborts are early)")
	}

	br, err := BisectFailure(rc, seed, 2_000)
	if err != nil {
		t.Fatal(err)
	}
	if br.Clean {
		t.Fatalf("bisect called the sabotaged run clean: %+v", br)
	}
	if br.FirstBad != want.Cycle {
		t.Errorf("bisect found cycle %d, full oracle run detects at %d", br.FirstBad, want.Cycle)
	}
	if want.Cycle > 3*br.SnapEvery && br.FromCycle == 0 {
		t.Errorf("defect at cycle %d but bisect never found a failing snapshot (window [%d,%d), %d snapshots)",
			want.Cycle, br.Window[0], br.Window[1], br.Snapshots)
	}
	if br.FirstBad < br.Window[0] || br.FirstBad > br.Window[1] {
		t.Errorf("first bad cycle %d outside window [%d,%d]", br.FirstBad, br.Window[0], br.Window[1])
	}
	t.Logf("bisect: %s (defect planted after sparing %d aborts)", br, rc.Sabotage.SkipAfter)
}

// TestBisectCleanRun: a correct cell bisects to "clean" — the
// collection run, the snapshots, and the reference probe all agree
// there is nothing to localize.
func TestBisectCleanRun(t *testing.T) {
	bs, _ := VariantByName("BS")
	rc := RunConfig{Workload: "Cholesky", Variant: bs, Scale: testScale}
	br, err := BisectFailure(rc, 1, 5_000)
	if err != nil {
		t.Fatal(err)
	}
	if !br.Clean {
		t.Fatalf("clean cell did not bisect clean: %+v", br)
	}
	if br.FirstBad != 0 || br.Failure != nil {
		t.Fatalf("clean result carries a failure: %+v", br)
	}
}

// TestBisectRejectsUnbisectable pins the gate BisectFailure and
// RunWithSnapshots share: observers and fault plans cannot be
// snapshotted and multi-chip machines are outside the snapshot layer,
// so both must refuse rather than return a bogus localization or
// self-check.
func TestBisectRejectsUnbisectable(t *testing.T) {
	bs, _ := VariantByName("BS")
	base := RunConfig{Workload: "Mp3d", Variant: bs, Scale: testScale}

	faulty := base
	faulty.Fault = FaultPlan{NackDelayPct: 50, NackDelayMax: 64, Seed: 9}
	traced := base
	traced.Sink = FuncSink(func(Event) {})
	p := DefaultParams()
	p.Chips = 2
	multiChip := base
	multiChip.Params = &p
	for name, rc := range map[string]RunConfig{"fault-plan": faulty, "traced": traced, "multi-chip": multiChip} {
		if _, err := BisectFailure(rc, 1, 5_000); err == nil {
			t.Errorf("BisectFailure accepted the %s cell", name)
		}
		if _, _, err := RunWithSnapshots(rc, 1, 5_000); err == nil {
			t.Errorf("RunWithSnapshots accepted the %s cell", name)
		}
	}
}

// TestSabotageUncacheableUnshareable: a sabotaged cell must never enter
// the result cache or the system pool under the correct cell's
// fingerprint.
func TestSabotageUncacheableUnshareable(t *testing.T) {
	bs, _ := VariantByName("BS")
	rc := RunConfig{Workload: "Mp3d", Variant: bs, Scale: testScale,
		Sabotage: Sabotage{SkipUndoRecord: true}}
	if Cacheable(rc) {
		t.Error("sabotaged cell is cacheable")
	}
	if _, err := Fingerprint(rc, 1); err == nil {
		t.Error("sabotaged cell got a fingerprint")
	}
}

// TestRunWithSnapshotsSelfCheck: for every workload, capturing
// snapshots during a run must not perturb it (the result equals
// RunOne's bit for bit), at least one mid-run capture must happen, and
// the restore-last-and-replay self-check must pass.
func TestRunWithSnapshotsSelfCheck(t *testing.T) {
	bs, _ := VariantByName("BS")
	for _, wl := range []string{"BerkeleyDB", "Cholesky", "Mp3d", "NestedMicro", "Radiosity", "Raytrace"} {
		wl := wl
		t.Run(wl, func(t *testing.T) {
			t.Parallel()
			rc := RunConfig{Workload: wl, Variant: bs, Scale: testScale}
			res, sc, err := RunWithSnapshots(rc, 1, 2_000)
			if err != nil {
				t.Fatal(err)
			}
			if sc.Snapshots == 0 {
				t.Fatalf("no snapshots captured (run ended at %d; lower the stride)", sc.EndCycle)
			}
			if !sc.Identical {
				t.Fatalf("self-check not identical: %+v", sc)
			}
			if sc.ResumedFrom == 0 || sc.ResumedFrom >= sc.EndCycle {
				t.Fatalf("implausible resume point %d (end %d)", sc.ResumedFrom, sc.EndCycle)
			}
			plain, err := RunOne(rc, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, plain) {
				t.Errorf("snapshot-collecting run differs from RunOne:\nsnap  %+v\nplain %+v", res, plain)
			}
		})
	}
}

// TestRunWithSnapshotsNothingCaptured: a stride longer than the run
// captures nothing, so nothing is replayed and the self-check must not
// claim identity.
func TestRunWithSnapshotsNothingCaptured(t *testing.T) {
	bs, _ := VariantByName("BS")
	rc := RunConfig{Workload: "Mp3d", Variant: bs, Scale: 0.02}
	res, sc, err := RunWithSnapshots(rc, 1, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Snapshots != 0 || sc.ResumedFrom != 0 {
		t.Fatalf("stride beyond the run captured something: %+v", sc)
	}
	if sc.Identical {
		t.Errorf("self-check claims identity with nothing replayed: %+v", sc)
	}
	if sc.EndCycle == 0 || res.Cycles != sc.EndCycle {
		t.Errorf("run result cycles %d, self-check end %d", res.Cycles, sc.EndCycle)
	}
}
