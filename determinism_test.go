package logtmse

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"logtmse/internal/core"
	"logtmse/internal/snap"
	"logtmse/internal/workload"
)

// goldenCell pins one cell's headline Stats to values recorded before the
// zero-alloc engine/storage rewrite. The event queue, memory store,
// directory and perfect signature are all implementation details of the
// same (cycle, sequence) total order, so swapping them must leave every
// counter bit-identical. A diff here means the optimization changed
// simulated behavior, not just speed.
type goldenCell struct {
	workload, variant string
	seed              int64
	cycles            Cycle
	workUnits         uint64
	commits, aborts   uint64
	stalls            uint64
	l1Hits, nacks     uint64
}

// Recorded at the pre-rewrite revision with scale 0.05.
var goldenCells = []goldenCell{
	{"BerkeleyDB", "BS", 5, 303375, 32, 288, 1405, 303143, 4876, 280260},
	{"Mp3d", "Perfect", 2, 279250, 25, 852, 154, 2332, 1726, 2261},
	{"Raytrace", "CBS", 1, 1721607, 1, 2392, 4, 2151839, 2049, 2082871},
	{"Cholesky", "DBS", 3, 50991, 1, 64, 465, 1598, 1570, 1278},
	{"Radiosity", "BS_64", 7, 90977, 32, 704, 231, 30227, 744, 29331},
}

// TestGoldenFingerprints verifies the engine-swap bit-identity acceptance
// criterion against cells frozen before the rewrite.
func TestGoldenFingerprints(t *testing.T) {
	for _, g := range goldenCells {
		t.Run(g.workload+"/"+g.variant, func(t *testing.T) {
			v, ok := VariantByName(g.variant)
			if !ok {
				t.Fatalf("unknown variant %q", g.variant)
			}
			r, err := RunOne(RunConfig{
				Workload: g.workload, Variant: v, Scale: 0.05,
			}, g.seed)
			if err != nil {
				t.Fatal(err)
			}
			st := r.Stats
			got := goldenCell{
				g.workload, g.variant, g.seed,
				r.Cycles, r.WorkUnits, st.Commits, st.Aborts, st.Stalls,
				st.Coh.L1Hits, st.Coh.NACKs,
			}
			if got != g {
				t.Errorf("fingerprint drifted:\n got %+v\nwant %+v", got, g)
			}
		})
	}
}

// TestRunParallelIdentity pins the sweep-runner contract at the harness
// level: an experiment cell aggregated at -j1 must be bit-identical to
// the same cell at -j8, runs in seed order included.
func TestRunParallelIdentity(t *testing.T) {
	v, _ := VariantByName("BS")
	rc := RunConfig{
		Workload: "BerkeleyDB", Variant: v, Scale: testScale,
		Seeds: []int64{1, 2, 3, 4, 5, 6},
	}
	rc.Jobs = 1
	serial, err := Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	rc.Jobs = 8
	parallel, err := Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("Run differs between -j1 and -j8:\nserial   %+v\nparallel %+v", serial, parallel)
	}
}

// TestFigure4ParallelIdentity extends the identity to the fanned-out
// variants x seeds cell matrix of a Figure 4 row.
func TestFigure4ParallelIdentity(t *testing.T) {
	p := DefaultParams()
	serial, err := Figure4(context.Background(), RunConfig{Workload: "Mp3d", Scale: testScale, Seeds: []int64{1, 2}, Params: &p, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Figure4(context.Background(), RunConfig{Workload: "Mp3d", Scale: testScale, Seeds: []int64{1, 2}, Params: &p, Jobs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("Figure4 differs between -j1 and -j8")
	}
}

// TestDeterministicEventStream is the observability regression gate: two
// runs of the same seed must produce bit-identical Stats and identical
// lifecycle event streams. Only the first run's stream is held in
// memory; the second is compared against it event by event as it is
// emitted.
func TestDeterministicEventStream(t *testing.T) {
	v, _ := VariantByName("BS")
	run := func(sink Sink) RunResult {
		r, err := RunOne(RunConfig{
			Workload: "BerkeleyDB", Variant: v, Scale: testScale, Sink: sink,
		}, 5)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	rec1 := &Recorder{}
	r1 := run(rec1)
	if len(rec1.Events) == 0 {
		t.Fatalf("no events recorded")
	}
	n, firstDiff := 0, ""
	r2 := run(FuncSink(func(e Event) {
		if firstDiff == "" && n < len(rec1.Events) && e != rec1.Events[n] {
			firstDiff = fmt.Sprintf("event %d differs:\n%+v\n%+v", n, rec1.Events[n], e)
		}
		n++
	}))
	if r1.Stats != r2.Stats {
		t.Errorf("same seed, different Stats:\n%+v\n%+v", r1.Stats, r2.Stats)
	}
	if firstDiff != "" {
		t.Fatal(firstDiff)
	}
	if n != len(rec1.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(rec1.Events), n)
	}
	// The exported timeline is therefore byte-identical too, provided
	// the exporter itself is deterministic.
	a, b := sha256.New(), sha256.New()
	if err := WriteCatapult(a, rec1.Events); err != nil {
		t.Fatal(err)
	}
	if err := WriteCatapult(b, rec1.Events); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Sum(nil), b.Sum(nil)) {
		t.Errorf("catapult exports of one event stream differ")
	}
}

// TestInstrumentationDoesNotPerturb is the bit-identity acceptance
// criterion: attaching a sink must leave the simulated execution
// untouched — Stats identical to the bare run for the same seed. A sink
// also turns off NACK retry-verdict replay, so the instrumented run is
// the full-walk reference for the bare run's replayed retries; the cells
// cover the retry-bound TM grid, Mp3d and Cholesky. The sink counts
// rather than records, so the retry-storm cells' streams are never held
// in memory.
func TestInstrumentationDoesNotPerturb(t *testing.T) {
	type cell struct{ wl, variant string }
	cells := []cell{{"Mp3d", "CBS"}, {"Cholesky", "CBS"}}
	for _, wl := range []string{"Raytrace", "BerkeleyDB"} {
		for _, vn := range []string{"Perfect", "CBS", "BS_64"} {
			cells = append(cells, cell{wl, vn})
		}
	}
	for _, c := range cells {
		wl := c.wl + "/" + c.variant
		v, _ := VariantByName(c.variant)
		bare, err := RunOne(RunConfig{Workload: c.wl, Variant: v, Scale: testScale}, 9)
		if err != nil {
			t.Fatal(err)
		}
		var events, commits uint64
		sink := FuncSink(func(e Event) {
			events++
			if e.Kind == EvTxCommit && e.Depth == 1 {
				commits++
			}
		})
		inst, err := RunOne(RunConfig{Workload: c.wl, Variant: v, Scale: testScale, Sink: sink}, 9)
		if err != nil {
			t.Fatal(err)
		}
		if bare.Stats != inst.Stats {
			t.Errorf("%s: instrumentation perturbed Stats:\nbare %+v\ninst %+v", wl, bare.Stats, inst.Stats)
		}
		if bare.Cycles != inst.Cycles {
			t.Errorf("%s: cycle count changed: %d vs %d", wl, bare.Cycles, inst.Cycles)
		}
		if events == 0 {
			t.Errorf("%s: sink saw no events", wl)
		}
		if commits != inst.Stats.Commits {
			t.Errorf("%s: %d outermost commit events, Stats.Commits %d", wl, commits, inst.Stats.Commits)
		}
	}
}

// TestOraclesDoNotPerturb is the chaos-tooling bit-identity gate: the
// invariant oracles only observe (weak ticks, no latency, no engine RNG
// draws), so a fully checked run must leave Stats and cycle counts
// bit-identical to the bare run of the same seed — and report zero
// violations on a healthy model.
func TestOraclesDoNotPerturb(t *testing.T) {
	v, _ := VariantByName("BS")
	bare, err := RunOne(RunConfig{Workload: "BerkeleyDB", Variant: v, Scale: testScale}, 11)
	if err != nil {
		t.Fatal(err)
	}
	checked, err := RunOne(RunConfig{
		Workload: "BerkeleyDB", Variant: v, Scale: testScale,
		Checks: AllChecks(500_000),
	}, 11)
	if err != nil {
		t.Fatal(err)
	}
	if bare.Stats != checked.Stats {
		t.Errorf("oracles perturbed Stats:\nbare %+v\nchecked %+v", bare.Stats, checked.Stats)
	}
	if bare.Cycles != checked.Cycles {
		t.Errorf("oracles changed cycle count: %d vs %d", bare.Cycles, checked.Cycles)
	}
	if len(checked.CheckFailures) != 0 {
		t.Errorf("healthy run reported violations: %v", checked.CheckFailures)
	}
}

// TestFaultInjectionDeterministic pins the chaos replay contract: the
// same fault plan and seed reproduce identical Stats and fault counts,
// and an inactive plan is bit-identical to no plan at all.
func TestFaultInjectionDeterministic(t *testing.T) {
	v, _ := VariantByName("BS")
	plan, err := FaultMix("storm", 0) // seed derived from the run seed
	if err != nil {
		t.Fatal(err)
	}
	run := func() RunResult {
		r, err := RunOne(RunConfig{
			Workload: "BerkeleyDB", Variant: v, Scale: testScale,
			Checks: AllChecks(500_000), Fault: plan, MaxCycles: 3_000_000,
		}, 17)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r1, r2 := run(), run()
	if r1.Stats != r2.Stats {
		t.Errorf("same plan+seed, different Stats:\n%+v\n%+v", r1.Stats, r2.Stats)
	}
	if len(r1.Faults) == 0 {
		t.Errorf("storm plan injected nothing: %v", r1.Faults)
	}
	for k, n := range r1.Faults {
		if r2.Faults[k] != n {
			t.Errorf("fault count %s differs: %d vs %d", k, n, r2.Faults[k])
		}
	}
	if len(r1.CheckFailures) != 0 {
		t.Errorf("oracle violations under injection: %v", r1.CheckFailures)
	}

	// A zero-valued plan must not even attach the injector.
	bare, err := RunOne(RunConfig{Workload: "BerkeleyDB", Variant: v, Scale: testScale}, 17)
	if err != nil {
		t.Fatal(err)
	}
	inert, err := RunOne(RunConfig{
		Workload: "BerkeleyDB", Variant: v, Scale: testScale, Fault: FaultPlan{},
	}, 17)
	if err != nil {
		t.Fatal(err)
	}
	if bare.Stats != inert.Stats || bare.Cycles != inert.Cycles {
		t.Errorf("inactive fault plan perturbed the run")
	}
}

// TestTraceOutHasSlicePerCommit mirrors the CLI acceptance criterion:
// the exported timeline contains at least one complete-duration slice
// per committed outermost transaction.
func TestTraceOutHasSlicePerCommit(t *testing.T) {
	v, _ := VariantByName("Perfect")
	var buf bytes.Buffer
	cw := NewCatapultWriter(&buf)
	r, err := RunOne(RunConfig{
		Workload: "Cholesky", Variant: v, Scale: testScale, Sink: cw,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	var doc CatapultTrace
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	slices := 0
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" && e.Name == "tx" {
			slices++
		}
	}
	if uint64(slices) != r.Stats.Commits {
		t.Errorf("timeline has %d tx slices for %d commits", slices, r.Stats.Commits)
	}
}

// TestResetAndRestoreEquivalence closes the loop on machine reuse: for
// every workload, a pooled machine (System.Reset + re-spawn) and a
// machine restored from a mid-run snapshot must reproduce a fresh
// machine's run bit for bit. The capture is taken at the first
// quiescent boundary past a cut; every workload must reach one. (The
// closure-based reference executor's half lives next to the reference
// bodies in internal/workload.)
func TestResetAndRestoreEquivalence(t *testing.T) {
	workloads := []string{"BerkeleyDB", "Cholesky", "Mp3d", "NestedMicro", "Radiosity", "Raytrace"}
	for _, wname := range workloads {
		wname := wname
		t.Run(wname+"/compiled", func(t *testing.T) {
			t.Parallel()
			const seed = 3
			p := core.DefaultParams()
			p.Cores, p.ThreadsPerCore = 4, 2
			p.GridW, p.GridH = 2, 2
			p.L2Banks = 4
			p.Seed = seed
			w, ok := workload.ByName(wname)
			if !ok {
				t.Fatalf("no workload %q", wname)
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

			// Fresh reference run, snapshotting at the first mid-run
			// boundary on the way.
			sys, inst := spawn()
			var shot *snap.Snapshot
			for cut := Cycle(500); cut <= 12_000; cut += 500 {
				sys.RunUntil(cut)
				if sys.AllDone() {
					break
				}
				if s, err := snap.Capture(sys, inst); err == nil {
					shot = s
					break
				}
			}
			want := finish(sys, inst)
			if shot == nil {
				t.Fatalf("no capturable boundary before the run ended at cycle %d", want.Cycles)
			}

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
