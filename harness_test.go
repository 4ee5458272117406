package logtmse

import (
	"context"
	"math"
	"strings"
	"testing"

	"logtmse/internal/workload"
)

const testScale = 0.03

func TestFigure4VariantsOrder(t *testing.T) {
	vs := Figure4Variants()
	want := []string{"Lock", "Perfect", "BS", "CBS", "DBS", "BS_64"}
	if len(vs) != len(want) {
		t.Fatalf("got %d variants", len(vs))
	}
	for i, n := range want {
		if vs[i].Name != n {
			t.Errorf("variant %d = %s, want %s", i, vs[i].Name, n)
		}
	}
	if vs[0].Mode != workload.Lock {
		t.Errorf("Lock variant has TM mode")
	}
	for _, v := range vs[1:] {
		if v.Mode != workload.TM {
			t.Errorf("%s should be TM mode", v.Name)
		}
	}
	if vs[5].Sig.Bits != 64 {
		t.Errorf("BS_64 bits = %d", vs[5].Sig.Bits)
	}
}

func TestVariantByName(t *testing.T) {
	v, ok := VariantByName("DBS")
	if !ok || v.Sig.Bits != 2048 {
		t.Errorf("DBS lookup failed: %+v %v", v, ok)
	}
	if _, ok := VariantByName("nope"); ok {
		t.Errorf("unknown variant accepted")
	}
}

func TestWorkloadsExposed(t *testing.T) {
	if len(Workloads()) != 5 {
		t.Errorf("Workloads() = %d entries", len(Workloads()))
	}
	w, ok := WorkloadByName("Mp3d")
	if !ok || w.Name != "Mp3d" {
		t.Errorf("WorkloadByName failed")
	}
}

func TestRunOneUnknownWorkload(t *testing.T) {
	v, _ := VariantByName("Perfect")
	if _, err := RunOne(RunConfig{Workload: "nope", Variant: v}, 1); err == nil {
		t.Errorf("unknown workload accepted")
	}
}

func TestRunOneBasic(t *testing.T) {
	v, _ := VariantByName("Perfect")
	r, err := RunOne(RunConfig{Workload: "Cholesky", Variant: v, Scale: testScale}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles == 0 || r.WorkUnits == 0 || r.CyclesPerUnit <= 0 {
		t.Errorf("degenerate result: %+v", r)
	}
	if r.Stats.Commits == 0 {
		t.Errorf("no commits in a TM run")
	}
}

// TestRunOneTrapsPanickingObserver: a panicking event Sink fails its
// cell with an error instead of killing the sweep around it.
func TestRunOneTrapsPanickingObserver(t *testing.T) {
	v, _ := VariantByName("Perfect")
	rc := RunConfig{
		Workload: "Cholesky",
		Variant:  v,
		Scale:    testScale,
		Sink:     FuncSink(func(Event) { panic("observer bug") }),
	}
	_, err := RunOne(rc, 1)
	if err == nil {
		t.Fatal("panicking sink did not fail the cell")
	}
	if got := err.Error(); !strings.Contains(got, "cell panicked") || !strings.Contains(got, "observer bug") {
		t.Fatalf("err = %v, want trapped panic naming the observer bug", err)
	}
}

// TestParamsSinkRejected: the harness builds the engine's sink from
// RunConfig.Sink, so a Params-level sink is an error that names the
// field to use instead — in RunOne (and through it Run) and in
// RunWithSnapshots.
func TestParamsSinkRejected(t *testing.T) {
	v, _ := VariantByName("BS")
	p := DefaultParams()
	p.Sink = FuncSink(func(Event) {})
	rc := RunConfig{Workload: "Mp3d", Variant: v, Scale: testScale, Params: &p}
	if _, err := RunOne(rc, 1); err == nil || !strings.Contains(err.Error(), "RunConfig.Sink") {
		t.Errorf("RunOne: err = %v, want a rejection naming RunConfig.Sink", err)
	}
	if _, _, err := RunWithSnapshots(rc, 1, 5_000); err == nil || !strings.Contains(err.Error(), "RunConfig.Sink") {
		t.Errorf("RunWithSnapshots: err = %v, want a rejection naming RunConfig.Sink", err)
	}
}

func TestRunAggregatesSeeds(t *testing.T) {
	v, _ := VariantByName("Perfect")
	agg, err := Run(RunConfig{
		Workload: "Mp3d", Variant: v, Scale: testScale, Seeds: []int64{1, 2, 3, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(agg.Runs) != 4 || agg.CPU.N() != 4 {
		t.Fatalf("runs = %d", len(agg.Runs))
	}
	if agg.Mean() <= 0 {
		t.Errorf("mean = %f", agg.Mean())
	}
	if agg.CI95() < 0 {
		t.Errorf("negative CI")
	}
	tot := agg.TotalStats()
	var sum uint64
	for _, r := range agg.Runs {
		sum += r.Stats.Commits
	}
	if tot.Commits != sum {
		t.Errorf("TotalStats commits = %d, want %d", tot.Commits, sum)
	}
}

func TestRunDefaultsApplied(t *testing.T) {
	v, _ := VariantByName("Perfect")
	rc := RunConfig{Workload: "Cholesky", Variant: v, Scale: testScale}
	agg, err := Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	if len(agg.Runs) != 3 {
		t.Errorf("default seeds = %d runs, want 3", len(agg.Runs))
	}
}

func TestRunResultsDeterministicPerSeed(t *testing.T) {
	v, _ := VariantByName("BS")
	r1, err := RunOne(RunConfig{Workload: "Radiosity", Variant: v, Scale: testScale}, 7)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunOne(RunConfig{Workload: "Radiosity", Variant: v, Scale: testScale}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles || r1.Stats.Commits != r2.Stats.Commits ||
		r1.Stats.Stalls != r2.Stats.Stalls {
		t.Errorf("same seed diverged: %+v vs %+v", r1, r2)
	}
}

func TestFigure4RowSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("full row is slow")
	}
	p := DefaultParams()
	row, err := Figure4(context.Background(), RunConfig{Workload: "Mp3d", Scale: testScale, Seeds: []int64{1, 2}, Params: &p}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if row.Speedup["Lock"] != 1.0 {
		t.Errorf("Lock speedup = %f, must be 1 by construction", row.Speedup["Lock"])
	}
	for _, v := range Figure4Variants() {
		if row.Speedup[v.Name] <= 0 {
			t.Errorf("%s speedup = %f", v.Name, row.Speedup[v.Name])
		}
	}
}

// The headline result at miniature scale: TM variants must not lose badly
// to locks on the TM-friendly workloads, and every variant must verify.
func TestAllVariantsVerifyOnAllWorkloads(t *testing.T) {
	for _, w := range Workloads() {
		for _, v := range Figure4Variants() {
			w, v := w, v
			t.Run(w.Name+"/"+v.Name, func(t *testing.T) {
				t.Parallel()
				if _, err := RunOne(RunConfig{Workload: w.Name, Variant: v, Scale: testScale}, 3); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestPublicTypeAliases(t *testing.T) {
	// The facade must expose a usable system without internal imports.
	p := DefaultParams()
	p.Cores = 2
	p.GridW, p.GridH = 2, 1
	p.L2Banks = 2
	sys, err := NewSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	pt := sys.NewPageTable(ASID(1))
	var got uint64
	b := NewBarrier(2)
	for i := 0; i < 2; i++ {
		i := i
		if _, err := sys.SpawnOn(i, 0, "t", 1, pt, func(a *API) {
			a.Transaction(func() { a.FetchAdd(VAddr(0x40), 1) })
			a.Barrier(b)
			if i == 0 {
				got = a.Load(VAddr(0x40))
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	sys.Run()
	if got != 2 {
		t.Errorf("counter = %d", got)
	}
}

func TestSnoopProtocolEndToEnd(t *testing.T) {
	p := DefaultParams()
	p.Protocol = ProtocolSnoop
	v, _ := VariantByName("Perfect")
	r, err := RunOne(RunConfig{Workload: "Mp3d", Variant: v, Scale: testScale, Params: &p}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.Coh.Broadcasts == 0 {
		t.Errorf("snoop run produced no broadcasts")
	}
}

func TestVariantNameFormatting(t *testing.T) {
	for _, v := range Figure4Variants() {
		if strings.TrimSpace(v.Name) == "" {
			t.Errorf("empty variant name")
		}
	}
}

func TestH3VariantEndToEnd(t *testing.T) {
	// The H3 extension signature must run every workload correctly.
	v := Variant{Name: "H3_1024", Mode: 0, Sig: SigConfig{Kind: SigH3, Bits: 1024}}
	for _, wl := range []string{"BerkeleyDB", "Mp3d"} {
		if _, err := RunOne(RunConfig{Workload: wl, Variant: v, Scale: testScale}, 2); err != nil {
			t.Errorf("%s under H3: %v", wl, err)
		}
	}
}

// TestUnreachedBoundKeepsRun: a MaxCycles the run never reaches changes
// nothing; the bounded run measures exactly what the unbounded one does.
func TestUnreachedBoundKeepsRun(t *testing.T) {
	v, _ := VariantByName("Perfect")
	rc := RunConfig{Workload: "Mp3d", Variant: v, Scale: testScale}
	open, err := RunOne(rc, 1)
	if err != nil {
		t.Fatal(err)
	}
	rc.MaxCycles = 100 * open.Cycles
	bounded, err := RunOne(rc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if bounded.Cycles != open.Cycles || bounded.Stats != open.Stats {
		t.Errorf("a bound the run never reaches changed the run: %d vs %d cycles", bounded.Cycles, open.Cycles)
	}
}

// TestInvalidScaleAndThreadsRejected: a scale that is negative or not
// finite, or a negative thread count, must be refused with an error
// naming the field, by RunOne and RunWithSnapshots alike, instead of
// panicking in a workload constructor or reporting a run sized from a
// meaningless number.
func TestInvalidScaleAndThreadsRejected(t *testing.T) {
	v, _ := VariantByName("Perfect")
	for _, c := range []struct {
		name    string
		scale   float64
		threads int
		field   string
	}{
		{"negative scale", -1, 0, "Scale"},
		{"NaN scale", math.NaN(), 0, "Scale"},
		{"infinite scale", math.Inf(1), 0, "Scale"},
		{"negative threads", testScale, -3, "Threads"},
	} {
		t.Run(c.name, func(t *testing.T) {
			rc := RunConfig{Workload: "Mp3d", Variant: v, Scale: c.scale, Threads: c.threads}
			if _, err := RunOne(rc, 1); err == nil || !strings.HasPrefix(err.Error(), "logtmse: "+c.field+" (") {
				t.Errorf("RunOne: err = %v, want a rejection naming %s", err, c.field)
			}
			if _, _, err := RunWithSnapshots(rc, 1, 1000); err == nil || !strings.HasPrefix(err.Error(), "logtmse: "+c.field+" (") {
				t.Errorf("RunWithSnapshots: err = %v, want a rejection naming %s", err, c.field)
			}
		})
	}
}
