package logtmse

import (
	"context"
	"math"
	"reflect"
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

// TestTotalStatsCoversEveryField sets every Stats field, the embedded
// coherence counters included, to a distinct value in each of two runs
// and checks TotalStats field by field: a sum, except the high-water
// marks, which keep the larger value. A field TotalStats forgets reads
// 0 in a multi-seed table.
func TestTotalStatsCoversEveryField(t *testing.T) {
	highWater := map[string]bool{"ReadSetMax": true, "WriteSetMax": true, "MaxLogBytes": true}
	var runs [2]Stats
	var leaves func(a, b, tot reflect.Value, path string, fill bool)
	n := uint64(0)
	leaves = func(a, b, tot reflect.Value, path string, fill bool) {
		for i := 0; i < a.NumField(); i++ {
			name := path + a.Type().Field(i).Name
			fa, fb, ft := a.Field(i), b.Field(i), tot.Field(i)
			switch fa.Kind() {
			case reflect.Struct:
				leaves(fa, fb, ft, name+".", fill)
			case reflect.Uint64, reflect.Int:
				if fill {
					// Distinct per field; the second run's is the larger
					// for every other field, so a max that keeps the
					// first value or a sum in place of a max shows.
					n++
					x, y := 3*n, 1000+5*n
					if n%2 == 0 {
						x, y = y, x
					}
					if fa.Kind() == reflect.Int {
						fa.SetInt(int64(x))
						fb.SetInt(int64(y))
					} else {
						fa.SetUint(x)
						fb.SetUint(y)
					}
					continue
				}
				var x, y, got uint64
				if fa.Kind() == reflect.Int {
					x, y, got = uint64(fa.Int()), uint64(fb.Int()), uint64(ft.Int())
				} else {
					x, y, got = fa.Uint(), fb.Uint(), ft.Uint()
				}
				want := x + y
				if highWater[name] {
					want = max(x, y)
				}
				if got != want {
					t.Errorf("TotalStats.%s = %d, want %d (runs %d and %d)", name, got, want, x, y)
				}
			default:
				t.Fatalf("Stats.%s has kind %s; teach this test and Stats.Add about it", name, fa.Kind())
			}
		}
	}
	va, vb := reflect.ValueOf(&runs[0]).Elem(), reflect.ValueOf(&runs[1]).Elem()
	leaves(va, vb, reflect.ValueOf(&Stats{}).Elem(), "", true)
	agg := Aggregate{Runs: []RunResult{{Stats: runs[0]}, {Stats: runs[1]}}}
	tot := agg.TotalStats()
	leaves(va, vb, reflect.ValueOf(&tot).Elem(), "", false)
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
	row, err := Figure4(context.Background(), RunConfig{Workload: "Mp3d", Scale: testScale, Seeds: []int64{1, 2}, Params: &p})
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

// TestSinkReceivesStickyForwards: RunConfig.Sink reaches the memory
// system as well as the engine. Only the coherence protocol emits
// sticky forwards; a 4 KB L1 victimizes BerkeleyDB's transactional
// blocks often enough to produce them. On the four-chip machine each
// chip's events must carry machine-global core ids, so together they
// name a core on every chip.
func TestSinkReceivesStickyForwards(t *testing.T) {
	bs, _ := VariantByName("BS")
	for _, chips := range []int{1, 4} {
		p := DefaultParams()
		p.L1Bytes = 4 * 1024
		if chips > 1 {
			p.Chips = chips
			p.GridW, p.GridH = 2, 2
		}
		perChip := p.Cores / chips
		forwards := 0
		seen := map[int]bool{}
		sink := FuncSink(func(e Event) {
			if e.Kind != EvStickyForward {
				return
			}
			forwards++
			if e.Core < 0 || e.Core >= p.Cores {
				t.Fatalf("chips=%d: sticky forward on core %d of %d", chips, e.Core, p.Cores)
			}
			seen[e.Core/perChip] = true
		})
		rc := RunConfig{Workload: "BerkeleyDB", Variant: bs, Scale: testScale, Params: &p, Sink: sink}
		if _, err := RunOne(rc, 1); err != nil {
			t.Fatalf("chips=%d: %v", chips, err)
		}
		if forwards == 0 {
			t.Errorf("chips=%d: the sink received no sticky forwards", chips)
		}
		if len(seen) != chips {
			t.Errorf("chips=%d: sticky forwards name cores on %d chips, want %d", chips, len(seen), chips)
		}
	}
}
