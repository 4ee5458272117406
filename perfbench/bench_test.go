package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"logtmse"
	"logtmse/internal/workload"
)

func TestAdjustedCancelsHostSpeed(t *testing.T) {
	// The same work on a host running at 1x, 2x and 4x slowdown: raw
	// times and reference times scale together.
	raw := []float64{0.5, 1.0, 2.0}
	ref := []float64{2e6, 4e6, 8e6}
	if got := adjusted(samples{s: raw, ref: ref}, 2e6); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("adjusted = %v, want 0.5 (nominal-host seconds)", got)
	}
	// The nominal time only rescales: a slower nominal host reads longer.
	if got := adjusted(samples{s: raw, ref: ref}, 4e6); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("adjusted with doubled nominal = %v, want 1.0", got)
	}
	// Without a nominal time the raw median is reported.
	if got := adjusted(samples{s: raw, ref: ref}, 0); got != 1.0 {
		t.Fatalf("adjusted without nominal = %v, want raw median 1.0", got)
	}
	// Each sample pairs with its own reference: a slow reference next to
	// a fast cell does not leak into its neighbours.
	if got := adjusted(samples{s: []float64{1, 1, 1}, ref: []float64{1, 1, 100}}, 1); got != 1 {
		t.Fatalf("adjusted median = %v, want 1 (one outlier reference)", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Values from Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4, 3, 2, 1}, 1.25, 2.5, 3.75},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{5, 1, 4}, 1, 4, 5},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q2-tc.q2) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestRefLoopIsFixedWorkWithoutAllocating(t *testing.T) {
	r := newRefLoop()
	r.Run()
	first := r.now
	r.Run()
	if r.now != first {
		t.Fatalf("reference loop ended at event time %d then %d: its work is not fixed", first, r.now)
	}
	if allocs := testing.AllocsPerRun(3, func() { r.Run() }); allocs != 0 {
		t.Fatalf("reference loop allocates %v times per run", allocs)
	}
}

// tinySpec is a two-cell workload (one Lock, one Perfect cell) small
// enough to simulate in tests.
func tinySpec() WorkloadSpec {
	return WorkloadSpec{Name: "tiny", Benchmarks: []string{"Mp3d"}, Variants: []string{"Lock", "Perfect"}, Scale: 0.02}
}

func mustCells(t *testing.T, ws WorkloadSpec, seed int64) []Cell {
	t.Helper()
	cells, err := ws.Cells(seed)
	if err != nil {
		t.Fatal(err)
	}
	return cells
}

func TestInvariants(t *testing.T) {
	cells := mustCells(t, tinySpec(), 1)
	lock, perfect := cells[0], cells[1]
	if lock.Variant.Mode != workload.Lock || perfect.Variant.Name != "Perfect" {
		t.Fatalf("unexpected cells %v", cells)
	}
	for _, tc := range []struct {
		name string
		c    Cell
		st   logtmse.Stats
		want string
	}{
		{"clean lock", lock, logtmse.Stats{WorkUnits: 3}, ""},
		{"lock begins", lock, logtmse.Stats{Begins: 1}, "lock cell"},
		{"lock stalls", lock, logtmse.Stats{Stalls: 2}, "lock cell"},
		{"clean perfect", perfect, logtmse.Stats{Begins: 5, Commits: 5, Stalls: 9}, ""},
		{"perfect aliasing", perfect, logtmse.Stats{Begins: 5, Commits: 5, Stalls: 9, FalsePositiveStalls: 1}, "false-positive"},
		{"commits exceed begins", perfect, logtmse.Stats{Begins: 4, Commits: 5}, "exceed"},
	} {
		got := invariantViolation(tc.c, tc.st)
		if (tc.want == "") != (got == "") || !strings.Contains(got, tc.want) {
			t.Errorf("%s: violation %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestGateCountsFailuresAndDigest(t *testing.T) {
	cells := mustCells(t, tinySpec(), 1)
	lock, perfect := cells[0], cells[1]
	ok := logtmse.RunResult{Cycles: 100, WorkUnits: 4, Stats: logtmse.Stats{WorkUnits: 4}}
	tm := logtmse.RunResult{Cycles: 90, WorkUnits: 4, Stats: logtmse.Stats{Begins: 6, Commits: 4, Stalls: 7, WorkUnits: 4}}

	var g Gate
	steps := []struct {
		c    Cell
		r    logtmse.RunResult
		err  error
		pass bool
	}{
		{lock, ok, nil, true},
		{perfect, tm, nil, true},
		{lock, ok, nil, true},                             // repeats exactly
		{perfect, tm, errors.New("verify failed"), false}, // RunOne error
		{lock, logtmse.RunResult{Cycles: 101, WorkUnits: 4, Stats: ok.Stats}, nil, false}, // counters moved
		{perfect, logtmse.RunResult{Cycles: 90, WorkUnits: 4, Stats: logtmse.Stats{Begins: 1, Commits: 2}}, nil, false},
	}
	for i, s := range steps {
		if got := g.Check(s.c, s.r, s.err); got != s.pass {
			t.Fatalf("step %d: Check = %v, want %v", i, got, s.pass)
		}
	}
	if g.Attempted != 6 || g.Failed != 3 || len(g.Failures) != 3 {
		t.Fatalf("attempted %d failed %d messages %d, want 6/3/3", g.Attempted, g.Failed, len(g.Failures))
	}

	// The digest covers each cell's first passing execution and no more.
	lines, sum := g.Digest(cells)
	var same Gate
	same.Check(lock, ok, nil)
	same.Check(perfect, tm, nil)
	if lines2, sum2 := same.Digest(cells); sum2 != sum || !reflect.DeepEqual(lines, lines2) {
		t.Fatalf("digest depends on later executions")
	}
	var moved Gate
	moved.Check(lock, ok, nil)
	bumped := tm
	bumped.Stats.Coh.NACKs++
	moved.Check(perfect, bumped, nil)
	if _, sum3 := moved.Digest(cells); sum3 == sum {
		t.Fatalf("digest blind to a coherence counter")
	}
	var missing Gate
	missing.Check(lock, ok, nil)
	missing.Check(perfect, tm, errors.New("stuck"))
	lines4, sum4 := missing.Digest(cells)
	if sum4 == sum || !strings.HasSuffix(lines4[1], " missing") {
		t.Fatalf("a cell that never passed must show as missing: %q", lines4[1])
	}
}

func TestLedgerRatiosAndZeroGuards(t *testing.T) {
	var lock Ledger
	lock.Add(logtmse.RunResult{Cycles: 1000, WorkUnits: 5, Stats: logtmse.Stats{WorkUnits: 5}})
	for name, v := range lock.Metrics() {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("lock pass: %s = %v", name, v.Value)
		}
	}
	m := lock.Metrics()
	for _, name := range []string{"core.commit_ratio", "core.retries_per_episode", "core.stalls_per_commit",
		"sig.false_positive_share", "sig.fp_episode_share", "coherence.l1_miss_ratio"} {
		if m[name].Value != 0 {
			t.Errorf("lock pass: %s = %v, want 0", name, m[name].Value)
		}
	}

	var tm Ledger
	st := logtmse.Stats{Begins: 10, Commits: 8, Stalls: 90, StallEpisodes: 30, FalsePositiveStalls: 9, FPEpisodes: 3, WorkUnits: 2}
	st.Coh.L1Hits, st.Coh.L1Misses = 75, 25
	tm.Add(logtmse.RunResult{Cycles: 500, WorkUnits: 2, Stats: st})
	tm.Add(logtmse.RunResult{Cycles: 500, WorkUnits: 2, Stats: st})
	m = tm.Metrics()
	for name, want := range map[string]float64{
		"sim.cycles":               1000,
		"core.stalls":              180,
		"core.retries_per_episode": 3,
		"core.stalls_per_commit":   11.25,
		"core.commit_ratio":        0.8,
		"sig.false_positive_share": 0.1,
		"sig.fp_episode_share":     0.1,
		"coherence.l1_miss_ratio":  0.25,
	} {
		if math.Abs(m[name].Value-want) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, m[name].Value, want)
		}
	}
}

func TestLeafPackageAndBuckets(t *testing.T) {
	for fn, want := range map[string]string{
		"logtmse/internal/coherence.(*System).Access":            "coherence",
		"logtmse/internal/ptable.(*Table[go.shape.uint8]).Clear": "ptable",
		"logtmse/internal/cache.(*Cache).find (inline)":          "cache",
		"logtmse/internal/workload.Raytrace.func1":               "workload",
		"runtime.mallocgc": "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":                     "runtime",
		"math/rand.(*Rand).Int63":                                          "other",
		"main.(*refLoop).Run":                                              "other",
		"logtmse/internal/lockbase.(*Spin).step":                           "other",
		"logtmse/internal/ptable.New[go.shape.struct { logtmse/x.y int }]": "ptable",
	} {
		if got := layerOf(leafPackage(fn)); got != want {
			t.Errorf("%s -> %s, want %s", fn, got, want)
		}
	}
}

func TestParseTop(t *testing.T) {
	out := []byte(`File: perfbench
Type: cpu
Active filters:
   tagignore=bench=ref
Showing nodes accounting for 900ms, 90.00% of 1000ms total
      flat  flat%   sum%        cum   cum%
     400ms 40.00% 40.00%      600ms 60.00%  logtmse/internal/core.(*System).SignatureCheck
     300ms 30.00% 70.00%      300ms 30.00%  logtmse/internal/sim.(*Engine).pop
     180ms 18.00% 88.00%      180ms 18.00%  runtime.mallocgc
      20ms  2.00% 90.00%       20ms  2.00%  fmt.Sprintf
`)
	shares, err := parseTop(out)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %v, want 1 over the kept samples", sum)
	}
	if math.Abs(shares["core"]-40.0/90) > 1e-9 || shares["txlog"] != 0 {
		t.Fatalf("shares %v", shares)
	}
	if _, err := parseTop([]byte("no table here\n")); err == nil {
		t.Fatal("empty profile accepted")
	}
}

func TestCellsFollowTheSeed(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, ws := range spec.Workloads {
		a := mustCells(t, ws, 7)
		b := mustCells(t, ws, 7)
		c := mustCells(t, ws, 8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed, different cells", ws.Name)
		}
		if want := len(ws.Benchmarks) * len(ws.Variants) * max(ws.SeedsPerCell, 1); len(a) != want || len(c) != want {
			t.Errorf("%s: %d cells, want %d", ws.Name, len(a), want)
		}
		differ := false
		for i := range a {
			differ = differ || a[i].Seed != c[i].Seed
		}
		if !differ {
			t.Errorf("%s: seed 8 derives the same simulation seeds as seed 7", ws.Name)
		}
	}
	if spec.ReferenceLoop.NominalNS <= 0 {
		t.Error("spec.json has no nominal reference-loop time")
	}
}

// TestHeldOutSeed runs a tiny workload end to end on two seeds: both
// must pass every execution and report the same metric names, and their
// deterministic counts must differ, which shows the seed reaches the
// simulated cells.
func TestHeldOutSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates cells")
	}
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int64]map[string]Metric{}
	for _, seed := range []int64{1, 2} {
		b := &bench{spec: spec, ws: tinySpec(), seed: seed, rec: Record{Timings: map[string]Summary{}}}
		if err := b.setUp(); err != nil {
			t.Fatal(err)
		}
		_, last, n := b.passes(runProduct, 0, 2)
		if n != 2 || b.gate.Failed != 0 || b.gate.Attempted != 2*len(b.cells) {
			t.Fatalf("seed %d: %d passes, %d/%d failed: %v", seed, n, b.gate.Failed, b.gate.Attempted, b.gate.Failures)
		}
		var led Ledger
		for _, c := range b.cells {
			led.Add(last[c.ID])
		}
		counts[seed] = led.Metrics()
		if len(b.setup.s) != setupReps {
			t.Fatalf("seed %d: %d set-up samples", seed, len(b.setup.s))
		}
	}
	if !reflect.DeepEqual(keys(counts[1]), keys(counts[2])) {
		t.Fatalf("metric names differ across seeds")
	}
	if counts[1]["sim.cycles"] == counts[2]["sim.cycles"] && counts[1]["coherence.accesses"] == counts[2]["coherence.accesses"] {
		t.Fatalf("seeds 1 and 2 simulated identical work: the seed does not reach the cells")
	}
}

func keys(m map[string]Metric) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// TestBenchmarkJSONAgrees checks BENCHMARK.json at the repository root
// against the program: the same workloads, and every metric the program
// reports is declared.
func TestBenchmarkJSONAgrees(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if errors.Is(err, os.ErrNotExist) {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, w := range bj.Workloads {
		got = append(got, w.Name)
	}
	for _, w := range spec.Workloads {
		want = append(want, w.Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, spec.json %v", got, want)
	}
	declared := map[string]bool{}
	for _, m := range bj.PerLayer {
		declared[m.Name] = true
	}
	for name := range (Ledger{}).Metrics() {
		if !declared[name] {
			t.Errorf("ledger metric %s missing from per_layer", name)
		}
	}
	for _, l := range append(shareLayers, "runtime", "other") {
		if !declared["host_share."+l] {
			t.Errorf("host_share.%s missing from per_layer", l)
		}
	}
	e2e := map[string]bool{}
	for _, m := range bj.EndToEnd {
		e2e[m.Name] = true
	}
	for _, name := range []string{"setup_s", "campaign_s", "peak_rss_mb"} {
		if !e2e[name] {
			t.Errorf("end-to-end metric %s missing", name)
		}
	}
}
