// Command perfbench is the repository's campaign benchmark. It runs the
// cells of one workload (a list of Figure-4 cells, see spec.json) one at
// a time through the product path, logtmse.RunOne with the defaults
// cmd/figure4 uses, and times each cell from outside in CPU time,
// adjusted for host speed with a fixed reference loop run between cells.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench -workload retry-storm -seed 1 -seconds 20 -trace 0
//
// -trace 0 reports the end-to-end metrics: setup_s, campaign_s and
// peak_rss_mb. -trace 1 is a separate run that drives the same cells
// through the decomposed public calls with a span around each, takes a
// CPU profile, and reports the per-layer ledger: deterministic work
// counts from Stats, per-layer host times, host share by package, and
// the tracing overhead. Every cell execution is checked (see Gate). The
// last line of standard output is the result object and the line before
// it the host-noise record, which is also written under outDir with the
// counter digest and, when traced, the spans and the CPU profile.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"logtmse"
)

// outDir receives each run's record, counter digest and, when traced,
// spans and CPU profile; relative to the working directory, the
// repository root.
const outDir = ".bench_out"

// Run shape. Set-up is repeated and reported as a median; passes repeat
// until the time budget is spent, but never fewer than minPasses.
const (
	setupReps = 31
	minPasses = 3
	memoReps  = 5
)

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line of standard output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Record is the host-noise and correctness record printed before the
// result and written under outDir.
type Record struct {
	Workload     string             `json:"workload"`
	Seed         int64              `json:"seed"`
	Trace        bool               `json:"trace"`
	Host         Host               `json:"host"`
	NominalRefNS float64            `json:"reference_loop_nominal_ns"`
	RefLoopNS    Summary            `json:"reference_loop_ns"`
	Timings      map[string]Summary `json:"timings"`
	Passes       int                `json:"passes"`
	CellMedianS  map[string]float64 `json:"cell_median_s"`
	Digest       string             `json:"counter_digest"`
	Failures     []string           `json:"failures,omitempty"`
	Files        []string           `json:"files"`
}

func main() {
	name := flag.String("workload", "", "workload name from spec.json (retry-storm, tx-churn, lock-grid)")
	seed := flag.Int64("seed", 1, "benchmark seed; the cells' simulation seeds derive from it")
	seconds := flag.Float64("seconds", 20, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with the per-layer ledger")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	b, err := newBench(*name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	var res Result
	budget := time.Duration(*seconds * float64(time.Second))
	if *trace == 1 {
		res, err = b.traced(budget)
	} else {
		res, err = b.untraced(budget)
	}
	if err == nil {
		err = b.finish(&res)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, f := range b.gate.Failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL", f)
	}
	rec, _ := json.Marshal(map[string]any{"record": b.rec})
	fmt.Println(string(rec))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// bench is one run's state.
type bench struct {
	spec  Spec
	ws    WorkloadSpec
	seed  int64
	cells []Cell
	ref   *refLoop
	// refNS holds every reference-loop sample of the run.
	refNS []float64
	gate  Gate
	tr    *Tracer
	rec   Record
	setup samples
}

// refLabels marks reference-loop samples in the CPU profile, so the
// host shares leave them out.
var refLabels = pprof.Labels("bench", "ref")

// time runs f after a reference-loop sample and records both in CPU
// time, which leaves out the time the hypervisor runs someone else on our
// virtual CPUs (steal): wall time counts it, and no reference loop can
// cancel it. The reference cancels the rest, a neighbour slowing the
// core while we run. The reference is timed on its thread's clock; f on
// clock: clockProcess for cells (their GC and goroutine-executor threads
// count), clockThread for set-up, which runs on one thread and would
// otherwise pick up background runtime work. The wall time goes to the
// record.
func (b *bench) time(x *samples, clock uintptr, f func()) {
	if b.ref == nil {
		b.ref = newRefLoop()
	}
	runtime.LockOSThread()
	var ref float64
	pprof.Do(context.Background(), refLabels, func(context.Context) {
		r0 := cpuTime(clockThread)
		b.ref.Run()
		ref = float64(cpuTime(clockThread) - r0)
	})
	if clock != clockThread {
		runtime.UnlockOSThread()
	}
	c0, t0 := cpuTime(clock), time.Now()
	f()
	x.wall = append(x.wall, time.Since(t0).Seconds())
	x.s = append(x.s, (cpuTime(clock) - c0).Seconds())
	if clock == clockThread {
		runtime.UnlockOSThread()
	}
	x.ref = append(x.ref, ref)
	b.refNS = append(b.refNS, ref)
}

// Linux CPU-time clocks. Unlike getrusage, they include the running
// thread's time since its last tick, so a 2 ms sample reads exactly.
const (
	clockProcess = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThread  = 3 // CLOCK_THREAD_CPUTIME_ID
)

// cpuTime reads a CPU-time clock.
func cpuTime(clock uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime(%d): %v", clock, errno)) // only a bad clock id fails
	}
	return time.Duration(ts.Nano())
}

// adjusted is x's median in nominal-host seconds.
func (b *bench) adjusted(x samples) float64 {
	return adjusted(x, b.spec.ReferenceLoop.NominalNS)
}

func newBench(name string, seed int64) (*bench, error) {
	spec, err := loadSpec()
	if err != nil {
		return nil, err
	}
	ws, err := spec.Workload(name)
	if err != nil {
		return nil, err
	}
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	return &bench{
		spec: spec, ws: ws, seed: seed,
		rec: Record{
			Workload: name, Seed: seed, Host: startHost(),
			NominalRefNS: spec.ReferenceLoop.NominalNS,
			Timings:      map[string]Summary{},
		},
	}, nil
}

// setUp is the one-time work before the first timed pass, repeated
// setupReps times, each from a collected heap: derive the cell list from
// the seed, then build a cold machine and spawn the workload once per
// distinct (benchmark, mode), without simulating.
func (b *bench) setUp() error {
	// No collection starts inside a repetition: whether one would depends
	// on where the previous repetition left the heap goal, which made
	// repetitions bimodal. Each starts from a collected heap instead.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for rep := 0; rep < setupReps; rep++ {
		var err error
		var interpreted []*logtmse.System
		runtime.GC()
		b.time(&b.setup, clockThread, func() {
			interpreted, err = b.buildOnce()
		})
		if err != nil {
			return err
		}
		// Untimed: interpreted threads are goroutines parked until the
		// machine runs; running it to completion lets them exit.
		for _, sys := range interpreted {
			sys.Run()
		}
	}
	return nil
}

// buildOnce is one set-up repetition. It returns the machines whose
// workload runs on goroutine threads.
func (b *bench) buildOnce() (interpreted []*logtmse.System, err error) {
	sp := b.tr.Begin("setup", -1, -1)
	defer b.tr.End(sp)
	cells, err := b.ws.Cells(b.seed)
	if err != nil {
		return nil, err
	}
	b.cells = cells
	seen := map[string]bool{}
	for _, c := range cells {
		k := c.Benchmark + "/" + c.Variant.Mode.String()
		if seen[k] {
			continue
		}
		seen[k] = true
		s := b.tr.Begin("core.new_system", sp, c.ID)
		sys, err := logtmse.NewSystem(c.Params())
		b.tr.End(s)
		if err != nil {
			return interpreted, fmt.Errorf("%s: %w", c, err)
		}
		s = b.tr.Begin("workload.spawn", sp, c.ID)
		inst, err := c.Spawn(sys)
		b.tr.End(s)
		if err != nil {
			return interpreted, fmt.Errorf("%s: %w", c, err)
		}
		if len(inst.Machines) == 0 {
			interpreted = append(interpreted, sys)
		}
	}
	return interpreted, nil
}

// runFunc executes one cell.
type runFunc func(Cell) (logtmse.RunResult, error)

func runProduct(c Cell) (logtmse.RunResult, error) { return logtmse.RunOne(c.Config(), c.Seed) }

// passes runs every cell once per pass, with a reference-loop sample
// before each cell, until budget is spent (at least min passes, and no
// pass is started that the previous one says will not fit). It returns
// each cell's timed executions, the results of the last pass and the
// pass count.
func (b *bench) passes(run runFunc, budget time.Duration, min int) (cells []samples, last map[int]logtmse.RunResult, n int) {
	cells = make([]samples, len(b.cells))
	last = map[int]logtmse.RunResult{}
	deadline := time.Now().Add(budget)
	var passDur time.Duration
	for n < min || time.Now().Add(passDur).Before(deadline) {
		runtime.GC()
		p0 := time.Now()
		for i, c := range b.cells {
			var r logtmse.RunResult
			var err error
			b.time(&cells[i], clockProcess, func() { r, err = run(c) })
			if b.gate.Check(c, r, err) {
				last[c.ID] = r
			}
		}
		passDur = time.Since(p0)
		n++
	}
	return cells, last, n
}

// campaign is one pass's host seconds, raw (wall) and adjusted (CPU,
// scaled by the reference): the sum over cells of each cell's median.
// The per-pass totals go to the record under key.
func (b *bench) campaign(key string, cells []samples, n int) (raw, adj float64) {
	rawPass := make([]float64, n)
	adjPass := make([]float64, n)
	for _, x := range cells {
		raw += median(x.wall)
		adj += b.adjusted(x)
		scaled := x.scaled(b.spec.ReferenceLoop.NominalNS)
		for p, s := range x.wall {
			rawPass[p] += s
			adjPass[p] += scaled[p]
		}
	}
	b.rec.Timings[key+"_wall_s"] = summarize(rawPass)
	b.rec.Timings[key+"_s"] = summarize(adjPass)
	return raw, adj
}

// untraced measures the end-to-end metrics.
func (b *bench) untraced(budget time.Duration) (Result, error) {
	if err := b.setUp(); err != nil {
		return Result{}, err
	}
	b.passes(runProduct, 0, 1) // warm-up: fills the pool, lets lazy set-up finish
	// peak_rss_mb is the steady state of the measured passes: set-up and
	// warm-up leave a high-water mark that depends on where their
	// collections happened to fall.
	if err := resetPeakRSS(); err != nil {
		return Result{}, err
	}
	cells, _, n := b.passes(runProduct, budget, minPasses)
	_, campaign := b.campaign("campaign", cells, n)
	b.rec.Passes = n
	b.rec.CellMedianS = map[string]float64{}
	for i, c := range b.cells {
		b.rec.CellMedianS[c.String()] = median(cells[i].wall)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return Result{}, err
	}
	return Result{Metrics: map[string]Metric{
		"setup_s":     {b.adjusted(b.setup), "s"},
		"campaign_s":  {campaign, "s"},
		"peak_rss_mb": {rss, "MB"},
	}}, nil
}

// traced measures the per-layer ledger: untraced passes through RunOne
// for the overhead baseline, then traced passes through the decomposed
// calls under a CPU profile, then the off-path memo and snap probes.
func (b *bench) traced(budget time.Duration) (Result, error) {
	b.tr = newTracer()
	if err := b.setUp(); err != nil {
		return Result{}, err
	}
	b.passes(runProduct, 0, 1)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	plain, _, nPlain := b.passes(runProduct, budget/2, minPasses)
	runtime.ReadMemStats(&m1)
	rawPlain, adjPlain := b.campaign("campaign", plain, nPlain)

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return Result{}, err
	}
	profPath := b.file("cpu.pprof")
	pf, err := os.Create(profPath)
	if err != nil {
		return Result{}, err
	}
	if err := pprof.StartCPUProfile(pf); err != nil {
		pf.Close()
		return Result{}, err
	}
	pool := machinePool{}
	traced, results, nTraced := b.passes(func(c Cell) (logtmse.RunResult, error) {
		return runDecomposed(c, pool, b.tr)
	}, budget/2, minPasses)
	pprof.StopCPUProfile()
	if err := pf.Close(); err != nil {
		return Result{}, err
	}
	_, adjTraced := b.campaign("traced", traced, nTraced)
	b.rec.Passes = nPlain + nTraced

	if err := memoProbe(b.cells, results, b.tr, memoReps); err != nil {
		return Result{}, err
	}
	sc, sr, err := snapProbe(b.cells, results, b.tr)
	if err != nil {
		return Result{}, err
	}
	b.gate.Check(sc, sr, nil)

	shares, err := profileShares(profPath)
	if err != nil {
		return Result{}, err
	}

	var led Ledger
	for _, c := range b.cells {
		led.Add(results[c.ID])
	}
	ms := led.Metrics()

	// Host time per layer from the traced passes' spans.
	runNS := b.tr.Durations("core.run")
	runTotal := 0.0
	for _, d := range runNS {
		runTotal += d
	}
	spanMedian := func(name string, scale float64) float64 {
		d := b.tr.Durations(name)
		b.rec.Timings[name] = summarize(d)
		return median(d) / scale
	}
	perPassRun := runTotal / float64(nTraced)
	nsPer := func(count uint64) float64 {
		if count == 0 {
			return 0
		}
		return perPassRun / float64(count)
	}
	ms["core.new_system_ms"] = Metric{spanMedian("core.new_system", 1e6), "ms"}
	ms["core.reset_ms"] = Metric{spanMedian("core.reset", 1e6), "ms"}
	ms["workload.spawn_ms"] = Metric{spanMedian("workload.spawn", 1e6), "ms"}
	ms["workload.verify_ms"] = Metric{spanMedian("workload.verify", 1e6), "ms"}
	ms["memo.fingerprint_us"] = Metric{spanMedian("memo.fingerprint", 1e3), "us"}
	ms["memo.hit_us"] = Metric{spanMedian("memo.hit", 1e3), "us"}
	ms["snap.capture_ms"] = Metric{spanMedian("snap.capture", 1e6), "ms"}
	ms["snap.restore_ms"] = Metric{spanMedian("snap.restore", 1e6), "ms"}
	ms["core.run_s"] = Metric{perPassRun / 1e9, "s"}
	ms["sim.host_ns_per_cycle"] = Metric{nsPer(led.Cycles), "ns/cycle"}
	ms["core.host_ns_per_stall"] = Metric{nsPer(led.Stalls), "ns/stall"}
	ms["coherence.host_ns_per_access"] = Metric{nsPer(led.Accesses), "ns/access"}
	for k, v := range shares {
		ms["host_share."+k] = Metric{v, "share"}
	}
	ms["runtime.alloc_mb"] = Metric{float64(m1.TotalAlloc-m0.TotalAlloc) / float64(nPlain) / (1 << 20), "MB"}
	ms["runtime.gc_cycles"] = Metric{float64(m1.NumGC-m0.NumGC) / float64(nPlain), "count"}
	ms["host.calib_ms"] = Metric{median(b.refNS) / 1e6, "ms"}
	ms["host.campaign_wall_s"] = Metric{rawPlain, "s"}
	ms["host.setup_wall_s"] = Metric{median(b.setup.wall), "s"}
	ms["trace.overhead"] = Metric{adjTraced / adjPlain, "x"}
	return Result{Metrics: ms}, nil
}

// file names an output file of this run.
func (b *bench) file(suffix string) string {
	mode := "e2e"
	if b.tr != nil {
		mode = "traced"
	}
	return filepath.Join(outDir, fmt.Sprintf("%s-seed%d-%s.%s", b.ws.Name, b.seed, mode, suffix))
}

// finish completes the result and the record and writes the run's files:
// the record, the counter digest and, when traced, the spans.
func (b *bench) finish(res *Result) error {
	res.Attempted = b.gate.Attempted
	res.Failed = b.gate.Failed
	lines, sum := b.gate.Digest(b.cells)
	res.Correct = b.gate.Failed == 0 && b.gate.Attempted > 0
	b.rec.Trace = b.tr != nil
	b.rec.Digest = sum
	b.rec.Failures = b.gate.Failures
	b.rec.RefLoopNS = summarize(b.refNS)
	b.rec.Timings["setup_wall_s"] = summarize(b.setup.wall)
	b.rec.Timings["setup_s"] = summarize(b.setup.scaled(b.spec.ReferenceLoop.NominalNS))
	b.rec.Host.finish()
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	files := map[string][]byte{
		b.file("digest.txt"): []byte(strings.Join(lines, "\n") + "\n" + sum + "\n"),
	}
	if b.tr != nil {
		spans, err := json.Marshal(b.tr.Spans)
		if err != nil {
			return err
		}
		files[b.file("spans.json")] = spans
		b.rec.Files = append(b.rec.Files, b.file("cpu.pprof"))
	}
	for f := range files {
		b.rec.Files = append(b.rec.Files, f)
	}
	b.rec.Files = append(b.rec.Files, b.file("record.json"))
	rec, err := json.MarshalIndent(b.rec, "", "  ")
	if err != nil {
		return err
	}
	files[b.file("record.json")] = rec
	for f, data := range files {
		if err := os.WriteFile(f, data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
