// Command chaos runs randomized fault-injection campaigns against the
// LogTM-SE model with every runtime invariant oracle armed, and writes a
// deterministic JSON report.
//
// Each campaign seed is one run: the seed picks a fault mix (round-robin
// over the named mixes unless -mix fixes one), drives a seeded
// deterministic fault schedule against a workload, and checks the
// invariant oracles (shadow-memory serializability, signature
// membership, undo-log LIFO, sticky-state audit, progress watchdog) plus
// the workload's own verification. Passive mixes (delay, victims,
// signoise, aborts) run a Table 2 benchmark through the harness;
// OS-level mixes (sched, storm) run an oversubscribed counter workload
// under the OS model so forced deschedules and page relocations can
// fire.
//
// With -sabotage the fault mixes are replaced by a planted engine bug
// (one undo record skipped during one abort, at a seed-dependent depth)
// and the campaign becomes a self-test: the oracles must catch the
// defect, and with -bisect each caught run is localized to its first
// bad cycle by binary search over full-state snapshots.
//
// The report is byte-identical across repeated invocations with the same
// flags: all randomness derives from the seeds, and no timestamps or map
// iteration orders leak in. Reproduce a single failing run with -replay:
//
//	chaos -seeds 200                    # full campaign, all mixes
//	chaos -seeds 50 -mix storm          # one mix only
//	chaos -replay 137                   # re-run campaign seed 137 exactly
//	chaos -seeds 200 -out report.json   # write the report to a file
//	chaos -seeds 8 -sabotage -bisect    # plant a bug, catch it, localize it
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"

	"logtmse"
	"logtmse/internal/addr"
	"logtmse/internal/core"
	"logtmse/internal/fault"
	"logtmse/internal/osm"
	"logtmse/internal/sig"
	"logtmse/internal/sim"
	"logtmse/internal/sweep"
)

// runRecord is one seed's outcome in the report.
type runRecord struct {
	Seed     int64                  `json:"seed"`
	Mix      string                 `json:"mix"`
	Scenario string                 `json:"scenario"` // "harness" or "scheduler"
	OK       bool                   `json:"ok"`
	Cycles   uint64                 `json:"cycles"`
	Faults   map[string]uint64      `json:"faults,omitempty"`
	Failures []logtmse.CheckFailure `json:"failures,omitempty"`
	Error    string                 `json:"error,omitempty"`
	// Bisect localizes a sabotage-campaign failure to its first bad
	// cycle via snapshot binary search (-sabotage -bisect).
	Bisect      *logtmse.BisectResult `json:"bisect,omitempty"`
	BisectError string                `json:"bisect_error,omitempty"`
}

// report is the campaign document. Field order and map encoding are
// chosen so the bytes are reproducible for the same flags.
type report struct {
	Campaign campaign    `json:"campaign"`
	Runs     []runRecord `json:"runs"`
	Summary  summary     `json:"summary"`
}

type campaign struct {
	SeedBase  int64   `json:"seed_base"`
	Seeds     int     `json:"seeds"`
	Mix       string  `json:"mix"`
	Workload  string  `json:"workload"`
	Scale     float64 `json:"scale"`
	Threads   int     `json:"threads"`
	MaxCycles uint64  `json:"max_cycles"`
	Watchdog  uint64  `json:"watchdog_window"`
	Sabotage  bool    `json:"sabotage,omitempty"`
	SnapEvery uint64  `json:"snap_every,omitempty"`
}

type summary struct {
	Runs        int               `json:"runs"`
	Failed      int               `json:"failed"`
	FailedSeeds []int64           `json:"failed_seeds,omitempty"`
	Faults      map[string]uint64 `json:"faults,omitempty"`
}

type config struct {
	workload  string
	scale     float64
	threads   int
	maxCycles sim.Cycle
	watchdog  sim.Cycle
	// sabotage replaces the fault mix with the deliberate undo-walk bug;
	// bisect then localizes each failure to its first bad cycle by
	// snapshot binary search with snapEvery stride.
	sabotage  bool
	bisect    bool
	snapEvery sim.Cycle
}

func main() {
	os.Exit(run())
}

// run carries main's body and returns the exit code, so that deferred
// profile writers fire before the process exits.
func run() int {
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	seeds := flag.Int("seeds", 24, "number of campaign seeds to run")
	seedBase := flag.Int64("seed-base", 1, "first seed")
	mix := flag.String("mix", "all", "fault mix: all | "+joinMixes())
	replay := flag.Int64("replay", 0, "re-run exactly one campaign seed and report it")
	workloadName := flag.String("workload", "BerkeleyDB", "benchmark for the harness scenario (Table 2)")
	scale := flag.Float64("scale", 0.05, "input scale for the harness scenario")
	threads := flag.Int("threads", 8, "worker threads for the harness scenario")
	maxCycles := flag.Int64("max-cycles", 3_000_000, "hang backstop per run (cycles)")
	watchdog := flag.Int64("watchdog", 400_000, "progress-watchdog window (cycles; 0 disables)")
	sabotage := flag.Bool("sabotage", false, "replace the fault mixes with a planted engine bug (one skipped undo record; see core.Sabotage) — the campaign is then a self-test that must catch it")
	bisect := flag.Bool("bisect", false, "binary-search each sabotage failure to its first bad cycle over full-state snapshots (requires -sabotage)")
	snapEvery := flag.Uint64("snap-every", 10_000, "snapshot stride in cycles for -bisect")
	out := flag.String("out", "", "write the JSON report here (default stdout)")
	verbose := flag.Bool("v", false, "print one line per run to stderr")
	jobs := flag.Int("j", 0, "parallel campaign runs (0 = GOMAXPROCS); the report is byte-identical for any -j")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile here")
	memprofile := flag.String("memprofile", "", "write a heap profile here at exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	if *bisect && !*sabotage {
		fmt.Fprintln(os.Stderr, "chaos: -bisect requires -sabotage (fault mixes are hook state a snapshot cannot carry)")
		return 2
	}
	mixes := fault.MixNames()
	switch {
	case *sabotage:
		// The planted bug replaces the fault plan entirely: sabotage is
		// plain machine state, which is what lets -bisect snapshot it.
		mixes = []string{"sabotage"}
		*mix = "sabotage"
	case *mix != "all":
		if _, err := fault.MixPlan(*mix, 0); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		mixes = []string{*mix}
	}
	cfg := config{
		workload:  *workloadName,
		scale:     *scale,
		threads:   *threads,
		maxCycles: sim.Cycle(*maxCycles),
		watchdog:  sim.Cycle(*watchdog),
		sabotage:  *sabotage,
		bisect:    *bisect,
		snapEvery: sim.Cycle(*snapEvery),
	}

	rep := report{Campaign: campaign{
		SeedBase: *seedBase, Seeds: *seeds, Mix: *mix,
		Workload: cfg.workload, Scale: cfg.scale, Threads: cfg.threads,
		MaxCycles: uint64(cfg.maxCycles), Watchdog: uint64(cfg.watchdog),
		Sabotage: *sabotage,
	}}
	if *bisect {
		rep.Campaign.SnapEvery = *snapEvery
	}
	list := campaignSeeds(*seedBase, *seeds)
	if *replay != 0 {
		list = []int64{*replay}
		rep.Campaign.Seeds = 1
		rep.Campaign.SeedBase = *replay
	}
	// Every campaign run is a share-nothing cell, so the sweep runner can
	// fan them out across workers; results land in submission (seed-list)
	// order, keeping the report byte-identical for any -j.
	runs, err := sweep.Map(ctx, len(list), *jobs, func(i int) runRecord {
		seed := list[i]
		return runSeed(mixFor(mixes, *seedBase, seed), seed, cfg)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos:", err)
		if errors.Is(err, context.Canceled) {
			return 130
		}
		return 1
	}
	rep.Runs = runs
	if *verbose {
		for _, rec := range rep.Runs {
			status := "ok"
			if !rec.OK {
				status = "FAIL: " + rec.Error
			}
			fmt.Fprintf(os.Stderr, "seed %4d  %-9s %-9s %9d cycles  %s\n",
				rec.Seed, rec.Mix, rec.Scenario, rec.Cycles, status)
		}
	}
	rep.Summary = summarize(rep.Runs)

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	buf = append(buf, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	} else {
		os.Stdout.Write(buf)
	}
	if *sabotage {
		return sabotageVerdict(rep, *bisect)
	}
	if rep.Summary.Failed > 0 {
		return 1
	}
	return 0
}

// sabotageVerdict inverts the exit logic for the self-test campaign: a
// planted bug that no oracle catches means the oracles are blind, and
// with -bisect every caught run must also be localized. (Seeds whose
// sabotage never fired — not enough qualifying aborts — legitimately
// pass.)
func sabotageVerdict(rep report, bisect bool) int {
	if rep.Summary.Failed == 0 {
		fmt.Fprintln(os.Stderr, "chaos: SELF-TEST FAILED: the sabotaged engine produced no oracle failure")
		return 1
	}
	if bisect {
		for _, r := range rep.Runs {
			if r.OK {
				continue
			}
			if r.Bisect == nil || r.Bisect.Failure == nil {
				fmt.Fprintf(os.Stderr, "chaos: SELF-TEST FAILED: seed %d caught but not localized: %s\n",
					r.Seed, r.BisectError)
				return 1
			}
			fmt.Fprintf(os.Stderr, "chaos: seed %d: %s\n", r.Seed, r.Bisect)
		}
	}
	fmt.Fprintf(os.Stderr, "chaos: sabotage self-test passed: %d/%d runs caught the planted bug\n",
		rep.Summary.Failed, rep.Summary.Runs)
	return 0
}

func joinMixes() string {
	s := ""
	for i, m := range fault.MixNames() {
		if i > 0 {
			s += " | "
		}
		s += m
	}
	return s
}

func campaignSeeds(base int64, n int) []int64 {
	out := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, base+int64(i))
	}
	return out
}

// mixFor assigns a mix to a seed: round-robin over the mix list, so a
// replayed seed always reproduces the mix the campaign gave it.
func mixFor(mixes []string, base, seed int64) string {
	i := (seed - base) % int64(len(mixes))
	if i < 0 {
		i += int64(len(mixes))
	}
	return mixes[i]
}

func summarize(runs []runRecord) summary {
	s := summary{Runs: len(runs), Faults: map[string]uint64{}}
	for _, r := range runs {
		if !r.OK {
			s.Failed++
			s.FailedSeeds = append(s.FailedSeeds, r.Seed)
		}
		for k, v := range r.Faults {
			s.Faults[k] += v
		}
	}
	if len(s.Faults) == 0 {
		s.Faults = nil
	}
	return s
}

// runSeed executes one campaign run. The OS-level mixes need a scheduler
// to bind, so they take the dedicated scenario; everything else stresses
// a real benchmark through the harness.
func runSeed(mix string, seed int64, cfg config) runRecord {
	switch mix {
	case "sched", "storm":
		return runScheduler(mix, seed, cfg)
	default:
		return runHarness(mix, seed, cfg)
	}
}

// runHarness runs one benchmark seed through the library harness with
// the fault plan (or the planted sabotage) and every oracle attached.
func runHarness(mix string, seed int64, cfg config) runRecord {
	rec := runRecord{Seed: seed, Mix: mix, Scenario: "harness"}
	var plan logtmse.FaultPlan
	if !cfg.sabotage {
		var err error
		plan, err = fault.MixPlan(mix, 0) // Seed 0: harness derives it from the run seed
		if err != nil {
			rec.Error = err.Error()
			return rec
		}
	}
	v, _ := logtmse.VariantByName("BS")
	rc := logtmse.RunConfig{
		Workload:  cfg.workload,
		Variant:   v,
		Scale:     cfg.scale,
		Threads:   cfg.threads,
		MaxCycles: cfg.maxCycles,
		Checks:    logtmse.AllChecks(cfg.watchdog),
		Fault:     plan,
	}
	if cfg.sabotage {
		// One corruption per run, buried a seed-dependent number of
		// aborts deep so the campaign plants the defect at varying
		// depths of the timeline.
		rc.Sabotage = logtmse.Sabotage{SkipUndoRecord: true, SkipLimit: 1, SkipAfter: int(seed % 8)}
	}
	res, err := logtmse.RunOne(rc, seed)
	rec.Cycles = uint64(res.Cycles)
	rec.Faults = res.Faults
	rec.Failures = res.CheckFailures
	if err != nil {
		rec.Error = err.Error()
		bisectRecord(&rec, rc, seed, cfg)
		return rec
	}
	rec.OK = true
	return rec
}

// bisectRecord localizes a failing sabotage run to its first bad cycle.
// The probing oracles ride inside BisectFailure itself, so the cell
// hands over its checks.
func bisectRecord(rec *runRecord, rc logtmse.RunConfig, seed int64, cfg config) {
	if !cfg.bisect || !cfg.sabotage {
		return
	}
	br, err := logtmse.BisectFailure(rc, seed, cfg.snapEvery)
	if err != nil {
		rec.BisectError = err.Error()
		return
	}
	rec.Bisect = br
}

// runScheduler runs an oversubscribed shared-counter workload under the
// OS model — aggressive time slices, eager mid-transaction preemption,
// an aliasing-prone signature — with the fault plan bound to the
// scheduler so deschedule and page-relocation faults can fire.
func runScheduler(mix string, seed int64, cfg config) runRecord {
	rec := runRecord{Seed: seed, Mix: mix, Scenario: "scheduler"}
	p := core.DefaultParams()
	p.Seed = seed
	p.Cores = 4
	p.ThreadsPerCore = 2
	p.GridW, p.GridH = 2, 2
	p.L1Bytes = 8 * 1024
	p.L2Bytes = 128 * 1024
	p.L2Banks = 4
	p.Signature = sig.Config{Kind: sig.KindBitSelect, Bits: 256}
	sys, err := core.NewSystem(p)
	if err != nil {
		rec.Error = err.Error()
		return rec
	}
	chk := sys.AttachChecker(logtmse.AllChecks(cfg.watchdog))
	sched := osm.New(sys, 1_500) // aggressive slices
	sched.DeferInTxFactor = 0    // allow mid-transaction preemption
	proc := sched.NewProcess("P")
	counter := addr.VAddr(0x9000)
	pageArea := addr.VAddr(0x20000)
	const workers, rounds = 6, 10
	for i := 0; i < workers; i++ {
		sched.Spawn(proc, "w", func(a *core.API) {
			rng := a.Rand()
			for r := 0; r < rounds; r++ {
				a.Transaction(func() {
					v := a.Load(counter)
					a.Compute(sim.Cycle(40 + rng.Intn(200)))
					a.Store(counter, v+1)
					a.Store(pageArea+addr.VAddr(rng.Intn(8)*64), v)
				})
				a.Compute(80)
			}
		})
	}
	plan, err := fault.MixPlan(mix, seed*7919+13)
	if err != nil {
		rec.Error = err.Error()
		return rec
	}
	inj := fault.New(plan, sys)
	inj.BindOS(sched, proc)
	inj.Arm()

	end := sys.RunUntil(cfg.maxCycles)
	rec.Cycles = uint64(end)
	rec.Faults = inj.Stats().ByClass()
	rec.Failures = chk.Failures()
	if !sys.AllDone() {
		rec.Error = fmt.Sprintf("threads stuck: %v\n%s", sys.Stuck(), sys.Diagnose())
		return rec
	}
	if err := chk.Err(); err != nil {
		rec.Error = err.Error()
		return rec
	}
	if got := sys.Mem.ReadWord(proc.PT.Translate(counter)); got != workers*rounds {
		rec.Error = fmt.Sprintf("counter = %d, want %d (atomicity violated)", got, workers*rounds)
		return rec
	}
	rec.OK = true
	return rec
}
