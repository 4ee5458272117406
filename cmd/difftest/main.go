// Command difftest differentially tests the LogTM-SE simulator against a
// sequential reference model over randomly generated transaction
// programs.
//
// Each campaign seed generates one program (internal/progen), runs it
// through the full simulator under every cell of a configuration matrix
// (perfect and Bloom signatures, directory and snooping coherence, SMT
// and oversubscribed-OS machines, fault mixes from internal/fault), and
// replays the simulator's observed commit order through the reference
// model (internal/refmodel). The two must agree on every committed
// read-value witness and on the final memory image; commutative programs
// must additionally produce the same final memory in every cell. On a
// divergence the failing program is delta-debug shrunk to a minimal
// repro and embedded in the report.
//
// The report is byte-identical across repeated invocations with the same
// flags and for any -j. Every cell is simulated: a campaign of 500 seeds
// takes about a second, so no result cache is kept.
//
//	difftest -seeds 500                 # CI campaign
//	difftest -replay 137                # one seed, full matrix
//	difftest -config bs64-8c-delay      # one matrix cell
//	difftest -repro min.json            # re-run a minimized repro file
//	difftest -sabotage -seeds 50        # self-test: must catch the bug
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"logtmse/internal/core"
	"logtmse/internal/obs"
	"logtmse/internal/progen"
	"logtmse/internal/refmodel"
	"logtmse/internal/sig"
	"logtmse/internal/sim"
	"logtmse/internal/sweep"
)

// configRecord is one (seed, matrix cell) outcome.
type configRecord struct {
	Config   string            `json:"config"`
	OK       bool              `json:"ok"`
	Cycles   uint64            `json:"cycles"`
	Commits  int               `json:"commits"`
	Aborts   uint64            `json:"aborts"`
	Stalls   uint64            `json:"stalls,omitempty"`
	FPStalls uint64            `json:"fp_stalls,omitempty"`
	Faults   map[string]uint64 `json:"faults,omitempty"`
	Error    string            `json:"error,omitempty"`
}

// divergenceRec documents one divergence with its minimized repro.
type divergenceRec struct {
	Config     string          `json:"config"`
	Detail     string          `json:"detail"`
	OrigOps    int             `json:"orig_ops"`
	MinOps     int             `json:"min_ops"`
	MinDetail  string          `json:"min_detail"`
	MinProgram json.RawMessage `json:"min_program"`
}

// seedRecord is one campaign seed's outcome across the matrix.
type seedRecord struct {
	Seed        int64          `json:"seed"`
	Commutative bool           `json:"commutative,omitempty"`
	Threads     int            `json:"threads"`
	Txs         int            `json:"txs"`
	Ops         int            `json:"ops"`
	OK          bool           `json:"ok"`
	Configs     []configRecord `json:"configs"`
	Divergence  *divergenceRec `json:"divergence,omitempty"`
}

type report struct {
	Campaign campaign     `json:"campaign"`
	Runs     []seedRecord `json:"runs"`
	Summary  summary      `json:"summary"`
}

type campaign struct {
	SeedBase  int64    `json:"seed_base"`
	Seeds     int      `json:"seeds"`
	Config    string   `json:"config"`
	Matrix    []string `json:"matrix"`
	Sabotage  bool     `json:"sabotage,omitempty"`
	MaxCycles uint64   `json:"max_cycles"`
	Watchdog  uint64   `json:"watchdog_window"`
}

type summary struct {
	Seeds       int     `json:"seeds"`
	Failed      int     `json:"failed"`
	FailedSeeds []int64 `json:"failed_seeds,omitempty"`
	Commits     uint64  `json:"commits"`
	Aborts      uint64  `json:"aborts"`
	MinOpsMax   int     `json:"min_ops_max,omitempty"`
}

func main() {
	os.Exit(run())
}

func run() int {
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	seeds := flag.Int("seeds", 24, "number of campaign seeds")
	seedBase := flag.Int64("seed-base", 1, "first seed")
	configName := flag.String("config", "all", "matrix cell to run (default: the full matrix)")
	replay := flag.Int64("replay", 0, "re-run exactly one campaign seed")
	repro := flag.String("repro", "", "run a program repro file through the matrix instead of generating")
	sabotage := flag.Bool("sabotage", false, "deliberately break the engine's undo walk; the campaign must catch it")
	maxCycles := flag.Int64("max-cycles", 2_000_000, "hang backstop per run (cycles)")
	watchdog := flag.Int64("watchdog", 300_000, "progress-watchdog window (cycles; 0 disables)")
	shrinkBudget := flag.Int("shrink-budget", 300, "predicate evaluations per divergence shrink")
	out := flag.String("out", "", "write the JSON report here (default stdout)")
	verbose := flag.Bool("v", false, "print one line per seed to stderr")
	trace := flag.Bool("trace", false, "stream the lifecycle events to stderr, one line each (repro debugging; use with -repro or -replay and -config)")
	jobs := flag.Int("j", 0, "parallel seeds (0 = GOMAXPROCS); the report is byte-identical for any -j")
	flag.Parse()

	cfgs := matrix()
	if *configName != "all" {
		c, ok := configByName(*configName)
		if !ok {
			fmt.Fprintf(os.Stderr, "difftest: unknown config %q (have %v)\n", *configName, configNames())
			return 2
		}
		cfgs = []simConfig{c}
	}
	opts := runOpts{
		Checks:    true,
		Watchdog:  sim.Cycle(*watchdog),
		MaxCycles: sim.Cycle(*maxCycles),
	}
	if *sabotage {
		opts.Sabotage = core.Sabotage{SkipUndoRecord: true}
	}
	if *trace {
		opts.Extra = obs.FuncSink(func(e obs.Event) { fmt.Fprintln(os.Stderr, e) })
	}

	rep := report{Campaign: campaign{
		SeedBase: *seedBase, Seeds: *seeds, Config: *configName,
		Matrix: configNames(), Sabotage: *sabotage,
		MaxCycles: uint64(opts.MaxCycles), Watchdog: uint64(opts.Watchdog),
	}}

	if *repro != "" {
		prog, err := progen.Load(*repro)
		if err != nil {
			fmt.Fprintln(os.Stderr, "difftest:", err)
			return 2
		}
		rec := diffProgram(prog, prog.Seed, cfgs, opts, *shrinkBudget)
		rep.Campaign.Seeds = 1
		rep.Campaign.SeedBase = prog.Seed
		rep.Runs = []seedRecord{rec}
	} else {
		list := campaignSeeds(*seedBase, *seeds)
		if *replay != 0 {
			list = []int64{*replay}
			rep.Campaign.Seeds = 1
			rep.Campaign.SeedBase = *replay
		}
		runs, err := sweep.Map(ctx, len(list), *jobs, func(i int) seedRecord {
			return runSeed(list[i], cfgs, opts, *shrinkBudget)
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "difftest:", err)
			if errors.Is(err, context.Canceled) {
				return 130
			}
			return 1
		}
		rep.Runs = runs
	}
	if *verbose {
		for _, rec := range rep.Runs {
			status := "ok"
			if !rec.OK {
				status = "DIVERGED"
				if rec.Divergence != nil {
					status = fmt.Sprintf("DIVERGED [%s] %d -> %d ops: %s",
						rec.Divergence.Config, rec.Divergence.OrigOps, rec.Divergence.MinOps, rec.Divergence.Detail)
				}
			}
			fmt.Fprintf(os.Stderr, "seed %4d  %d thr %2d tx %3d ops  %s\n",
				rec.Seed, rec.Threads, rec.Txs, rec.Ops, status)
		}
	}
	rep.Summary = summarize(rep.Runs)

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "difftest:", err)
		return 2
	}
	buf = append(buf, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "difftest:", err)
			return 2
		}
	} else {
		os.Stdout.Write(buf)
	}

	if *sabotage {
		// Self-test mode: the harness passes only by catching the bug.
		if rep.Summary.Failed == 0 {
			fmt.Fprintln(os.Stderr, "difftest: sabotaged engine produced no divergence — the harness is blind")
			return 1
		}
		return 0
	}
	if rep.Summary.Failed > 0 {
		return 1
	}
	return 0
}

func configNames() []string {
	var names []string
	for _, c := range matrix() {
		names = append(names, c.Name)
	}
	return names
}

func campaignSeeds(base int64, n int) []int64 {
	out := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, base+int64(i))
	}
	return out
}

func summarize(runs []seedRecord) summary {
	s := summary{Seeds: len(runs)}
	for _, r := range runs {
		if !r.OK {
			s.Failed++
			s.FailedSeeds = append(s.FailedSeeds, r.Seed)
			if r.Divergence != nil && r.Divergence.MinOps > s.MinOpsMax {
				s.MinOpsMax = r.Divergence.MinOps
			}
		}
		for _, c := range r.Configs {
			s.Commits += uint64(c.Commits)
			s.Aborts += c.Aborts
		}
	}
	return s
}

// runSeed generates the seed's program and differential-tests it.
func runSeed(seed int64, cfgs []simConfig, opts runOpts, shrinkBudget int) seedRecord {
	prog := progen.Generate(seed, progen.DeriveGenConfig(seed))
	return diffProgram(prog, seed, cfgs, opts, shrinkBudget)
}

// diffProgram runs one program through every matrix cell and applies the
// oracles; the first divergence is shrunk to a minimal repro.
func diffProgram(prog *progen.Program, seed int64, cfgs []simConfig, opts runOpts, shrinkBudget int) seedRecord {
	rec := seedRecord{
		Seed:        seed,
		Commutative: prog.Commutative,
		Threads:     len(prog.Threads),
		Txs:         prog.TotalTxs(),
		Ops:         prog.CountOps(),
		OK:          true,
	}
	type cell struct {
		cfg simConfig
		out *simOutcome
	}
	var clean []cell
	for _, cfg := range cfgs {
		out, err := runSim(prog, cfg, seed, opts)
		crec := configRecord{Config: cfg.Name}
		if err != nil {
			crec.Error = err.Error()
			rec.Configs = append(rec.Configs, crec)
			rec.OK = false
			continue
		}
		crec.Cycles = uint64(out.Cycles)
		crec.Commits = len(out.Order)
		crec.Aborts = out.Stats.Aborts
		crec.Stalls = out.Stats.Stalls
		crec.FPStalls = out.Stats.FalsePositiveStalls
		crec.Faults = out.Faults
		detail := oracleCheck(prog, cfg, out)
		if detail == "" {
			crec.OK = true
			clean = append(clean, cell{cfg, out})
		} else {
			crec.Error = detail
			rec.OK = false
			if rec.Divergence == nil {
				rec.Divergence = shrinkDivergence(prog, cfg, seed, opts, detail, shrinkBudget)
			}
		}
		rec.Configs = append(rec.Configs, crec)
	}
	// Metamorphic cross-config oracle: a commutative program's final
	// shared memory is independent of commit order, so every clean cell
	// must produce the identical image — perfect vs. Bloom signatures,
	// faults vs. none, 4 vs. 16 cores.
	if prog.Commutative && rec.OK && len(clean) > 1 {
		base := clean[0]
		for _, c := range clean[1:] {
			if d := diffU64s(base.out.Shared, c.out.Shared); d >= 0 {
				detail := fmt.Sprintf("cross-config shared slot %d: %s=%d %s=%d",
					d, base.cfg.Name, base.out.Shared[d], c.cfg.Name, c.out.Shared[d])
				rec.OK = false
				rec.Divergence = shrinkCrossConfig(prog, base.cfg, c.cfg, seed, opts, detail, shrinkBudget)
				break
			}
		}
	}
	return rec
}

// oracleCheck compares one simulator outcome against the reference model
// and the per-cell invariants; "" means the cell passed.
func oracleCheck(prog *progen.Program, cfg simConfig, out *simOutcome) string {
	if out.Err != "" {
		return out.Err
	}
	if len(out.CheckFailures) > 0 {
		return fmt.Sprintf("invariant oracle: %s (%d failures)", out.CheckFailures[0], len(out.CheckFailures))
	}
	if len(out.Order) != prog.TotalTxs() {
		return fmt.Sprintf("%d outermost commits, want %d", len(out.Order), prog.TotalTxs())
	}
	ref, err := refmodel.Execute(prog, out.Order)
	if err != nil {
		return err.Error()
	}
	for ti := range prog.Threads {
		var got []uint64
		if ti < len(out.TxReads) {
			got = out.TxReads[ti]
		}
		if len(got) != len(ref.TxReads[ti]) {
			return fmt.Sprintf("thread %d committed %d transactions, want %d", ti, len(got), len(ref.TxReads[ti]))
		}
		for i := range got {
			if got[i] != ref.TxReads[ti][i] {
				return fmt.Sprintf("thread %d tx %d read witness: sim=%#x ref=%#x", ti, i, got[i], ref.TxReads[ti][i])
			}
		}
	}
	if d := diffU64s(out.Shared, ref.Shared); d >= 0 {
		return fmt.Sprintf("final shared slot %d: sim=%d ref=%d", d, out.Shared[d], ref.Shared[d])
	}
	for ti := range prog.Threads {
		if d := diffU64s(out.Priv[ti], ref.Priv[ti]); d >= 0 {
			return fmt.Sprintf("thread %d final private slot %d: sim=%d ref=%d", ti, d, out.Priv[ti][d], ref.Priv[ti][d])
		}
	}
	// A perfect signature has no aliasing, so every stall it reports
	// must trace to an exact-set conflict.
	if cfg.Sig.Kind == sig.KindPerfect && out.Stats.FalsePositiveStalls > 0 {
		return fmt.Sprintf("perfect signature reported %d false-positive stalls", out.Stats.FalsePositiveStalls)
	}
	return ""
}

// diffU64s returns the first differing index, or -1.
func diffU64s(a, b []uint64) int {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		var av, bv uint64
		if i < len(a) {
			av = a[i]
		}
		if i < len(b) {
			bv = b[i]
		}
		if av != bv {
			return i
		}
	}
	return -1
}

// shrinkDivergence minimizes a program that diverges in one cell.
func shrinkDivergence(prog *progen.Program, cfg simConfig, seed int64, opts runOpts, detail string, budget int) *divergenceRec {
	pred := func(c *progen.Program) bool {
		out, err := runSim(c, cfg, seed, opts)
		if err != nil {
			return false
		}
		return oracleCheck(c, cfg, out) != ""
	}
	min := progen.Shrink(prog, pred, budget)
	minDetail := detail
	if out, err := runSim(min, cfg, seed, opts); err == nil {
		minDetail = oracleCheck(min, cfg, out)
	}
	return newDivergenceRec(cfg.Name, detail, prog, min, minDetail)
}

// shrinkCrossConfig minimizes a commutative program whose final shared
// memory differs between two cells.
func shrinkCrossConfig(prog *progen.Program, a, b simConfig, seed int64, opts runOpts, detail string, budget int) *divergenceRec {
	crossDiff := func(c *progen.Program) string {
		oa, err := runSim(c, a, seed, opts)
		if err != nil || oracleCheck(c, a, oa) != "" {
			return "" // only a pure cross-config delta counts here
		}
		ob, err := runSim(c, b, seed, opts)
		if err != nil || oracleCheck(c, b, ob) != "" {
			return ""
		}
		if d := diffU64s(oa.Shared, ob.Shared); d >= 0 {
			return fmt.Sprintf("cross-config shared slot %d: %s=%d %s=%d", d, a.Name, oa.Shared[d], b.Name, ob.Shared[d])
		}
		return ""
	}
	min := progen.Shrink(prog, func(c *progen.Program) bool { return crossDiff(c) != "" }, budget)
	minDetail := crossDiff(min)
	if minDetail == "" {
		minDetail = detail
	}
	return newDivergenceRec(a.Name+"/"+b.Name, detail, prog, min, minDetail)
}

func newDivergenceRec(config, detail string, orig, min *progen.Program, minDetail string) *divergenceRec {
	buf, err := min.Marshal()
	if err != nil {
		buf = []byte(`"unmarshalable"`)
	}
	return &divergenceRec{
		Config:     config,
		Detail:     detail,
		OrigOps:    orig.CountOps(),
		MinOps:     min.CountOps(),
		MinDetail:  minDetail,
		MinProgram: json.RawMessage(buf),
	}
}
