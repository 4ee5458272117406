package logtmse

import (
	"context"
	"fmt"
	"math"

	"logtmse/internal/core"
	"logtmse/internal/fault"
	"logtmse/internal/sig"
	"logtmse/internal/stats"
	"logtmse/internal/sweep"
	"logtmse/internal/workload"
)

// Variant is one bar of Figure 4: a synchronization mode plus (for TM) a
// signature configuration.
type Variant struct {
	Name string
	Mode workload.Mode
	Sig  sig.Config
}

// Figure4Variants returns the paper's six variants in bar order:
// Lock, Perfect (P), BS, CBS, DBS (2 Kb each), and BS_64.
func Figure4Variants() []Variant {
	return []Variant{
		{Name: "Lock", Mode: workload.Lock, Sig: sig.Config{Kind: sig.KindPerfect}},
		{Name: "Perfect", Mode: workload.TM, Sig: sig.Config{Kind: sig.KindPerfect}},
		{Name: "BS", Mode: workload.TM, Sig: sig.Config{Kind: sig.KindBitSelect, Bits: 2048}},
		{Name: "CBS", Mode: workload.TM, Sig: sig.Config{Kind: sig.KindCoarseBitSelect, Bits: 2048}},
		{Name: "DBS", Mode: workload.TM, Sig: sig.Config{Kind: sig.KindDoubleBitSelect, Bits: 2048}},
		{Name: "BS_64", Mode: workload.TM, Sig: sig.Config{Kind: sig.KindBitSelect, Bits: 64}},
	}
}

// Table3Variants returns Table 3's signature rows in order: Perfect,
// then BS, CBS and DBS at 2 Kb and at 64 bits.
func Table3Variants() []Variant {
	return []Variant{
		{Name: "Perfect", Mode: workload.TM, Sig: sig.Config{Kind: sig.KindPerfect}},
		{Name: "BS_2048", Mode: workload.TM, Sig: sig.Config{Kind: sig.KindBitSelect, Bits: 2048}},
		{Name: "CBS_2048", Mode: workload.TM, Sig: sig.Config{Kind: sig.KindCoarseBitSelect, Bits: 2048}},
		{Name: "DBS_2048", Mode: workload.TM, Sig: sig.Config{Kind: sig.KindDoubleBitSelect, Bits: 2048}},
		{Name: "BS_64", Mode: workload.TM, Sig: sig.Config{Kind: sig.KindBitSelect, Bits: 64}},
		{Name: "CBS_64", Mode: workload.TM, Sig: sig.Config{Kind: sig.KindCoarseBitSelect, Bits: 64}},
		{Name: "DBS_64", Mode: workload.TM, Sig: sig.Config{Kind: sig.KindDoubleBitSelect, Bits: 64}},
	}
}

// table3Workloads are the two benchmarks Table 3 reports.
var table3Workloads = []string{"Raytrace", "BerkeleyDB"}

// VariantByName resolves a Figure 4 bar label.
func VariantByName(name string) (Variant, bool) {
	for _, v := range Figure4Variants() {
		if v.Name == name {
			return v, true
		}
	}
	return Variant{}, false
}

// Workloads returns the five Table 2 benchmarks.
func Workloads() []*workload.Workload { return workload.All() }

// WorkloadByName resolves a Table 2 benchmark name.
func WorkloadByName(name string) (*workload.Workload, bool) { return workload.ByName(name) }

// RunConfig describes one experiment cell.
type RunConfig struct {
	Workload string
	Variant  Variant
	// Scale multiplies the paper's input sizes (default 1.0).
	Scale float64
	// Threads overrides the worker count (default: all 32 contexts).
	Threads int
	// Seeds lists the pseudo-random perturbations; each yields one run
	// (default {1, 2, 3}).
	Seeds []int64
	// Params overrides the machine (default: Table 1). The signature
	// config is always replaced by the variant's.
	Params *Params
	// Sink, if set, receives the structured lifecycle event stream
	// (transaction begins/commits/aborts, NACKs, stall episodes, log
	// walks, summary conflicts, sticky forwards) from the engine and
	// the coherence protocol — the one port for every consumer (a
	// Recorder, a Profiler, an Event.String printer; join several with
	// Tee). Nil disables instrumentation; Stats are bit-identical
	// either way for the same seed. Params.Sink must stay nil.
	Sink Sink
	// Flight, if set, records recent lifecycle events into bounded
	// per-core rings; invariant-oracle failures, watchdog trips and
	// hung runs dump them as a postmortem.
	Flight *FlightRecorder
	// Metrics, if set, is attached to the system: the engine's counters
	// are bound into Metrics.Reg and its histograms are fed during the
	// run. MetricsInterval controls periodic time-series snapshots in
	// cycles (0 = every 10k cycles).
	Metrics         *CoreMetrics
	MetricsInterval Cycle
	// MaxCycles, when nonzero, bounds the run; a run still incomplete at
	// the bound fails with the engine's wait-for diagnosis (the chaos
	// campaign's hang backstop). 0 runs to completion.
	MaxCycles Cycle
	// Checks enables the runtime invariant oracles (shadow memory,
	// signature membership, undo-log LIFO, sticky audit, progress
	// watchdog). Oracles only observe: enabling them leaves Stats
	// bit-identical for the same seed; any violation fails the run and
	// is reported in RunResult.CheckFailures.
	Checks CheckConfig
	// Fault, when active, attaches the deterministic fault injector. A
	// zero Fault.Seed derives one from the run seed so each seed sees a
	// different (but reproducible) fault schedule.
	Fault FaultPlan
	// Sabotage, when active, arms a deliberate engine bug (see
	// core.Sabotage) — the validation target the oracles, the
	// differential harness and cycle-level bisect are proved against.
	// Sabotaged cells are never cached or pooled; unlike the hook-based
	// fault injector, sabotage is plain machine state, so snapshots
	// capture it and BisectFailure can localize its damage.
	Sabotage Sabotage
	// Jobs bounds how many seeds run concurrently (0 = GOMAXPROCS,
	// 1 = serial). Each seed is a share-nothing cell, so the worker
	// count never changes results — only wall-clock time. Cells with a
	// Sink, Flight or Metrics attached share those observers across
	// seeds and therefore always run serially, whatever Jobs says.
	Jobs int
	// Cache, if set, memoizes cell results by fingerprint (see
	// Fingerprint): a cell already cached is served without simulating,
	// concurrent requests for the same cell simulate it once
	// (single-flight), and with a disk-backed cache results persist
	// across processes. Cells with an observer attached bypass the
	// cache (see Cacheable). Served results are byte-identical to a
	// cold run — the determinism guarantee is exactly what makes the
	// cell a pure function of its fingerprint.
	Cache *ResultCache
}

// observed reports whether the cell attaches an observer. Observed
// cells are never cached, pooled or snapshotted, and run serially.
func (rc RunConfig) observed() bool {
	return rc.Sink != nil || rc.Flight != nil || rc.Metrics != nil
}

// errParamsSink rejects Params.Sink: the harness builds it from
// RunConfig.Sink and RunConfig.Flight.
var errParamsSink = fmt.Errorf("logtmse: attach event sinks with RunConfig.Sink, not Params.Sink")

// validate rejects a defaulted cell the simulator cannot run: an input
// scale that is negative or not finite (it would size every workload
// from a meaningless number) or a negative thread count.
func (rc RunConfig) validate() error {
	if rc.Scale < 0 || math.IsNaN(rc.Scale) || math.IsInf(rc.Scale, 0) {
		return fmt.Errorf("logtmse: Scale (%v) must be a finite positive number", rc.Scale)
	}
	if rc.Threads < 0 {
		return fmt.Errorf("logtmse: Threads (%d) must not be negative", rc.Threads)
	}
	if _, ok := workload.ByName(rc.Workload); !ok {
		return fmt.Errorf("logtmse: unknown workload %q", rc.Workload)
	}
	return nil
}

func (rc RunConfig) withDefaults() RunConfig {
	if rc.Scale == 0 {
		rc.Scale = 1.0
	}
	if len(rc.Seeds) == 0 {
		rc.Seeds = []int64{1, 2, 3}
	}
	if rc.Params == nil {
		p := DefaultParams()
		rc.Params = &p
	}
	return rc
}

// RunResult is one seed's measurement.
type RunResult struct {
	Seed          int64
	Cycles        Cycle
	WorkUnits     uint64
	CyclesPerUnit float64
	Stats         Stats
	// CheckFailures lists invariant-oracle violations when RunConfig.Checks
	// enabled oracles (empty = every oracle held). A non-empty list also
	// makes RunOne return an error, with the partial result populated.
	CheckFailures []CheckFailure
	// Faults counts applied fault injections per class when
	// RunConfig.Fault was active.
	Faults map[string]uint64
}

// Aggregate summarizes an experiment cell across seeds.
type Aggregate struct {
	Workload string
	Variant  Variant
	Runs     []RunResult
	// CPU is the cycles-per-work-unit sample (the execution-time metric
	// Figure 4 normalizes).
	CPU stats.Sample
}

// Mean returns mean cycles-per-unit.
func (a Aggregate) Mean() float64 { return a.CPU.Mean() }

// CI95 returns the 95% confidence half-width of cycles-per-unit.
func (a Aggregate) CI95() float64 { return a.CPU.CI95() }

// TotalStats sums the counters across runs (for rate metrics use the
// per-run values).
func (a Aggregate) TotalStats() Stats {
	var t Stats
	for _, r := range a.Runs {
		s := r.Stats
		t.Begins += s.Begins
		t.NestedBegins += s.NestedBegins
		t.Commits += s.Commits
		t.NestedCommits += s.NestedCommits
		t.OpenCommits += s.OpenCommits
		t.Aborts += s.Aborts
		t.Stalls += s.Stalls
		t.FalsePositiveStalls += s.FalsePositiveStalls
		t.NonTxRetries += s.NonTxRetries
		t.PossibleCycleAborts += s.PossibleCycleAborts
		t.SummaryConflicts += s.SummaryConflicts
		t.SMTConflicts += s.SMTConflicts
		t.WorkUnits += s.WorkUnits
		t.LogRecords += s.LogRecords
		t.LogFilterHits += s.LogFilterHits
		t.ReadSetSum += s.ReadSetSum
		t.WriteSetSum += s.WriteSetSum
		if s.ReadSetMax > t.ReadSetMax {
			t.ReadSetMax = s.ReadSetMax
		}
		if s.WriteSetMax > t.WriteSetMax {
			t.WriteSetMax = s.WriteSetMax
		}
		if s.MaxLogBytes > t.MaxLogBytes {
			t.MaxLogBytes = s.MaxLogBytes
		}
		t.Cycles += s.Cycles
		t.Coh.Loads += s.Coh.Loads
		t.Coh.Stores += s.Coh.Stores
		t.Coh.L1Hits += s.Coh.L1Hits
		t.Coh.L1Misses += s.Coh.L1Misses
		t.Coh.L2Misses += s.Coh.L2Misses
		t.Coh.Upgrades += s.Coh.Upgrades
		t.Coh.Forwards += s.Coh.Forwards
		t.Coh.Broadcasts += s.Coh.Broadcasts
		t.Coh.NACKs += s.Coh.NACKs
		t.Coh.StickyEvicts += s.Coh.StickyEvicts
		t.Coh.L1TxVictims += s.Coh.L1TxVictims
		t.Coh.L2TxVictims += s.Coh.L2TxVictims
		t.Coh.WritebacksToMem += s.Coh.WritebacksToMem
	}
	return t
}

// RunOne executes a single seed of an experiment cell and verifies the
// workload's invariants. With RunConfig.Cache set, a previously
// computed result is served from the cache instead (see Fingerprint);
// either way the returned result is identical.
func RunOne(rc RunConfig, seed int64) (RunResult, error) {
	rc = rc.withDefaults()
	if err := rc.validate(); err != nil {
		return RunResult{}, err
	}
	if rc.Params.Sink != nil {
		return RunResult{}, errParamsSink
	}
	if rc.Cache != nil && Cacheable(rc) {
		if key, err := Fingerprint(rc, seed); err == nil {
			return runCached(rc, seed, key)
		}
	}
	return runOneSafe(rc, seed)
}

// runOneSafe traps panics out of the simulation (a buggy Sink, a
// workload defect) into an error, so a panicking cell fails
// that cell — not the whole campaign sweeping it.
func runOneSafe(rc RunConfig, seed int64) (r RunResult, err error) {
	err = sweep.Trap(func() error {
		var e error
		r, e = runOneCold(rc, seed)
		return e
	})
	return r, err
}

// runCached serves one cell through the result cache: a hit decodes the
// stored result, a miss simulates and stores it, and concurrent misses
// of the same key simulate once. Failed runs are never cached, and this
// caller's own failures are returned verbatim (partial result included).
func runCached(rc RunConfig, seed int64, key string) (RunResult, error) {
	var cold RunResult
	var coldErr error
	ran := false
	payload, _, err := rc.Cache.Do(key, func() ([]byte, error) {
		ran = true
		// Trapped inside the Do closure so single-flight waiters on a
		// panicking cell receive a real error, not a poisoned flight.
		cold, coldErr = runOneSafe(rc, seed)
		if coldErr != nil {
			return nil, coldErr
		}
		return encodeResult(cold)
	})
	if ran {
		return cold, coldErr
	}
	if err != nil {
		return RunResult{}, err
	}
	return decodeResult(payload)
}

// runOneCold simulates one cell for real, on a pooled machine when the
// cell qualifies (no observers, oracles or fault injection) and one is
// available, or on a freshly constructed one otherwise. Pooled and
// fresh runs are byte-identical (pinned by determinism tests).
func runOneCold(rc RunConfig, seed int64) (RunResult, error) {
	rc = rc.withDefaults()
	w, ok := workload.ByName(rc.Workload)
	if !ok {
		return RunResult{}, fmt.Errorf("logtmse: unknown workload %q", rc.Workload)
	}
	p := *rc.Params
	p.Seed = seed
	p.Signature = rc.Variant.Sig
	p.Sink = rc.Sink
	if rc.Flight != nil {
		p.Sink = Tee(rc.Sink, rc.Flight)
	}
	poolable := poolableCell(rc)
	var sys *core.System
	if poolable {
		sys = sysPool.get(p, seed)
	}
	if sys == nil {
		var err error
		sys, err = core.NewSystem(p)
		if err != nil {
			return RunResult{}, err
		}
	}
	sys.Sabotage = rc.Sabotage
	if rc.Metrics != nil {
		interval := rc.MetricsInterval
		if interval == 0 {
			interval = 10_000
		}
		sys.AttachMetrics(rc.Metrics, interval)
	}
	inst, err := w.Spawn(sys, workload.Config{
		Mode:    rc.Variant.Mode,
		Threads: rc.Threads,
		Scale:   rc.Scale,
	})
	if err != nil {
		return RunResult{}, err
	}
	// The checker seeds its shadow memory from the workload's setup
	// writes, so it must attach after Spawn and before the run.
	var chk *Checker
	if rc.Checks.Any() {
		chk = sys.AttachChecker(rc.Checks)
		if rc.Flight != nil {
			chk.SetFlightDump(rc.Flight.DumpString)
		}
	}
	var inj *Injector
	if rc.Fault.Active() {
		plan := rc.Fault
		if plan.Seed == 0 {
			plan.Seed = seed*7919 + 13
		}
		inj = fault.New(plan, sys)
		inj.Arm()
	}
	var end Cycle
	if rc.MaxCycles > 0 {
		end = sys.RunUntil(rc.MaxCycles)
	} else {
		end = sys.Run()
	}
	if rc.Metrics != nil {
		// Close the time series with the end-of-run state, stamped at
		// the run's true final cycle (a trailing snapshot event may
		// have advanced the raw clock past it).
		rc.Metrics.Reg.Snapshot(end)
	}
	res := RunResult{Seed: seed}
	if chk != nil {
		res.CheckFailures = chk.Failures()
	}
	if inj != nil {
		res.Faults = inj.Stats().ByClass()
	}
	if !sys.AllDone() {
		// A hung run fails with a full diagnosis — per-thread transaction
		// state and the NACK wait-for graph — not just thread names. With
		// a flight recorder attached, the last events per core follow.
		diag := sys.Diagnose()
		if rc.Flight != nil {
			diag += "\n" + rc.Flight.DumpString()
		}
		return res, fmt.Errorf("logtmse: %s/%s seed %d: threads stuck: %v\n%s",
			rc.Workload, rc.Variant.Name, seed, sys.Stuck(), diag)
	}
	if err := inst.Verify(sys); err != nil {
		return res, fmt.Errorf("logtmse: %s/%s seed %d: %w",
			rc.Workload, rc.Variant.Name, seed, err)
	}
	if chk != nil {
		if err := chk.Err(); err != nil {
			return res, fmt.Errorf("logtmse: %s/%s seed %d: %w",
				rc.Workload, rc.Variant.Name, seed, err)
		}
	}
	st := sys.Stats()
	if st.WorkUnits == 0 {
		return res, fmt.Errorf("logtmse: %s produced no work units", rc.Workload)
	}
	res.Cycles = end
	res.WorkUnits = st.WorkUnits
	res.CyclesPerUnit = float64(end) / float64(st.WorkUnits)
	res.Stats = st
	if poolable {
		// Only a cleanly finished machine returns to the pool: every
		// failure path above leaves it to the garbage collector, so a
		// wedged thread goroutine can never be handed to the next cell.
		sysPool.put(sys)
	}
	return res, nil
}

// Run executes an experiment cell across its seeds, up to rc.Jobs of them
// concurrently. Results are aggregated in seed-list order, so the
// Aggregate is bit-identical for every worker count.
func Run(rc RunConfig) (Aggregate, error) {
	jobs := rc.Jobs
	if rc.observed() {
		// Observers are shared across seeds; keep their event streams
		// serial and in seed order.
		jobs = 1
	}
	aggs, err := runCells(context.Background(), []RunConfig{rc}, jobs, nil, nil)
	if err != nil {
		return Aggregate{Workload: rc.Workload, Variant: rc.Variant}, err
	}
	return aggs[0], nil
}
