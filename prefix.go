package logtmse

import (
	"context"
	"fmt"
	"sync/atomic"

	"logtmse/internal/core"
	"logtmse/internal/sig"
	"logtmse/internal/snap"
	"logtmse/internal/sweep"
	"logtmse/internal/workload"
)

// Prefix-shared sweep execution.
//
// The cells of one Figure 4 row (or one Table 3 benchmark, or one
// ablation size sweep) differ only in their TM signature configuration.
// A perfect signature and a 2 Kb Bloom filter agree on almost every
// conflict probe, so most of those cells execute the byte-identical
// event sequence for most of the run — the sweep simulates the same
// prefix five times over.
//
// RunShared runs such a group once: the first uncached cell is the
// reference, ghost signatures (core.ShadowSigs) mirror every signature
// operation for the sibling configs, and the run is snapshotted
// (internal/snap) at geometrically spaced boundaries. A sibling whose
// ghosts never answered a consulted probe differently — and whose
// save/restore latencies always matched — executed the identical run:
// it reuses the reference's RunResult outright. A sibling that diverged
// forks from the last snapshot taken before its divergence point, with
// the ghost signatures substituted for the reference's
// (SystemState.WithSignatures), and simulates only the suffix. Either
// way the results are bit-identical to from-scratch runs — the shared
// equivalence tests pin this — so fingerprints, the result cache and
// every downstream report are unchanged.

// Shareable reports whether a cell can participate in prefix-shared
// group execution: a cacheable (observer-free) TM cell on the
// single-chip signature-mode baseline, compiled executor, no oracles,
// faults, warm-up or cycle bound. Everything else runs unshared,
// exactly as before.
func Shareable(rc RunConfig) bool {
	rc = rc.withDefaults()
	return Cacheable(rc) &&
		!rc.Checks.Any() &&
		!rc.Fault.Active() &&
		!rc.Interpret &&
		rc.WarmupCycles == 0 &&
		rc.MaxCycles == 0 &&
		rc.Variant.Mode == workload.TM &&
		rc.Params.CD == CDSignature &&
		rc.Params.Chips <= 1
}

// PrefixKey returns the grouping key for prefix-shared execution: cells
// with equal keys differ at most in their TM signature configuration
// and may run as one shared group. The key is the cell fingerprint with
// the variant masked to a canonical sentinel, so it covers everything
// else behavior-relevant (workload, scale, threads, machine parameters,
// seed). ok is false for cells that cannot share.
func PrefixKey(rc RunConfig, seed int64) (key string, ok bool) {
	rc = rc.withDefaults()
	if !Shareable(rc) {
		return "", false
	}
	rc.Variant = Variant{Name: "__prefix__", Mode: workload.TM, Sig: sig.Config{Kind: sig.KindPerfect}}
	fp, err := Fingerprint(rc, seed)
	if err != nil {
		return "", false
	}
	return "prefix:" + fp, true
}

// PrefixStats counts process-wide prefix-sharing outcomes (monotonic;
// for the sweep commands' stderr summary and the tests that assert
// sharing actually engaged).
type PrefixStats struct {
	// Groups counts shared groups that simulated a reference run.
	Groups uint64
	// Reused counts sibling cells that never diverged and reused the
	// reference result without simulating.
	Reused uint64
	// Forked counts sibling cells resumed from a snapshot.
	Forked uint64
	// Cold counts sibling cells that fell back to a from-scratch run
	// (diverged before the first usable snapshot).
	Cold uint64
}

var prefixCounters struct{ groups, reused, forked, cold atomic.Uint64 }

// SharedPrefixStats snapshots the process-wide prefix-sharing counters.
func SharedPrefixStats() PrefixStats {
	return PrefixStats{
		Groups: prefixCounters.groups.Load(),
		Reused: prefixCounters.reused.Load(),
		Forked: prefixCounters.forked.Load(),
		Cold:   prefixCounters.cold.Load(),
	}
}

// PrefixSummary formats the one-line sharing report the sweep commands
// print to standard error with -share-prefix.
func PrefixSummary() string {
	s := SharedPrefixStats()
	return fmt.Sprintf("share-prefix: %d groups, %d cells reused, %d forked, %d cold", s.Groups, s.Reused, s.Forked, s.Cold)
}

// RunShared executes one prefix-shared group — cells that agree on
// PrefixKey for seed — and returns their results in input order, each
// bit-identical to what RunOne would have produced. Cached cells are
// served first; if at most one cell remains it runs unshared (there is
// no prefix to share). Computed results are stored in each cell's
// cache, so shared and unshared invocations stay interchangeable.
func RunShared(ctx context.Context, rcs []RunConfig, seed int64) ([]RunResult, error) {
	if len(rcs) == 0 {
		return nil, nil
	}
	norm := make([]RunConfig, len(rcs))
	keys := make([]string, len(rcs))
	var groupKey string
	for i := range rcs {
		norm[i] = rcs[i].withDefaults()
		gk, ok := PrefixKey(norm[i], seed)
		if !ok {
			return nil, fmt.Errorf("logtmse: cell %d (%s/%s) is not prefix-shareable", i, norm[i].Workload, norm[i].Variant.Name)
		}
		if i == 0 {
			groupKey = gk
		} else if gk != groupKey {
			return nil, fmt.Errorf("logtmse: cell %d (%s/%s) has a different prefix key than cell 0", i, norm[i].Workload, norm[i].Variant.Name)
		}
		k, err := Fingerprint(norm[i], seed)
		if err != nil {
			return nil, err
		}
		keys[i] = k
	}

	results := make([]RunResult, len(rcs))
	done := make([]bool, len(rcs))
	var miss []int
	for i := range norm {
		if norm[i].Cache != nil {
			if payload, ok := norm[i].Cache.Get(keys[i]); ok {
				if r, err := decodeResult(payload); err == nil {
					results[i] = r
					done[i] = true
					continue
				}
			}
		}
		miss = append(miss, i)
	}
	switch len(miss) {
	case 0:
		return results, nil
	case 1:
		r, err := RunOne(norm[miss[0]], seed)
		if err != nil {
			return nil, err
		}
		results[miss[0]] = r
		return results, nil
	}

	// Trapped like runOneSafe: a panicking workload fails this group,
	// not the campaign sweeping it.
	err := sweep.Trap(func() error {
		return runSharedGroup(ctx, norm, keys, seed, miss, results)
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// sibFork is the fork point recorded for one sibling: the last snapshot
// taken while the sibling's ghosts were still mirroring, plus its ghost
// signature overlay at that boundary.
type sibFork struct {
	snap *snap.Snapshot
	ov   *core.SigOverlay
}

// runSharedGroup simulates the group's uncached cells: the reference
// (miss[0]) runs for real with ghost signatures and periodic snapshots;
// every other miss reuses, forks, or reruns cold. Results land in
// results[i] for each i in miss.
func runSharedGroup(ctx context.Context, norm []RunConfig, keys []string, seed int64, miss []int, results []RunResult) error {
	ref := miss[0]
	sibs := miss[1:]
	refRes, forks, status, err := runSharedReference(norm[ref], seed, norm, sibs)
	if err != nil {
		return err
	}
	prefixCounters.groups.Add(1)
	results[ref] = refRes

	for j, i := range sibs {
		if err := ctx.Err(); err != nil {
			return err
		}
		switch {
		case !status[j].Diverged:
			// The sibling's hardware would have executed the identical
			// run: the reference result is its result, bit for bit.
			r := refRes
			results[i] = r
			prefixCounters.reused.Add(1)
		case forks[j].snap != nil:
			r, ok, err := runForkedCell(norm[i], seed, forks[j])
			if err != nil {
				return err
			}
			if ok {
				results[i] = r
				prefixCounters.forked.Add(1)
				break
			}
			fallthrough
		default:
			// Diverged before the first usable snapshot (or the fork
			// was refused): simulate from scratch, exactly as unshared.
			r, err := runOneSafe(norm[i], seed)
			if err != nil {
				return err
			}
			results[i] = r
			prefixCounters.cold.Add(1)
		}
	}

	// Store computed results so later unshared or cached invocations
	// are served without simulating. Do (not Put) keeps single-flight
	// and miss accounting consistent with runCached.
	for _, i := range miss {
		if norm[i].Cache == nil {
			continue
		}
		r := results[i]
		payload, hit, err := norm[i].Cache.Do(keys[i], func() ([]byte, error) {
			return encodeResult(r)
		})
		if err != nil {
			return err
		}
		if hit {
			// A concurrent actor computed this cell first; its payload
			// decodes to the identical result (determinism), and using
			// it mirrors runCached's behavior exactly.
			if dr, derr := decodeResult(payload); derr == nil {
				results[i] = dr
			}
		}
	}
	return nil
}

// runSharedReference simulates the reference cell with ghost signatures
// for the siblings, capturing snapshots at geometrically spaced
// quiescent boundaries. It returns the reference result, each sibling's
// fork point (zero sibFork = no usable snapshot), and each sibling's
// divergence status.
func runSharedReference(rc RunConfig, seed int64, norm []RunConfig, sibs []int) (RunResult, []sibFork, []core.ShadowStatus, error) {
	w, ok := workload.ByName(rc.Workload)
	if !ok {
		return RunResult{}, nil, nil, fmt.Errorf("logtmse: unknown workload %q", rc.Workload)
	}
	p := *rc.Params
	p.Seed = seed
	p.Signature = rc.Variant.Sig
	sys := sysPool.get(p, seed)
	if sys == nil {
		var err error
		sys, err = core.NewSystem(p)
		if err != nil {
			return RunResult{}, nil, nil, err
		}
	}
	inst, err := w.Spawn(sys, workload.Config{
		Mode:    rc.Variant.Mode,
		Threads: rc.Threads,
		Scale:   rc.Scale,
	})
	if err != nil {
		return RunResult{}, nil, nil, err
	}
	vars := make([]core.ShadowVariant, len(sibs))
	for j, i := range sibs {
		vars[j] = core.ShadowVariant{Name: sibName(j), Sig: norm[i].Variant.Sig}
	}
	shadow, err := sys.AttachShadow(vars)
	if err != nil {
		return RunResult{}, nil, nil, err
	}

	// Geometric snapshot schedule: cheap runs get a couple of early
	// boundaries, long runs stay at O(log) snapshots. A failed capture
	// (an untracked event in flight at this boundary) is skipped, not
	// fatal — the sibling just forks from an earlier snapshot.
	forks := make([]sibFork, len(sibs))
	interval := Cycle(10_000)
	next := interval
	for {
		sys.RunUntil(next)
		if sys.AllDone() {
			break
		}
		// A still-mirroring sibling wants a fresher snapshot (a later
		// fork point simulates less suffix); once every sibling has
		// diverged, its recorded fork point is final and capturing
		// more would be pure overhead.
		live := false
		for _, st := range shadow.Status() {
			if !st.Diverged {
				live = true
				break
			}
		}
		if !live {
			break // every sibling diverged and holds its best fork point
		}
		if s, err := snap.Capture(sys, inst); err == nil {
			for j := range sibs {
				if ov := shadow.Overlay(sibName(j)); ov != nil {
					forks[j] = sibFork{snap: s, ov: ov}
				}
			}
		}
		next += interval
		interval *= 2
	}
	end := sys.Run()
	res, err := finishSharedRun(rc, seed, sys, inst, end)
	if err != nil {
		return RunResult{}, nil, nil, err
	}
	return res, forks, shadow.Status(), nil
}

func sibName(j int) string { return fmt.Sprintf("sib%d", j) }

// runForkedCell resumes one diverged sibling from its fork point on a
// machine built with the sibling's signature config. ok=false (with nil
// error) means the fork was refused — overlay mismatch, restore
// rejection — and the caller should run the cell from scratch.
func runForkedCell(rc RunConfig, seed int64, f sibFork) (RunResult, bool, error) {
	st, err := f.snap.Sys.WithSignatures(f.ov)
	if err != nil {
		return RunResult{}, false, nil
	}
	w, ok := workload.ByName(rc.Workload)
	if !ok {
		return RunResult{}, false, fmt.Errorf("logtmse: unknown workload %q", rc.Workload)
	}
	p := *rc.Params
	p.Seed = seed
	p.Signature = rc.Variant.Sig
	sys := sysPool.get(p, seed)
	if sys == nil {
		sys, err = core.NewSystem(p)
		if err != nil {
			return RunResult{}, false, err
		}
	}
	inst, err := w.Spawn(sys, workload.Config{
		Mode:    rc.Variant.Mode,
		Threads: rc.Threads,
		Scale:   rc.Scale,
	})
	if err != nil {
		return RunResult{}, false, err
	}
	fs := &snap.Snapshot{Sys: st, Machines: f.snap.Machines, Counters: f.snap.Counters, Cycle: f.snap.Cycle}
	if err := snap.Restore(sys, inst, fs); err != nil {
		return RunResult{}, false, nil
	}
	end := sys.Run()
	res, err := finishSharedRun(rc, seed, sys, inst, end)
	if err != nil {
		return RunResult{}, false, err
	}
	return res, true, nil
}

// finishSharedRun is runOneCold's postlude for the shareable subset (no
// oracles, faults, observers or warm-up): completion check with the
// full diagnosis, workload verification, result assembly, pool return.
func finishSharedRun(rc RunConfig, seed int64, sys *core.System, inst *workload.Instance, end Cycle) (RunResult, error) {
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
	sysPool.put(sys)
	return res, nil
}

// SweepCell pairs one cell configuration with one seed — the unit
// RunCellsShared groups and executes.
type SweepCell struct {
	RC   RunConfig
	Seed int64
}

// RunCellsShared executes cells with prefix sharing: shareable cells
// with equal prefix keys run as one group (RunShared), everything else
// runs unshared (RunOne). Results return in input order, bit-identical
// to running every cell through RunOne; up to jobs groups run
// concurrently (0 = GOMAXPROCS). The first failing cell (in input
// order) determines the returned error.
func RunCellsShared(ctx context.Context, cells []SweepCell, jobs int) ([]RunResult, error) {
	type group struct {
		idxs []int
	}
	var order []string
	groups := make(map[string]*group)
	for i, c := range cells {
		rc := c.RC.withDefaults()
		key, ok := PrefixKey(rc, c.Seed)
		if !ok {
			key = fmt.Sprintf("solo:%d", i)
		}
		g := groups[key]
		if g == nil {
			g = &group{}
			groups[key] = g
			order = append(order, key)
		}
		g.idxs = append(g.idxs, i)
	}
	results := make([]RunResult, len(cells))
	errs := make([]error, len(cells))
	_, err := sweep.Map(ctx, len(order), jobs, func(gi int) struct{} {
		g := groups[order[gi]]
		if len(g.idxs) == 1 {
			i := g.idxs[0]
			results[i], errs[i] = RunOne(cells[i].RC, cells[i].Seed)
			return struct{}{}
		}
		rcs := make([]RunConfig, len(g.idxs))
		for k, i := range g.idxs {
			rcs[k] = cells[i].RC
		}
		rs, err := RunShared(ctx, rcs, cells[g.idxs[0]].Seed)
		for k, i := range g.idxs {
			if err != nil {
				errs[i] = err
			} else {
				results[i] = rs[k]
			}
		}
		return struct{}{}
	})
	if err != nil {
		return nil, err
	}
	for _, e := range errs {
		if e != nil {
			return results, e
		}
	}
	return results, nil
}

// Figure4Shared is Figure4Cached with prefix-shared execution: per
// seed, the five TM variants run as one shared group (the Lock baseline
// is a distinct synchronization mode and runs unshared). The row is
// byte-identical to Figure4Cached's — pinned by the shared equivalence
// test.
func Figure4Shared(ctx context.Context, workloadName string, scale float64, seeds []int64, params *Params, threads, jobs int, cache *ResultCache) (Figure4Row, error) {
	return Figure4SharedObserved(ctx, workloadName, scale, seeds, params, threads, jobs, cache, nil)
}

// Figure4SharedObserved is Figure4Shared with live campaign telemetry
// (the -serve endpoints): group members report in-flight transitions
// together, since they complete together.
func Figure4SharedObserved(ctx context.Context, workloadName string, scale float64, seeds []int64, params *Params, threads, jobs int, cache *ResultCache, camp *Campaign) (Figure4Row, error) {
	if len(seeds) == 0 {
		seeds = []int64{1, 2, 3}
	}
	var begin, end func(i int)
	if camp != nil {
		begin, end = camp.Hooks()
	}
	variants := Figure4Variants()
	mk := func(v Variant) RunConfig {
		return RunConfig{
			Workload: workloadName, Variant: v,
			Scale: scale, Seeds: seeds, Params: params, Threads: threads,
			Cache: cache,
		}.withDefaults()
	}
	outs := make([]seedOut, len(variants)*len(seeds))
	record := func(i int, r RunResult, err error) {
		outs[i] = seedOut{r: r, err: err}
		if camp != nil {
			camp.RecordRun(r.Stats.Commits, r.Stats.Aborts, r.Stats.Stalls)
			if err != nil {
				camp.FailCell()
			}
		}
	}
	// Unit 2*si is seed si's Lock baseline; unit 2*si+1 is its TM
	// group. Units are independent, so jobs parallelism never reorders
	// the (variant, seed)-indexed outs.
	_, err := sweep.Map(ctx, 2*len(seeds), jobs, func(u int) struct{} {
		si := u / 2
		seed := seeds[si]
		if u%2 == 0 {
			i := 0*len(seeds) + si
			if begin != nil {
				begin(i)
			}
			r, err := RunOne(mk(variants[0]), seed)
			record(i, r, err)
			if end != nil {
				end(i)
			}
			return struct{}{}
		}
		idxs := make([]int, 0, len(variants)-1)
		rcs := make([]RunConfig, 0, len(variants)-1)
		for vi := 1; vi < len(variants); vi++ {
			idxs = append(idxs, vi*len(seeds)+si)
			rcs = append(rcs, mk(variants[vi]))
		}
		if begin != nil {
			for _, i := range idxs {
				begin(i)
			}
		}
		rs, gerr := RunShared(ctx, rcs, seed)
		for k, i := range idxs {
			if gerr != nil {
				record(i, RunResult{}, gerr)
			} else {
				record(i, rs[k], nil)
			}
		}
		if end != nil {
			for _, i := range idxs {
				end(i)
			}
		}
		return struct{}{}
	})
	if err != nil {
		return Figure4Row{Workload: workloadName}, err
	}
	return figure4RowFromOuts(workloadName, seeds, outs)
}
