package core

import (
	"fmt"
	"math"
	"runtime/debug"

	"logtmse/internal/addr"
	"logtmse/internal/check"
	"logtmse/internal/coherence"
	"logtmse/internal/mem"
	"logtmse/internal/network"
	"logtmse/internal/obs"
	"logtmse/internal/sig"
	"logtmse/internal/sim"
	"logtmse/internal/txlog"
)

// System is a simulated LogTM-SE machine: the CMP substrates plus the
// transactional engine and the software threads running on it.
type System struct {
	P      Params
	Engine *sim.Engine
	Mem    *mem.Memory
	// Coh is the memory system: a single-chip directory or snooping CMP,
	// or the §7 multiple-CMP hierarchy when Params.Chips > 1.
	Coh coherence.Memory

	ctxs    [][]*Context // [core][thread]
	threads []*Thread
	stats   Stats

	// nackScratch backs SignatureCheck's result; smtNack backs the
	// single-element slice the SMT-conflict path hands to resolveNACK.
	// Both are read by the caller before any further check runs, and the
	// system is owned by one simulation goroutine, so reusing them is
	// safe and keeps the per-access hot path allocation-free.
	nackScratch []coherence.Nacker
	smtNack     [1]coherence.Nacker

	// txLive counts scheduled in-transaction contexts per core. The
	// coherence hooks consult it to skip the per-context scan on cores
	// with no live transaction (the common case in low-conflict runs);
	// recountTx refreshes it at every scheduling or depth transition.
	txLive []int

	// verdictCoh is the memory system when NACK retry verdicts can be
	// replayed on this machine (see verdictsOn); nil otherwise. It also
	// carries the block stamps and the epoch a verdict depends on.
	verdictCoh *coherence.System
	// verdictReplays counts retries answered from a verdict, and
	// replaySkips those of them that skipped re-validation;
	// verdictRechecks counts retries that re-checked only the moved
	// cores and still NACKed.
	verdictReplays  uint64
	replaySkips     uint64
	verdictRechecks uint64
	// replayGen advances at every step that is not a clean replay, and
	// wherever state changes outside a step (see retry).
	replayGen uint64

	// lane queues every thread's continuation beside the engine's
	// queue; laneStep runs one (runCont; the lane-order oracle
	// substitutes its own).
	lane     contLane
	laneStep func(*Thread) bool
	// coreStamps date each core's transactional state (see stampCore);
	// allStamp is their sum, and allCores the mask of every core. Host
	// bookkeeping that only ever grows.
	coreStamps []uint64
	allStamp   uint64
	allCores   uint64
	// dates is recheck's scratch for the current dates of a verdict's
	// cores (see dateCores).
	dates []uint64

	// Engine-ownership handoff state (see pump): the event loop runs on
	// whichever goroutine currently owns the engine — Run's caller or a
	// resumed thread. readied names the thread whose response the event
	// just executed made ready; mainWake resumes Run's caller when the
	// bounded run finishes on a thread's goroutine. runLimit/runLast are
	// the active Run/RunUntil bound and the last strong cycle.
	readied  *Thread
	mainWake chan struct{}
	runLimit sim.Cycle
	runLast  sim.Cycle

	// threadPanic holds a panic recovered on a thread goroutine (a buggy
	// workload closure or sink firing on the engine owner's
	// stack). The goroutine parks the value here, hands the engine back
	// through mainWake, and drive re-raises it on Run's caller — the
	// goroutine whose recover (sweep.Trap in the harness) can turn it
	// into a per-cell error. Other thread goroutines stay parked on
	// their wake channels; the wedged System must be discarded.
	threadPanic *threadPanicInfo

	nextPhysPage uint64

	// OnOuterCommit, if set, is called when a thread whose
	// NeedsSummaryUpdate flag is set commits — or aborts — its outermost
	// transaction; the OS model uses it to recompute summary signatures
	// (§4.1). Aborts release isolation just as commits do, so the saved
	// signature must leave the process summary then too (otherwise two
	// threads descheduled with overlapping write sets could block each
	// other through their summaries forever).
	OnOuterCommit func(*Thread)
	// PreemptCheck, if set, is consulted at every request boundary; when
	// it returns true the thread is parked and OnPreempt is called. The
	// OS model implements time slicing with these hooks.
	PreemptCheck func(*Thread) bool
	OnPreempt    func(*Thread)
	// OnThreadDone, if set, is called when a thread function returns, so
	// a scheduler can reclaim the context.
	OnThreadDone func(*Thread)
	// Sink receives the structured lifecycle event stream (set via
	// Params.Sink; nil disables instrumentation).
	Sink obs.Sink
	// Met, when attached with AttachMetrics, receives the engine's
	// duration and set-size histograms.
	Met *obs.CoreMetrics
	// Check, when attached with AttachChecker, evaluates the runtime
	// invariant oracles (shadow memory, signature membership, undo-log
	// LIFO, sticky audit, progress watchdog) against this system.
	Check *check.Checker
	// Fault, if set, is consulted at the engine's perturbation points by
	// the fault injector. Nil (the default) leaves behavior untouched.
	Fault FaultHook
	// Sabotage deliberately breaks engine semantics so the differential
	// harness can prove it detects real bugs (cmd/difftest -sabotage).
	// The zero value is a correct engine; never set outside tests.
	Sabotage Sabotage
}

// Sabotage selects deliberate semantics bugs for differential-test
// validation. Each knob models a classic implementation mistake.
type Sabotage struct {
	// SkipUndoRecord skips restoring the first (most recently logged)
	// undo record of every aborted frame — a version-management bug
	// that leaves one block holding uncommitted data after an abort.
	SkipUndoRecord bool
	// SkipLimit bounds how many aborted frames SkipUndoRecord corrupts
	// (0 = every one). A limit of 1 plants exactly one corruption —
	// the single-defect shape cycle-level bisect localizes.
	SkipLimit int
	// SkipAfter spares that many qualifying frames before the first
	// corruption, placing the planted defect deep in the run (the
	// bisect canary uses this to land it past the early snapshots).
	SkipAfter int
	// seen and fired count qualifying frames spared and corrupted so
	// far. They are live machine state: CaptureState records them and
	// RestoreState reinstates them, so a run resumed from a snapshot
	// fires — or stops firing — exactly where the original run did.
	seen, fired int
}

// Active reports whether any sabotage knob is set.
func (s Sabotage) Active() bool { return s.SkipUndoRecord }

// shouldSkip reports whether the next qualifying undo record is
// sabotaged, counting the firing against SkipAfter and SkipLimit.
func (s *Sabotage) shouldSkip() bool {
	if !s.SkipUndoRecord {
		return false
	}
	if s.seen < s.SkipAfter {
		s.seen++
		return false
	}
	if s.SkipLimit > 0 && s.fired >= s.SkipLimit {
		return false
	}
	s.fired++
	return true
}

// FaultHook lets a fault injector perturb the engine at well-defined
// points. Implementations must be deterministic functions of their own
// seeded state: the engine's RNG is never used for injection, so runs
// with a nil hook are bit-identical to an uninstrumented simulator.
type FaultHook interface {
	// NackRetryDelay returns extra cycles to add before a NACKed (or
	// summary-blocked) access retries — the "slow NACK response" fault.
	NackRetryDelay(tid int) sim.Cycle
}

// emit sends one lifecycle event for a thread to the sink. The event is
// a value and the call allocates nothing; callers on hot paths still
// guard with s.Sink != nil to skip argument setup entirely.
func (s *System) emit(kind obs.Kind, t *Thread, cause obs.AbortCause, depth int, a addr.PAddr, arg, arg2 uint64) {
	if s.Sink == nil {
		return
	}
	ev := obs.Event{
		Kind: kind, Cause: cause, Cycle: s.Engine.Now(),
		Core: -1, Thread: -1, TID: t.ID, Depth: depth,
		Addr: a, Arg: arg, Arg2: arg2,
	}
	if t.ctx != nil {
		ev.Core, ev.Thread = t.ctx.Core, t.ctx.Thread
	}
	s.Sink.Emit(ev)
}

// endStall closes the thread's open stall episode (the stalled access
// was granted, or the transaction aborted) and feeds the stall-duration
// histogram.
func (s *System) endStall(t *Thread, a addr.PAddr) {
	t.stallRetries = 0
	t.waitingOn = t.waitingOn[:0]
	if !t.stalling {
		return
	}
	t.stalling = false
	dur := uint64(s.Engine.Now() - t.stallSince)
	s.emit(obs.KindStallEnd, t, obs.CauseNone, t.depth, a, dur, 0)
	if s.Met != nil {
		s.Met.StallCycles.Observe(dur)
	}
}

// AttachMetrics binds a metrics registry to the system: the engine's
// counters become function-backed registry counters (reading the same
// Stats fields, so they can never drift), live gauges are registered,
// and the engine starts feeding m's histograms. every > 0 additionally
// snapshots the registry into its time series every that many cycles
// while the simulation has work queued. Attaching metrics never perturbs
// simulated behavior: snapshot events read state and draw no randomness,
// so Stats stay bit-identical with or without metrics.
func (s *System) AttachMetrics(m *obs.CoreMetrics, every sim.Cycle) {
	s.Met = m
	reg := m.Reg
	reg.CounterFunc("tx.begins", func() uint64 { return s.stats.Begins })
	reg.CounterFunc("tx.commits", func() uint64 { return s.stats.Commits })
	reg.CounterFunc("tx.aborts", func() uint64 { return s.stats.Aborts })
	reg.CounterFunc("tx.stalls", func() uint64 { return s.stats.Stalls })
	reg.CounterFunc("tx.stall_episodes", func() uint64 { return s.stats.StallEpisodes })
	reg.CounterFunc("tx.possible_cycle_aborts", func() uint64 { return s.stats.PossibleCycleAborts })
	reg.CounterFunc("tx.fp_episodes", func() uint64 { return s.stats.FPEpisodes })
	reg.CounterFunc("tx.summary_conflicts", func() uint64 { return s.stats.SummaryConflicts })
	reg.CounterFunc("tx.smt_conflicts", func() uint64 { return s.stats.SMTConflicts })
	reg.CounterFunc("log.records", func() uint64 { return s.stats.LogRecords })
	reg.CounterFunc("log.filter_hits", func() uint64 { return s.stats.LogFilterHits })
	reg.CounterFunc("work.units", func() uint64 { return s.stats.WorkUnits })
	reg.CounterFunc("coh.l1_misses", func() uint64 { return s.Coh.Stats().L1Misses })
	reg.CounterFunc("coh.l2_misses", func() uint64 { return s.Coh.Stats().L2Misses })
	reg.CounterFunc("coh.nacks", func() uint64 { return s.Coh.Stats().NACKs })
	reg.CounterFunc("coh.sticky_evicts", func() uint64 { return s.Coh.Stats().StickyEvicts })
	reg.CounterFunc("coh.writebacks", func() uint64 { return s.Coh.Stats().WritebacksToMem })
	reg.GaugeFunc("threads.in_tx", func() float64 {
		n := 0
		for _, t := range s.threads {
			if t.InTx() {
				n++
			}
		}
		return float64(n)
	})
	reg.GaugeFunc("log.live_bytes", func() float64 {
		total := 0
		for _, t := range s.threads {
			total += t.Log.Bytes()
		}
		return float64(total)
	})
	// The samples ride a weak tick: it cannot keep the run alive, and
	// one firing after the last model event does not extend the measured
	// cycle count (see sim.ScheduleWeak) — that is what keeps Stats
	// bit-identical with metrics attached. The tick stops once the model
	// finished: the harness records the end-of-run state, so a trailing
	// sample would only duplicate it with an overshot timestamp.
	s.Engine.ScheduleWeakEvery(every, func() bool {
		reg.Snapshot(s.Engine.Now())
		return true
	})
}

// NewSystem builds a machine per p.
func NewSystem(p Params) (*System, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	s := &System{
		P:            p,
		Engine:       sim.NewEngine(p.Seed),
		Mem:          mem.NewMemory(),
		nextPhysPage: 1,
		Sink:         p.Sink,
		mainWake:     make(chan struct{}),
	}
	cohParams := coherence.Params{
		Cores:   p.Cores,
		L1Bytes: p.L1Bytes, L1Ways: p.L1Ways,
		L2Bytes: p.L2Bytes, L2Ways: p.L2Ways, L2Banks: p.L2Banks,
		L1HitLat: p.L1HitLat, L2Lat: p.L2Lat, MemLat: p.MemLat,
		DirLat: p.DirLat, CheckLat: p.CheckLat,
		Protocol: p.Protocol,
		Sink:     p.Sink,
		Now:      s.Engine.Now,
	}
	if p.Chips > 1 {
		// Each chip gets its own on-chip grid sized for its cores.
		cohParams.Grid = network.New(p.GridW, p.GridH, p.LinkLat, p.Cores/p.Chips, p.L2Banks)
		mc, err := coherence.NewMultiChip(coherence.MultiChipParams{Params: cohParams, Chips: p.Chips}, s)
		if err != nil {
			return nil, err
		}
		s.Coh = mc
	} else {
		cohParams.Grid = network.New(p.GridW, p.GridH, p.LinkLat, p.Cores, p.L2Banks)
		coh, err := coherence.NewSystem(cohParams, s)
		if err != nil {
			return nil, err
		}
		s.Coh = coh
		if p.CD != CDCacheBits {
			s.verdictCoh = coh
		}
	}
	for c := 0; c < p.Cores; c++ {
		var row []*Context
		for th := 0; th < p.ThreadsPerCore; th++ {
			ctx := &Context{
				Core:   c,
				Thread: th,
				Sig:    sig.MustSignature(p.Signature),
				Filter: txlog.MustFilter(p.LogFilterSets, p.LogFilterWays),
			}
			if p.CD == CDCacheBits {
				ctx.rwRead = make(map[addr.PAddr]bool)
				ctx.rwWrite = make(map[addr.PAddr]bool)
			}
			row = append(row, ctx)
		}
		s.ctxs = append(s.ctxs, row)
	}
	s.txLive = make([]int, p.Cores)
	s.coreStamps = make([]uint64, p.Cores)
	s.allCores = ^uint64(0) >> uint(64-p.Cores)
	s.lane.grow(laneAnchors + p.Contexts())
	s.laneStep = s.runCont
	return s, nil
}

// Reset returns the machine to its just-constructed state under a new
// seed so a sweep worker can reuse it across cells instead of rebuilding
// engine, caches, directory and page tables per run. Everything mutable
// is rewound — event queue, RNG stream, memory contents, coherence and
// signature state, per-context hardware, hooks, stats, the physical page
// allocator — while all backing storage is kept, so steady-state reuse
// allocates (almost) nothing. Reset refuses a machine with a live thread
// (a goroutine still parked on its wake channel): such a machine came
// from a failed or truncated run and must be discarded, not reused.
func (s *System) Reset(seed int64) error {
	for _, t := range s.threads {
		if !t.Done() {
			return fmt.Errorf("core: Reset with live thread %s", t.Name)
		}
	}
	s.P.Seed = seed
	s.Engine.Reset(seed)
	s.Mem.Reset()
	s.Coh.Reset()
	for _, row := range s.ctxs {
		for _, ctx := range row {
			ctx.Sig.Reset()
			ctx.Summary = nil
			ctx.Filter.Reset()
			ctx.Cur = nil
			if ctx.rwRead != nil {
				clear(ctx.rwRead)
				clear(ctx.rwWrite)
			}
			ctx.overflow = false
		}
	}
	clear(s.threads)
	s.threads = s.threads[:0]
	s.stats = Stats{}
	for i := range s.txLive {
		s.txLive[i] = 0
	}
	s.verdictReplays, s.replaySkips, s.verdictRechecks = 0, 0, 0
	s.replayGen++
	s.lane.clear()
	s.readied = nil
	s.runLimit, s.runLast = 0, 0
	s.nextPhysPage = 1
	s.OnOuterCommit, s.PreemptCheck, s.OnPreempt, s.OnThreadDone = nil, nil, nil, nil
	// Params.Sink is configuration (coherence keeps it across its own
	// Reset); only what was attached after construction is dropped.
	s.Sink = s.P.Sink
	s.Met, s.Check, s.Fault = nil, nil, nil
	s.Sabotage = Sabotage{}
	return nil
}

// Ctx returns a hardware context.
func (s *System) Ctx(core, thread int) *Context { return s.ctxs[core][thread] }

// Threads returns all spawned threads.
func (s *System) Threads() []*Thread { return s.threads }

// NewPageTable returns a page table for an address space, drawing
// physical pages from the machine-wide allocator (so distinct address
// spaces never overlap in physical memory).
func (s *System) NewPageTable(asid addr.ASID) *mem.PageTable {
	return mem.NewPageTable(asid, func() uint64 {
		p := s.nextPhysPage
		s.nextPhysPage++
		return p
	})
}

// Spawn creates a software thread running fn. The thread is not yet bound
// to a hardware context; call Place and Start (or SpawnOn).
func (s *System) Spawn(name string, asid addr.ASID, pt *mem.PageTable, fn func(*API)) *Thread {
	t := &Thread{
		ID:      len(s.threads),
		Name:    name,
		ASID:    asid,
		PT:      pt,
		wake:    make(chan struct{}),
		rngSeed: s.P.Seed*1_000_003 + int64(len(s.threads)),
	}
	s.threads = append(s.threads, t)
	api := &API{t: t, sys: s}
	go func() {
		defer func() {
			if r := recover(); r != nil {
				// This goroutine owns the engine (user code only runs on
				// the owner), so every other goroutine — including Run's
				// caller — is parked. Record the panic and hand the
				// engine back so drive can re-raise it there.
				s.threadPanic = &threadPanicInfo{thread: t.Name, val: r, stack: debug.Stack()}
				s.mainWake <- struct{}{}
			}
		}()
		<-t.wake // the Start event hands us the engine
		fn(api)
		s.dispatch(t, request{kind: reqDone})
		s.pumpExit(t)
	}()
	return t
}

// threadPanicInfo carries a panic from a thread goroutine to Run's caller.
type threadPanicInfo struct {
	thread string
	val    any
	stack  []byte
}

// Place binds a thread to a hardware context; the context must be idle.
func (s *System) Place(t *Thread, core, thread int) error {
	if core < 0 || core >= s.P.Cores || thread < 0 || thread >= s.P.ThreadsPerCore {
		return fmt.Errorf("core: no context (%d,%d)", core, thread)
	}
	ctx := s.ctxs[core][thread]
	if ctx.Cur != nil {
		return fmt.Errorf("core: context (%d,%d) busy with %s", core, thread, ctx.Cur.Name)
	}
	ctx.Cur = t
	t.ctx = ctx
	s.recountTx(core)
	return nil
}

// recountTx refreshes the scheduled-transaction count of a core. It runs
// at every transition that can change a scheduled context's in-transaction
// status: begin, each commit/abort level, Place, and Deschedule. Recounting
// (rather than maintaining deltas) makes drift impossible as long as every
// transition site calls it. Each of these transitions can change a NACK
// outcome, so it also advances the core's stamp.
func (s *System) recountTx(core int) {
	s.stampCore(core)
	n := 0
	for _, ctx := range s.ctxs[core] {
		if o := ctx.Cur; o != nil && o.InTx() {
			n++
		}
	}
	s.txLive[core] = n
}

// Start schedules the thread's first request; it must be placed.
func (s *System) Start(t *Thread) {
	if t.ctx == nil {
		panic("core: Start of unplaced thread " + t.Name)
	}
	if t.stepped && t.stepFn == nil {
		panic("core: Start of stepped thread without a step function: " + t.Name)
	}
	s.laneArm(t, 0, pendStart)
}

// start is a thread's kickoff continuation. Stepped threads run the tape
// up to its first request inline — the same slot where an interpreted
// thread, handed the engine by its start, dispatches its first request.
func (s *System) start(t *Thread) {
	if !t.stepped {
		// Hand the engine to the thread: it runs its function up to the
		// first request, dispatches it inline, and keeps driving events.
		s.readied = t
		return
	}
	t.nowCache = s.Engine.Now()
	t.stepFn(OpResult{})
}

// SpawnOn is Spawn+Place+Start on context (core, thread).
func (s *System) SpawnOn(core, thread int, name string, asid addr.ASID, pt *mem.PageTable, fn func(*API)) (*Thread, error) {
	t := s.Spawn(name, asid, pt, fn)
	if err := s.Place(t, core, thread); err != nil {
		return nil, err
	}
	s.Start(t)
	return t, nil
}

// Run drives the simulation until the event queue drains (all threads
// done or parked) and returns the final cycle.
func (s *System) Run() sim.Cycle {
	c := s.drive(sim.Cycle(math.MaxInt64))
	s.stats.Cycles = c
	return c
}

// RunUntil drives the simulation to at most the given cycle and returns
// the last strong cycle, as sim.Engine.RunUntil does: a limit already
// behind the clock runs nothing and returns the current cycle.
func (s *System) RunUntil(limit sim.Cycle) sim.Cycle {
	c := s.drive(limit)
	s.stats.Cycles = c
	return c
}

// drive runs the engine up to limit, reproducing Engine.Run/RunUntil
// semantics (last strong cycle, a clock that never moves backwards)
// while handing engine ownership to thread goroutines as their
// responses become ready. Event execution order is exactly the
// engine's queue order — only the goroutine executing each event
// differs — so results are bit-identical to a dedicated simulation
// goroutine.
func (s *System) drive(limit sim.Cycle) sim.Cycle {
	s.replayGen++ // the caller may have changed anything since the last drive
	s.runLimit = limit
	s.runLast = s.Engine.Now()
	for {
		if x := s.readied; x != nil {
			s.readied = nil
			x.wake <- struct{}{}
			// The run continues on thread goroutines; we regain control
			// only when the bounded run is over.
			<-s.mainWake
			break
		}
		if !s.stepBounded() {
			break
		}
	}
	if pi := s.threadPanic; pi != nil {
		s.threadPanic = nil
		panic(fmt.Sprintf("thread %s: %v\n%s", pi.thread, pi.val, pi.stack))
	}
	return s.runLast
}

// pump drives the event loop on t's goroutine until t's response is
// ready. When an executed event readies a different thread, ownership
// transfers to it directly (one goroutine switch instead of the two a
// dedicated simulation goroutine costs); when it readies t itself there
// is no switch at all. If the bounded run ends while t still waits, t
// wakes Run's caller and parks until a later Run/RunUntil readies it.
func (s *System) pump(t *Thread) response {
	for {
		if x := s.readied; x != nil {
			s.readied = nil
			if x != t {
				x.wake <- struct{}{}
				<-t.wake
			}
			continue
		}
		if t.respReady {
			t.respReady = false
			return t.finishResp
		}
		if !s.stepBounded() {
			s.mainWake <- struct{}{}
			<-t.wake
		}
	}
}

// pumpExit is pump for a thread whose function has returned: it keeps
// driving events until it can hand ownership away, then the goroutine
// exits.
func (s *System) pumpExit(t *Thread) {
	for {
		if x := s.readied; x != nil {
			s.readied = nil
			x.wake <- struct{}{}
			return
		}
		if !s.stepBounded() {
			s.mainWake <- struct{}{}
			return
		}
	}
}

// AllDone reports whether every spawned thread has finished.
func (s *System) AllDone() bool {
	for _, t := range s.threads {
		if !t.done {
			return false
		}
	}
	return true
}

// Stuck lists unfinished threads (barrier waits, parked threads) for
// diagnostics after Run returns.
func (s *System) Stuck() []string {
	var out []string
	for _, t := range s.threads {
		if !t.done {
			out = append(out, t.Name)
		}
	}
	return out
}

// Stats returns the aggregated counters (engine + coherence).
func (s *System) Stats() Stats {
	st := s.stats
	st.Coh = s.Coh.Stats()
	return st
}

// --- request pump -----------------------------------------------------------

// dispatch routes one thread request, honoring preemption points.
func (s *System) dispatch(t *Thread, r request) {
	s.replayGen++
	if r.kind == reqDone {
		t.done = true
		if s.OnThreadDone != nil {
			s.OnThreadDone(t)
		}
		return
	}
	if s.PreemptCheck != nil && r.kind != reqBarrier && s.PreemptCheck(t) {
		r := r
		t.pending = &r
		t.parked = true
		if s.OnPreempt != nil {
			s.OnPreempt(t)
		}
		return
	}
	s.handle(t, r)
}

// Resume re-dispatches the request a preempted thread was parked on; the
// OS model calls it after rescheduling the thread on a context.
func (s *System) Resume(t *Thread) {
	if !t.parked || t.pending == nil {
		panic("core: Resume of thread that is not parked: " + t.Name)
	}
	r := *t.pending
	t.pending = nil
	t.parked = false
	s.handle(t, r)
}

func (s *System) handle(t *Thread, r request) {
	switch r.kind {
	case reqCompute:
		s.finish(t, response{}, r.cycles)
	case reqLoad:
		s.access(t, &r, sig.Read)
	case reqStore, reqExchange, reqFetchAdd:
		s.access(t, &r, sig.Write)
	case reqBegin:
		s.begin(t, r.open)
	case reqCommit:
		if t.pendingAbort && t.InTx() && !t.escaped {
			// Injected abort landing at the commit point: the transaction
			// has not committed yet, so aborting here is legal.
			t.pendingAbort = false
			s.abort(t, obs.CauseInjected)
			return
		}
		s.commit(t)
	case reqWorkUnit:
		t.WorkUnits++
		s.stats.WorkUnits++
		s.finish(t, response{}, 1)
	case reqYield:
		s.finish(t, response{}, 1)
	case reqBarrier:
		s.barrier(t, r.barrier)
	default:
		panic(fmt.Sprintf("core: unknown request kind %d", r.kind))
	}
}

// finish delivers a response to t after lat cycles and pumps its next
// request. A thread has at most one continuation in flight (its request
// loop is strictly sequential), so the response is parked on the thread
// and the lane queues the thread itself — the hot path allocates
// nothing.
func (s *System) finish(t *Thread, resp response, lat sim.Cycle) {
	t.finishResp = resp
	s.laneArm(t, lat, pendFinish)
}

// complete is a thread's completion continuation: it delivers
// t.finishResp.
func (s *System) complete(t *Thread) {
	t.nowCache = s.Engine.Now()
	if !t.stepped {
		t.respReady = true
		s.readied = t
		return
	}
	// Stepped thread: the completion runs the tape's step continuation
	// inline — no wake channel, no goroutine switch. Its next dispatch
	// lands inside this step, the same slot in the key sequence where an
	// interpreted thread's next dispatch lands after being readied, so
	// event order (and every engine RNG draw) is identical across the
	// two paths.
	if t.escapedOp {
		// The escaped access's response is delivered: the escape action
		// is over (interpreted Escape clears the flag via defer at this
		// same point, abort included).
		t.escaped, t.escapedOp = false, false
	}
	r := t.finishResp
	t.stepFn(OpResult{Val: r.val, Abort: r.abort, ToDepth: r.toDepth, Depth: r.depth})
}

func (s *System) barrier(t *Thread, b *Barrier) {
	b.arrived++
	if b.arrived < b.n {
		b.waiting = append(b.waiting, t)
		return
	}
	waiters := b.waiting
	b.waiting = nil
	b.arrived = 0
	for _, w := range waiters {
		s.finish(w, response{}, 1)
	}
	s.finish(t, response{}, 1)
}

// --- transaction begin/commit ------------------------------------------------

func (s *System) begin(t *Thread, open bool) {
	ctx := t.ctx
	t.depth++
	if t.depth == 1 {
		s.stats.Begins++
		if t.ts == 0 {
			// Timestamp = begin order; retained across aborts so older
			// transactions eventually win (LogTM conflict resolution).
			idx := uint64(ctx.Core*s.P.ThreadsPerCore + ctx.Thread)
			t.ts = (uint64(s.Engine.Now())+1)<<8 | idx
		}
	}
	s.recountTx(ctx.Core)
	var saved *sig.Signature
	lat := s.P.BeginLat
	if t.depth > 1 {
		s.stats.NestedBegins++
		if s.P.CD == CDCacheBits {
			// Original LogTM flattens nesting: no signature-save area.
		} else {
			// Nested begin: save the parent's signature into the new
			// frame's signature-save area and snapshot the exact sets;
			// the log filter is cleared so the child re-logs everything
			// (§3.2).
			saved = ctx.Sig.Clone()
			t.exactStack = append(t.exactStack, exactSnap{
				set: t.exact.clone(),
			})
			ctx.Filter.Clear()
			lat += s.sigCopyLat(t.depth - 1)
		}
	}
	t.Log.Push(nil, saved, open)
	if t.depth == 1 {
		t.txStart = s.Engine.Now()
	}
	var openArg uint64
	if open {
		openArg = 1
	}
	s.emit(obs.KindTxBegin, t, obs.CauseNone, t.depth, 0, t.ts, openArg)
	if s.Check != nil {
		s.Check.OnBegin(t.ID, t.depth, open)
	}
	s.finish(t, response{depth: t.depth}, lat)
}

// sigCopyLat models the synchronous copy of one signature pair to or
// from a log frame header. Levels within the backup-signature depth
// (§3.2 optimization) are free — hardware keeps S_backup copies.
func (s *System) sigCopyLat(level int) sim.Cycle {
	if level <= s.P.SigBackupCopies {
		return 0
	}
	bits := s.P.Signature.Bits
	if bits <= 0 {
		bits = 2048 // Perfect: model a 2 Kb software image
	}
	lat := sim.Cycle(2 * bits / 256) // read+write filters, 256 bits/cycle
	if lat < 1 {
		lat = 1
	}
	return lat
}

func (s *System) commit(t *Thread) {
	if t.depth == 0 {
		panic("core: commit outside a transaction: " + t.Name)
	}
	ctx := t.ctx
	if t.depth > 1 {
		frame := t.Log.Top()
		s.stats.NestedCommits++
		if frame.Open {
			// Open commit: make the child's updates permanent and
			// restore the parent's signature to release isolation on
			// blocks only the child accessed.
			s.stats.OpenCommits++
			f, err := t.Log.CommitOpen()
			if err != nil {
				panic(err)
			}
			if err := ctx.Sig.CopyFrom(f.SavedSig); err != nil {
				panic(err)
			}
			snap := t.exactStack[len(t.exactStack)-1]
			t.exactStack = t.exactStack[:len(t.exactStack)-1]
			t.exact = snap.set
			t.depth--
			s.recountTx(t.ctx.Core)
			s.emit(obs.KindTxCommit, t, obs.CauseNone, t.depth+1, 0, 0, 0)
			if s.Check != nil {
				s.Check.OnCommit(t.ID, t.depth+1, true)
				er, ew := t.ExactSets()
				s.Check.SigCovers(t.ID, "open-commit restore", ctx.Sig, er, ew)
			}
			// Restoring the parent's signature from the save area is
			// synchronous unless a hardware backup copy exists.
			s.finish(t, response{}, s.P.CommitLat+s.sigCopyLat(t.depth))
			return
		}
		// Closed commit: merge into the parent (signature and exact
		// sets stay as the accumulated union).
		if _, err := t.Log.CommitClosed(); err != nil {
			panic(err)
		}
		if s.P.CD != CDCacheBits {
			t.exactStack = t.exactStack[:len(t.exactStack)-1]
		}
		t.depth--
		s.recountTx(t.ctx.Core)
		s.emit(obs.KindTxCommit, t, obs.CauseNone, t.depth+1, 0, 0, 0)
		if s.Check != nil {
			s.Check.OnCommit(t.ID, t.depth+1, false)
		}
		s.finish(t, response{}, s.P.CommitLat)
		return
	}

	// Outermost commit: a fast, local operation — clear signatures,
	// reset the log pointer, nothing else (§2).
	s.stats.Commits++
	t.Commits++
	rs, ws := t.exact.reads, t.exact.writes
	s.stats.ReadSetSum += uint64(rs)
	s.stats.WriteSetSum += uint64(ws)
	if rs > s.stats.ReadSetMax {
		s.stats.ReadSetMax = rs
	}
	if ws > s.stats.WriteSetMax {
		s.stats.WriteSetMax = ws
	}
	t.depth = 0
	t.ts = 0
	s.recountTx(t.ctx.Core)
	t.possibleCycle = false
	t.abortStreak = 0
	t.consecAborts = 0
	t.pendingAbort = false
	t.Log.Reset()
	// Reuse the exact-set maps across transactions: clearing keeps the
	// bucket storage, so steady-state commits allocate nothing.
	t.exact.clear()
	t.exactStack = t.exactStack[:0]
	ctx.Sig.ClearAll()
	ctx.Filter.Clear()
	if s.P.CD == CDCacheBits {
		// Flash clear of the R/W bits and overflow flag (the cache-array
		// operation LogTM-SE eliminates).
		clear(ctx.rwRead)
		clear(ctx.rwWrite)
		ctx.overflow = false
		s.stats.FlashClears++
	}
	if t.NeedsSummaryUpdate && s.OnOuterCommit != nil {
		// Trap to the OS so it can push updated summary signatures to
		// the process's active threads (§4.1).
		s.OnOuterCommit(t)
		t.NeedsSummaryUpdate = false
	}
	s.emit(obs.KindTxCommit, t, obs.CauseNone, 1, 0, uint64(rs), uint64(ws))
	if s.Check != nil {
		s.Check.OnCommit(t.ID, 1, false)
	}
	if s.Met != nil {
		s.Met.TxCycles.Observe(uint64(s.Engine.Now() - t.txStart))
		s.Met.ReadSet.Observe(uint64(rs))
		s.Met.WriteSet.Observe(uint64(ws))
	}
	s.finish(t, response{}, s.P.CommitLat)
}

// --- memory access -----------------------------------------------------------

// access issues t's memory request r: the caller's request on first
// issue, or the request parked in t.retryReq on a NACK retry or a
// backoff. The NACK path only reads r through the pointer until
// scheduleRetry parks it, so a retry never copies the request.
func (s *System) access(t *Thread, r *request, op sig.Op) {
	// Asynchronous (fault-injected) aborts are honored only here, at the
	// thread's own continuation — first issue or NACK retry — so abort
	// never runs from another thread's event.
	if t.pendingAbort && t.InTx() && !t.escaped {
		t.pendingAbort = false
		s.abort(t, obs.CauseInjected)
		return
	}
	ctx := t.ctx
	pa := t.PT.Translate(r.va)

	// The summary signature (§4.1) is checked when the response returns,
	// below, not here: a summary entry lives from deschedule to outer
	// commit, so it also covers transactions that are back on hardware
	// (after reschedule or migration the directory may still route
	// around their new context, and only the summary reaches them). If
	// a live check — SMT sibling or coherence — sees the same conflict
	// first, timestamp arbitration resolves it; aborting on the summary
	// up front would turn every such reachable conflict into an
	// unarbitrated abort and can livelock against a running thread.

	// Same-core SMT check: conflicts with sibling thread contexts must
	// be detected even on L1 hits (§2, multi-threaded cores).
	if n, conflict := s.smtConflict(t, op, pa); conflict {
		s.stats.SMTConflicts++
		s.smtNack[0] = n
		if s.verdictsOn() {
			s.seedVerdict(t, op, pa, true, &coherence.AccessResult{Nackers: s.smtNack[:]})
		}
		s.resolveNACK(t, r, op, s.smtNack[:])
		return
	}

	reqTS := t.ts
	if t.escaped {
		reqTS = 0 // escaped accesses are non-transactional requests
	}
	var touches uint64
	if s.verdictCoh != nil {
		touches = s.verdictCoh.Touches()
	}
	res := s.Coh.Access(coherence.Request{
		Core: ctx.Core, Thread: ctx.Thread,
		Op: op, Addr: pa, ASID: t.ASID, Timestamp: reqTS,
	})
	if res.NACK {
		// A NACK whose walk advanced a block stamp (the L2-miss rebuild)
		// changed state on its way, so its retry must walk again.
		if s.verdictsOn() && s.verdictCoh.Touches() == touches {
			s.seedVerdict(t, op, pa, false, &res)
		}
		s.resolveNACK(t, r, op, res.Nackers)
		return
	}
	s.endStall(t, pa.Block())

	// Summary-signature check (§4.1), at response time: a hit on an
	// access every live check granted means the conflicting transaction
	// is unreachable through the coherence fabric — descheduled, or
	// rescheduled somewhere the directory does not route to. Stalling
	// cannot resolve that, so a transactional requester traps and
	// aborts; a non-transactional one backs off until the OS commits
	// the blocker. Checking after the response also closes the window
	// where a transaction is descheduled while this request is in
	// flight (the paper's IPI-quiesced summary install makes the switch
	// atomic with respect to conflict checks). The context's own
	// summary excludes this thread's saved footprint, so a rescheduled
	// transaction never conflicts with itself.
	if ctx.Summary != nil && ctx.Summary.Conflict(op, pa) {
		s.summaryConflict(t, r, op, pa)
		return
	}

	lat := res.Latency
	if t.InTx() && !t.escaped {
		if s.P.CD == CDCacheBits {
			// Original LogTM: set the R/W bit on the (now cached) line.
			if op == sig.Read {
				ctx.rwRead[pa.Block()] = true
			} else {
				ctx.rwWrite[pa.Block()] = true
			}
		} else {
			ctx.Sig.Insert(op, pa)
			if s.Check != nil {
				s.Check.OnSigInsert(t.ID, ctx.Sig, op, pa)
			}
		}
		// The footprint may grow (an L1 hit included, which never reaches
		// the protocol's stamps): NACK outcomes against it can change.
		// The signature always covers the exact set, so when the exact
		// set did not grow the signature did not either.
		if t.exactInsert(op, pa) {
			s.stampGrowth(ctx)
		}
		if op == sig.Write {
			lat += s.logStore(t, r.va, pa)
		}
	}

	var resp response
	switch r.kind {
	case reqLoad:
		resp.val = s.Mem.ReadWord(pa)
	case reqStore:
		s.Mem.WriteWord(pa, r.val)
	case reqExchange:
		resp.val = s.Mem.ReadWord(pa)
		s.Mem.WriteWord(pa, r.val)
	case reqFetchAdd:
		resp.val = s.Mem.ReadWord(pa)
		s.Mem.WriteWord(pa, resp.val+r.val)
	}
	if s.Check != nil {
		mode := check.ModePlain
		if t.escaped {
			mode = check.ModeEscaped
		} else if t.InTx() {
			mode = check.ModeTx
		}
		switch r.kind {
		case reqLoad:
			s.Check.OnRead(t.ID, mode, pa, resp.val)
		case reqStore:
			s.Check.OnWrite(t.ID, mode, pa, r.val)
		case reqExchange:
			s.Check.OnRead(t.ID, mode, pa, resp.val)
			s.Check.OnWrite(t.ID, mode, pa, r.val)
		case reqFetchAdd:
			s.Check.OnRead(t.ID, mode, pa, resp.val)
			s.Check.OnWrite(t.ID, mode, pa, resp.val+r.val)
		}
	}
	s.finish(t, resp, lat)
}

// logStore writes an undo record for the first store to a block in the
// current transaction, using the log filter to suppress redundant logging.
func (s *System) logStore(t *Thread, va addr.VAddr, pa addr.PAddr) sim.Cycle {
	ctx := t.ctx
	if ctx.Filter.Contains(va) {
		s.stats.LogFilterHits++
		return 0
	}
	var old mem.Block
	s.Mem.ReadBlock(pa, &old)
	if err := t.Log.Append(txlog.UndoRecord{VAddr: va, PAddr: pa, Old: old}); err != nil {
		panic(err)
	}
	if s.Check != nil {
		s.Check.OnLogAppend(t.ID, va, &old)
	}
	ctx.Filter.Add(va)
	s.stats.LogRecords++
	if b := t.Log.Bytes(); b > s.stats.MaxLogBytes {
		s.stats.MaxLogBytes = b
	}
	return s.P.LogWriteLat
}

// smtConflict checks the other thread contexts on the requester's core.
func (s *System) smtConflict(t *Thread, op sig.Op, pa addr.PAddr) (coherence.Nacker, bool) {
	ctx := t.ctx
	// If the requester is the core's only live transaction (or there is
	// none), no sibling can be in-transaction, so the scan is a no-op.
	if live := s.txLive[ctx.Core]; live == 0 || (live == 1 && t.InTx()) {
		return coherence.Nacker{}, false
	}
	for th, sib := range s.ctxs[ctx.Core] {
		if th == ctx.Thread {
			continue
		}
		o := sib.Cur
		if o == nil || !o.InTx() || o.ASID != t.ASID {
			continue
		}
		if !s.ctxConflict(sib, op, pa) {
			continue
		}
		if t.ts != 0 && t.ts < o.ts {
			o.possibleCycle = true
		}
		return coherence.Nacker{
			Core: ctx.Core, Thread: th, Timestamp: o.ts,
			FalsePositive: !o.exactConflict(op, pa),
			Overflow:      s.P.CD == CDCacheBits && sib.overflow,
		}, true
	}
	return coherence.Nacker{}, false
}

// summaryConflict handles a hit in the context's summary signature: a
// conflict with a descheduled transaction. Stalling cannot resolve it,
// so a transactional requester traps and aborts; a non-transactional
// (or escaped) one backs off until the OS reschedules and commits the
// blocker. The backoff parks the request as a NACK retry does and
// walks it again when it runs.
func (s *System) summaryConflict(t *Thread, r *request, op sig.Op, pa addr.PAddr) {
	s.stats.SummaryConflicts++
	s.emit(obs.KindSummaryConflict, t, obs.CauseNone, t.depth, pa.Block(), 0, 0)
	if t.InTx() && !t.escaped {
		s.abort(t, obs.CauseSummary)
		return
	}
	s.park(t, r, op)
	s.laneArm(t, 8*s.P.StallRetryLat+s.jitter()+s.faultRetryDelay(t), pendBackoff)
}

// resolveNACK applies LogTM conflict resolution: stall and retry, but
// abort on a possible deadlock cycle (NACKed by an older transaction
// while having NACKed an older one ourselves).
func (s *System) resolveNACK(t *Thread, r *request, op sig.Op, nackers []coherence.Nacker) {
	if !t.InTx() || t.escaped {
		s.retryNonTx(t, r, op)
		return
	}
	// Record who is blocking us (wait-for diagnosis for the watchdog and
	// the harness's hung-run report).
	t.waitingOn = t.waitingOn[:0]
	for _, n := range nackers {
		if n.Core < 0 || n.Core >= len(s.ctxs) || n.Thread < 0 || n.Thread >= s.P.ThreadsPerCore {
			continue
		}
		if o := s.ctxs[n.Core][n.Thread].Cur; o != nil {
			t.waitingOn = append(t.waitingOn, o.ID)
		}
	}
	s.stall(t, r, op, nackers, classifyNACK(nackers, t.ts))
}

// nackClass is what conflict resolution reads of a NACKer list.
type nackClass struct {
	allFalse    bool // every NACKer a signature false positive
	allOverflow bool // every NACKer an overflowed CDCacheBits context
	olderNacker bool // some NACKer's transaction is older than the requester's
	anySticky   bool // some NACKer no longer caches the block
}

// classifyNACK classifies nackers for a requester with timestamp ts.
func classifyNACK(nackers []coherence.Nacker, ts uint64) nackClass {
	c := nackClass{allFalse: true, allOverflow: len(nackers) > 0}
	for _, n := range nackers {
		if !n.FalsePositive {
			c.allFalse = false
		}
		if !n.Overflow {
			c.allOverflow = false
		}
		if n.Sticky {
			c.anySticky = true
		}
		if n.Timestamp != 0 && n.Timestamp < ts {
			c.olderNacker = true
		}
	}
	return c
}

// retryNonTx resolves the NACK of a non-transactional (or escaped)
// access. Such requesters never abort: they back off and retry until the
// conflicting transaction ends.
func (s *System) retryNonTx(t *Thread, r *request, op sig.Op) {
	s.stats.NonTxRetries++
	if s.nonTxStarved(t) {
		s.abort(t, obs.CauseStarvation)
		return
	}
	s.scheduleRetry(t, r, op)
}

// nonTxStarved counts a non-transactional retry against the starvation
// limit where one applies. One exception for liveness: an escaped access
// issued inside a transaction blocks while holding the enclosing
// transaction's isolation. Two transactions escaped into blocks aliased
// into each other's signatures then deadlock, with no timestamps to
// arbitrate (escaped requests carry none). Under the opt-in starvation
// escalation the enclosing transaction aborts and the whole escape
// re-executes on retry — escape actions are already documented to run
// once per attempt, not once per transaction.
func (s *System) nonTxStarved(t *Thread) bool {
	return t.escaped && t.InTx() && s.starved(t)
}

// starved counts one more retry of t's stall episode against the opt-in
// starvation limit and reports whether the limit is reached.
func (s *System) starved(t *Thread) bool {
	if s.P.StarvationRetryLimit <= 0 {
		return false
	}
	t.stallRetries++
	return t.stallRetries >= s.P.StarvationRetryLimit
}

// stall resolves a walked or re-checked transactional NACK classified as
// c (a held replay is charged by replay instead): count the stall, then
// abort or retry per the resolution policy. nackers only feeds the
// Sink's NACK and conflict-edge events.
func (s *System) stall(t *Thread, r *request, op sig.Op, nackers []coherence.Nacker, c nackClass) {
	s.stats.Stalls++
	t.Stalls++
	if c.allFalse {
		s.stats.FalsePositiveStalls++
	}
	if !r.retrying {
		s.stats.StallEpisodes++
		if c.allFalse {
			s.stats.FPEpisodes++
		}
	}
	if s.Sink != nil {
		pa := t.PT.Translate(r.va).Block()
		flags := nackFlags(c.allFalse, c.anySticky, c.allOverflow, op)
		s.emit(obs.KindNack, t, obs.CauseNone, t.depth, pa, uint64(len(nackers)), flags)
		// One who-blocks-whom edge per NACKer, resolved to the blocking
		// software thread the same way waitingOn is.
		for _, n := range nackers {
			blocker := obs.EdgeNoTID
			if n.Core >= 0 && n.Core < len(s.ctxs) && n.Thread >= 0 && n.Thread < s.P.ThreadsPerCore {
				if o := s.ctxs[n.Core][n.Thread].Cur; o != nil {
					blocker = uint64(o.ID)
				}
			}
			s.emit(obs.KindConflictEdge, t, obs.CauseNone, t.depth, pa, blocker,
				nackFlags(n.FalsePositive, n.Sticky, n.Overflow, op)|obs.EdgeBlocker(n.Core, n.Thread))
		}
		if !r.retrying {
			s.emit(obs.KindStallStart, t, obs.CauseNone, t.depth, pa, uint64(len(nackers)), 0)
		}
	}
	if !r.retrying {
		t.stalling = true
		t.stallSince = s.Engine.Now()
	}
	if cause, abort := s.resolve(t, c); abort {
		s.abort(t, cause)
		return
	}
	s.scheduleRetry(t, r, op)
}

// resolve applies the resolution policy to a counted stall of t on a
// NACK classified as c, and reports whether t must abort and why. It
// runs LogTM's possible_cycle rule (or the policy's own), then the
// bounded-retry starvation escalation (opt-in): a stalled access that
// keeps losing eventually aborts its transaction so the system sheds
// the livelock instead of spinning on NACKs forever.
func (s *System) resolve(t *Thread, c nackClass) (obs.AbortCause, bool) {
	cause := obs.CauseConflict
	if c.allOverflow {
		cause = obs.CauseOverflow
	}
	switch s.P.Resolution {
	case ResolveRequesterAborts:
		return cause, true
	case ResolveYoungerAborts:
		if c.olderNacker {
			return cause, true
		}
	default: // ResolveStallAbort, LogTM's possible_cycle rule
		if c.olderNacker && t.possibleCycle {
			s.stats.PossibleCycleAborts++
			return cause, true
		}
	}
	return obs.CauseStarvation, s.starved(t)
}

// nackFlags packs the attribution classification bits of a NACK (or of
// one NACKer, for conflict edges) into an event Arg2.
func nackFlags(falsePos, sticky, overflow bool, op sig.Op) uint64 {
	var f uint64
	if falsePos {
		f |= obs.NackAllFalse
	}
	if sticky {
		f |= obs.NackSticky
	}
	if overflow {
		f |= obs.NackAllOverflow
	}
	if op == sig.Write {
		f |= obs.NackWrite
	}
	return f
}

// scheduleRetry re-issues a NACKed request after the backoff delay, on
// the lane. Marking the parked request retrying changes what r.retrying
// reads, so this must be the NACK path's last use of r.
func (s *System) scheduleRetry(t *Thread, r *request, op sig.Op) {
	s.park(t, r, op)
	t.retryReq.retrying = true
	s.laneArm(t, s.P.StallRetryLat+s.jitter()+s.faultRetryDelay(t), pendRetry)
}

// park holds t's request for a retry or backoff. The thread has exactly
// one continuation in flight, so the request is parked on the thread
// and the lane queues the thread itself — stall-heavy workloads retry
// millions of times, and a fresh closure per retry once dominated the
// allocation profile. The request is copied into t.retryReq once; a
// retry that comes back already points there and is re-armed in place.
func (s *System) park(t *Thread, r *request, op sig.Op) {
	if r != &t.retryReq {
		t.retryReq = *r
	}
	t.retryOp, t.retryEpoch = op, t.abortEpoch
}

func (s *System) jitter() sim.Cycle {
	return sim.Cycle(s.Engine.Int63() & 7)
}

// faultRetryDelay asks the fault injector (if any) for extra delay on a
// NACK-response retry; it draws only on the injector's own seeded state.
func (s *System) faultRetryDelay(t *Thread) sim.Cycle {
	if s.Fault == nil {
		return 0
	}
	return s.Fault.NackRetryDelay(t.ID)
}

// checkRetryEpoch is the stale-retry guard: a scheduled access retry
// captures the thread's abort epoch, and firing after an abort would mean
// the retry belongs to a dead transaction and is about to run against the
// next one — an engine bug (aborts only ever run from the aborting
// thread's own single continuation, so no retry can be in flight when one
// happens). Panic loudly rather than corrupt the successor transaction.
func (t *Thread) checkRetryEpoch(epoch uint64) {
	if t.abortEpoch != epoch {
		panic(fmt.Sprintf("core: stale retry for %s: abort epoch advanced %d -> %d while the retry was in flight",
			t.Name, epoch, t.abortEpoch))
	}
}

// abort runs the software abort handler: walk the innermost frame's undo
// records LIFO (restoring through current translations, so relocated
// pages restore correctly), release isolation by restoring or clearing
// the signature, and tell the thread to unwind. Repeated aborts of the
// same frame escalate one nesting level (the paper's handler repeats
// until the conflict disappears or the outermost transaction aborts).
func (s *System) abort(t *Thread, cause obs.AbortCause) {
	ctx := t.ctx
	s.endStall(t, 0)
	levels := 1
	if s.P.CD == CDCacheBits {
		// Original LogTM flattens nesting: any abort unwinds the whole
		// transaction (no per-level signature save areas to restore).
		levels = t.depth
	} else if cause == obs.CauseStarvation {
		// Starvation shedding exists to break conflict cycles; the
		// blocks other transactions are NACKed on usually live in the
		// outer frames' signatures, which a partial abort keeps. Shed
		// the whole transaction or the cycle survives the abort.
		levels = t.depth
	} else if s.P.NestAbortEscalation > 0 && t.abortStreak >= s.P.NestAbortEscalation && t.depth > 1 {
		// Progressive escalation: each further streak of aborts unwinds
		// one more level, reaching the outermost frame if the conflict
		// persists. A fixed two-level unwind can cycle forever between
		// inner depths while the contended outer footprint never
		// releases.
		levels = 1 + t.abortStreak/s.P.NestAbortEscalation
		if levels > t.depth {
			levels = t.depth
		}
	}
	s.emit(obs.KindLogWalkStart, t, cause, t.depth, 0, 0, 0)
	records := 0
	lat := s.P.AbortBaseLat
	for i := 0; i < levels && t.depth > 0; i++ {
		restored := 0
		frame, err := t.Log.Abort(func(rec txlog.UndoRecord) {
			restored++
			if restored == 1 && s.Sabotage.shouldSkip() {
				return // deliberate bug: first record not rolled back
			}
			pa := t.PT.Translate(rec.VAddr)
			old := rec.Old
			s.Mem.WriteBlock(pa, &old)
		})
		if err != nil {
			panic(err)
		}
		lat += s.P.AbortPerRec * sim.Cycle(len(frame.Undo))
		records += len(frame.Undo)
		t.depth--
		s.recountTx(t.ctx.Core)
		if s.Check != nil {
			// Verify the LIFO restore while this frame's translations and
			// memory state are current (before any further unwinding).
			s.Check.OnAbortFrame(t.ID, t.PT.Translate, s.Mem.ReadBlock)
		}
		if t.depth == 0 {
			ctx.Sig.ClearAll()
			ctx.Filter.Clear()
			if s.P.CD == CDCacheBits {
				clear(ctx.rwRead)
				clear(ctx.rwWrite)
				ctx.overflow = false
				s.stats.FlashClears++
			}
			t.Log.Reset()
			t.exact.clear()
			t.exactStack = t.exactStack[:0]
			if t.NeedsSummaryUpdate && s.OnOuterCommit != nil {
				// The outermost abort released isolation; trap so the
				// OS drops this transaction's saved signature from the
				// process summary.
				s.OnOuterCommit(t)
				t.NeedsSummaryUpdate = false
			}
		} else if s.P.CD == CDCacheBits {
			// Flattened nesting: intermediate frames have no saved
			// state to restore; keep unwinding to the outermost.
			ctx.Filter.Clear()
		} else {
			if err := ctx.Sig.CopyFrom(frame.SavedSig); err != nil {
				panic(err)
			}
			snap := t.exactStack[len(t.exactStack)-1]
			t.exactStack = t.exactStack[:len(t.exactStack)-1]
			t.exact = snap.set
			ctx.Filter.Clear()
			lat += s.sigCopyLat(t.depth)
			if s.Check != nil {
				er, ew := t.ExactSets()
				s.Check.SigCovers(t.ID, "nested-abort restore", ctx.Sig, er, ew)
			}
		}
	}
	if s.Check != nil {
		s.Check.OnAbortDone(t.ID, t.depth)
	}
	t.pendingAbort = false
	t.abortEpoch++
	t.possibleCycle = false
	if t.depth == 0 {
		// Fully unwound: the next attempt starts from scratch with a
		// clean footprint, so the per-depth escalation streak restarts
		// (consecAborts keeps growing the backoff window regardless).
		t.abortStreak = 0
	} else {
		t.abortStreak++
	}
	t.consecAborts++
	s.stats.Aborts++
	t.Aborts++
	s.emit(obs.KindLogWalkEnd, t, cause, t.depth, 0, uint64(records), 0)
	s.emit(obs.KindTxAbort, t, cause, t.depth, 0, uint64(records), 0)
	if s.Met != nil {
		s.Met.LogWalk.Observe(uint64(records))
		if t.depth == 0 {
			s.Met.AbortedTxCycles.Observe(uint64(s.Engine.Now() - t.txStart))
		}
	}

	// Randomized exponential backoff before the retry (bounded).
	backoff := backoffWindow(s.P.StallRetryLat, t.consecAborts, s.P.BackoffCapShift)
	delay := sim.Cycle(s.Engine.Rand().Int63n(int64(backoff) + 1))
	if s.Met != nil {
		s.Met.Backoff.Observe(uint64(delay))
	}
	lat += delay
	s.finish(t, response{abort: true, toDepth: t.depth}, lat)
}

// backoffWindow computes the bounded exponential backoff window after
// consecutive aborts: base << min(aborts, capShift), with the effective
// shift saturated at 32 so a large configured cap can never overflow the
// 64-bit cycle arithmetic (the window is then clamped, not wrapped).
func backoffWindow(base sim.Cycle, consecAborts int, capShift uint) sim.Cycle {
	shift := uint(consecAborts)
	if shift > capShift {
		shift = capShift
	}
	if shift > 32 {
		shift = 32
	}
	w := base << shift
	if w < base {
		w = base // defense in depth: never let overflow shrink the window
	}
	return w
}

// --- coherence.Hooks implementation ------------------------------------------

// ctxConflict applies the configured conflict-detection hardware: the
// context's signature (LogTM-SE) or its R/W cache bits plus the
// conservative overflow flag (original LogTM).
func (s *System) ctxConflict(ctx *Context, op sig.Op, a addr.PAddr) bool {
	if s.P.CD == CDCacheBits {
		if ctx.overflow {
			// Overflowed transactions conservatively NACK every
			// forwarded request (original LogTM's sticky/overflow rule).
			s.stats.OverflowNACKs++
			return true
		}
		a = a.Block()
		if op == sig.Read {
			return ctx.rwWrite[a]
		}
		return ctx.rwRead[a] || ctx.rwWrite[a]
	}
	return ctx.Sig.Conflict(op, a)
}

// SignatureCheck implements eager conflict detection at a target core: a
// GETS tests the write signatures, a GETM tests read and write signatures
// of every scheduled, in-transaction thread context whose address space
// matches (the ASID filter prevents cross-process false conflicts, §2).
func (s *System) SignatureCheck(targetCore int, req coherence.Request) []coherence.Nacker {
	if s.txLive[targetCore] == 0 {
		return nil
	}
	ns := s.nackScratch[:0]
	for th, ctx := range s.ctxs[targetCore] {
		if targetCore == req.Core && th == req.Thread {
			continue
		}
		o := ctx.Cur
		if o == nil || !o.InTx() || o.ASID != req.ASID {
			continue
		}
		if !s.ctxConflict(ctx, req.Op, req.Addr) {
			continue
		}
		if req.Timestamp != 0 && req.Timestamp < o.ts {
			// We are NACKing an older transaction: a deadlock cycle is
			// now possible (LogTM's possible_cycle flag).
			o.possibleCycle = true
		}
		ns = append(ns, coherence.Nacker{
			Core: targetCore, Thread: th, Timestamp: o.ts,
			FalsePositive: !o.exactConflict(req.Op, req.Addr),
			Overflow:      s.P.CD == CDCacheBits && ctx.overflow,
		})
	}
	// The returned slice aliases the scratch buffer; callers copy or
	// consume it before the next check runs.
	s.nackScratch = ns
	return ns
}

// MayBeInSignature conservatively reports whether a block may be covered
// by any scheduled transaction's conflict-detection state on the core;
// the protocol uses it for the sticky-state decision on L1 eviction. In
// CDCacheBits mode the eviction of a marked line also destroys its R/W
// bits, setting the context's overflow flag (original LogTM).
func (s *System) MayBeInSignature(core int, a addr.PAddr) bool {
	if s.txLive[core] == 0 {
		return false
	}
	hit := false
	for _, ctx := range s.ctxs[core] {
		if o := ctx.Cur; o == nil || !o.InTx() {
			continue
		}
		if s.P.CD == CDCacheBits {
			b := a.Block()
			if ctx.rwRead[b] || ctx.rwWrite[b] {
				delete(ctx.rwRead, b)
				delete(ctx.rwWrite, b)
				ctx.overflow = true
				hit = true
			}
			continue
		}
		if ctx.Sig.Conflict(sig.Write, a) {
			hit = true
		}
	}
	return hit
}

// SignatureMember reports whether req.Addr is in any signature set —
// read or write — of a scheduled, in-transaction, same-address-space
// context on the core, excluding the requesting thread itself. Unlike
// MayBeInSignature this never mutates conflict-detection state (in
// CDCacheBits mode the R/W bits are only probed, not consumed). The
// directory uses it to decide whether a rebuilt entry must stay in
// check-all mode: membership without a cached copy means owner/sharer
// routing alone would bypass the footprint.
func (s *System) SignatureMember(core int, req coherence.Request) bool {
	if s.txLive[core] == 0 {
		return false
	}
	for th, ctx := range s.ctxs[core] {
		if core == req.Core && th == req.Thread {
			continue
		}
		if o := ctx.Cur; o == nil || !o.InTx() || o.ASID != req.ASID {
			continue
		}
		if s.P.CD == CDCacheBits {
			b := req.Addr.Block()
			if ctx.overflow || ctx.rwRead[b] || ctx.rwWrite[b] {
				return true
			}
			continue
		}
		// A write probe conflicts with both the read and write sets, so
		// it is exactly set membership.
		if ctx.Sig.Conflict(sig.Write, req.Addr) {
			return true
		}
	}
	return false
}

// InExactSet reports whether a block is truly in an active transaction's
// read or write set on the core (victimization statistics).
func (s *System) InExactSet(core int, a addr.PAddr) bool {
	if s.txLive[core] == 0 {
		return false
	}
	for _, ctx := range s.ctxs[core] {
		if o := ctx.Cur; o != nil && o.InTx() && o.exactConflict(sig.Write, a) {
			return true
		}
	}
	return false
}

var _ coherence.Hooks = (*System)(nil)

// --- OS-model support ---------------------------------------------------------

// Deschedule removes a parked thread from its context, saving its
// signature to (conceptually) its log header. The context becomes idle;
// its hardware signature and log filter are cleared for the next thread.
func (s *System) Deschedule(t *Thread) {
	if t.ctx == nil {
		panic("core: Deschedule of unscheduled thread " + t.Name)
	}
	if s.P.CD == CDCacheBits && t.InTx() {
		panic("core: original LogTM cannot context-switch mid-transaction (R/W bits are not software accessible): " + t.Name)
	}
	ctx := t.ctx
	if t.InTx() {
		t.SavedSig = ctx.Sig.Clone()
	} else {
		t.SavedSig = nil
	}
	ctx.Sig.ClearAll()
	ctx.Filter.Clear()
	ctx.Cur = nil
	t.ctx = nil
	s.recountTx(ctx.Core)
}

// ScheduleOn installs a thread on an idle context, restoring its saved
// signature into the hardware signature. If it was descheduled
// mid-transaction its eventual commit must trap to the OS for a summary
// recompute (NeedsSummaryUpdate).
func (s *System) ScheduleOn(t *Thread, core, thread int) error {
	if err := s.Place(t, core, thread); err != nil {
		return err
	}
	if t.SavedSig != nil {
		if err := t.ctx.Sig.CopyFrom(t.SavedSig); err != nil {
			return err
		}
		t.SavedSig = nil
		t.NeedsSummaryUpdate = true
		if s.Check != nil {
			er, ew := t.ExactSets()
			s.Check.SigCovers(t.ID, "reschedule restore", t.ctx.Sig, er, ew)
		}
	}
	return nil
}

// InstallSummary sets the summary signature checked on every memory
// reference by the context. Pass nil to clear.
func (s *System) InstallSummary(core, thread int, sum *sig.Signature) {
	s.ctxs[core][thread].Summary = sum
}
