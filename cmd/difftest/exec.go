package main

import (
	"fmt"

	"logtmse/internal/addr"
	"logtmse/internal/check"
	"logtmse/internal/coherence"
	"logtmse/internal/core"
	"logtmse/internal/fault"
	"logtmse/internal/obs"
	"logtmse/internal/osm"
	"logtmse/internal/progen"
	"logtmse/internal/sig"
	"logtmse/internal/sim"
)

// simConfig is one cell of the differential matrix: a signature design,
// a machine shape, a coherence protocol, and an optional fault mix. Every
// cell must produce an execution equivalent to the sequential reference
// model — that equivalence, not any particular performance number, is
// what the matrix checks.
type simConfig struct {
	Name     string
	Sig      sig.Config
	Cores    int
	SMT      int
	GridW    int
	GridH    int
	Protocol coherence.Protocol
	// Mix names a fault mix from internal/fault ("" = no faults).
	Mix string
	// OS runs the program oversubscribed under the internal/osm
	// scheduler (2 cores x 2 SMT for up to 6 program threads), so
	// deschedules exercise summary signatures and sticky states; it is
	// required for the sched/storm mixes, which bind to the scheduler.
	OS bool
}

// matrix returns the configuration matrix every seed runs through.
// Non-OS cells provide at least 8 hardware contexts so the largest
// generated program (6 threads) places without a scheduler.
func matrix() []simConfig {
	return []simConfig{
		{Name: "perfect-16c", Sig: sig.Config{Kind: sig.KindPerfect}, Cores: 16, SMT: 1, GridW: 4, GridH: 4},
		{Name: "bs64-8c-delay", Sig: sig.Config{Kind: sig.KindBitSelect, Bits: 64}, Cores: 8, SMT: 1, GridW: 4, GridH: 2, Mix: "delay"},
		{Name: "bs1024-4c-aborts", Sig: sig.Config{Kind: sig.KindBitSelect, Bits: 1024}, Cores: 4, SMT: 2, GridW: 2, GridH: 2, Mix: "aborts"},
		{Name: "cbs2048-8c-victims-snoop", Sig: sig.Config{Kind: sig.KindCoarseBitSelect, Bits: 2048}, Cores: 8, SMT: 1, GridW: 4, GridH: 2, Protocol: coherence.Snoop, Mix: "victims"},
		{Name: "h3-4c-signoise", Sig: sig.Config{Kind: sig.KindH3, Bits: 512}, Cores: 4, SMT: 2, GridW: 2, GridH: 2, Mix: "signoise"},
		{Name: "bs256-os-sched", Sig: sig.Config{Kind: sig.KindBitSelect, Bits: 256}, Cores: 2, SMT: 2, GridW: 2, GridH: 1, Mix: "sched", OS: true},
		{Name: "perfect-os-storm", Sig: sig.Config{Kind: sig.KindPerfect}, Cores: 2, SMT: 2, GridW: 2, GridH: 1, Mix: "storm", OS: true},
	}
}

func configByName(name string) (simConfig, bool) {
	for _, c := range matrix() {
		if c.Name == name {
			return c, true
		}
	}
	return simConfig{}, false
}

// Address layout. Shared slots sit one per block with a two-block gap,
// so neighboring slots land in one macroblock (coarse signatures must
// prove their extra conflicts are still semantics-preserving). Each
// thread owns a 1 MiB region holding its private slots and, at a fixed
// offset, its scratch slots.
const (
	sharedBase   = addr.VAddr(0x10_0000)
	sharedStride = 3 * addr.BlockBytes
	threadBase   = addr.VAddr(0x100_0000)
	threadStride = addr.VAddr(0x10_0000)
	scratchOff   = addr.VAddr(0x8_0000)
)

func sharedVA(slot int) addr.VAddr {
	return sharedBase + addr.VAddr(slot*sharedStride)
}

func privVA(tid, slot int) addr.VAddr {
	return threadBase + addr.VAddr(tid)*threadStride + addr.VAddr(slot*addr.BlockBytes)
}

func scratchVA(tid, slot int) addr.VAddr {
	return threadBase + addr.VAddr(tid)*threadStride + scratchOff + addr.VAddr(slot*addr.BlockBytes)
}

// runOpts carries per-run knobs orthogonal to the config cell.
type runOpts struct {
	// Sabotage deliberately breaks the engine (harness self-validation).
	Sabotage core.Sabotage
	// Checks arms the runtime invariant oracles. Disabled automatically
	// under sabotage: the oracles would catch the broken undo walk
	// themselves, and the point of a sabotage run is to prove the
	// differential comparison alone detects it.
	Checks    bool
	Watchdog  sim.Cycle
	MaxCycles sim.Cycle
	// Extra, if set, becomes the lifecycle event sink (the -trace
	// printer). An attached sink turns NACK retry replay off, so such
	// runs walk every retry.
	Extra obs.Sink
}

// simOutcome is everything one simulator run exposes to the oracles.
type simOutcome struct {
	// Order lists the software thread id of every outermost commit, in
	// engine order — the serial order the reference model replays.
	Order []int
	// TxReads is each thread's witness-register value at each of its
	// outermost commits, in program order.
	TxReads [][]uint64
	// Shared and Priv are the final memory images (scratch excluded).
	Shared []uint64
	Priv   [][]uint64

	Cycles        sim.Cycle
	Stats         core.Stats
	Faults        map[string]uint64
	CheckFailures []string
	// Replays counts NACK retries answered from a retry verdict rather
	// than a protocol walk: host bookkeeping, never part of a report.
	Replays uint64
	// Err describes a run-level failure (stuck threads, oracle error);
	// empty for a clean run.
	Err string
}

// runSim executes the program on the full simulator under one matrix
// cell. A non-nil error marks a harness bug (bad config); behavioral
// failures land in simOutcome.Err so the driver can report them per run.
func runSim(prog *progen.Program, cfg simConfig, seed int64, opts runOpts) (*simOutcome, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	params := core.DefaultParams()
	params.Seed = seed
	params.Cores = cfg.Cores
	params.ThreadsPerCore = cfg.SMT
	params.GridW, params.GridH = cfg.GridW, cfg.GridH
	params.Signature = cfg.Sig
	params.Protocol = cfg.Protocol
	// Small caches: the programs touch a few dozen blocks, and small
	// arrays force more evictions (sticky states, log-filter pressure).
	params.L1Bytes = 8 * 1024
	params.L2Bytes = 256 * 1024
	params.L2Banks = 4
	// Aliasing-heavy cells can livelock transiently; shed starving
	// transactions instead of spinning into the watchdog.
	params.StarvationRetryLimit = 200

	out := &simOutcome{}
	sys, err := core.NewSystem(params)
	if err != nil {
		return nil, fmt.Errorf("difftest: config %s: %w", cfg.Name, err)
	}
	sys.AttachSink(opts.Extra)
	sys.Sabotage = opts.Sabotage
	// The checker records the outermost-commit order; an injected abort
	// at the commit point never reaches it. Its oracles run unless the
	// engine is sabotaged: then the differential comparison alone must
	// catch the bug.
	var oracles check.Config
	if opts.Checks && !opts.Sabotage.Active() {
		oracles = check.All(opts.Watchdog)
	}
	chk := sys.AttachChecker(oracles)
	var order []int
	chk.SetOuterCommitHook(func(tid int) { order = append(order, tid) })

	nt := len(prog.Threads)
	txReads := make([][]uint64, nt)
	body := func(ti int) func(*core.API) {
		return func(a *core.API) {
			ex := &simExec{a: a, prog: prog, tid: ti, r: progen.InitReg(ti)}
			ex.runTop(prog.Threads[ti].Ops, &txReads[ti])
		}
	}

	var pt interface {
		Translate(addr.VAddr) addr.PAddr
	}
	var inj *fault.Injector
	if cfg.OS {
		sched := osm.New(sys, 2_000)
		sched.DeferInTxFactor = 0 // allow mid-transaction preemption
		proc := sched.NewProcess("difftest")
		pt = proc.PT
		for ti := 0; ti < nt; ti++ {
			sched.Spawn(proc, fmt.Sprintf("t%d", ti), body(ti))
		}
		if cfg.Mix != "" {
			plan, err := fault.MixPlan(cfg.Mix, seed*7919+13)
			if err != nil {
				return nil, err
			}
			inj = fault.New(plan, sys)
			inj.BindOS(sched, proc)
			inj.Arm()
		}
	} else {
		if nt > cfg.Cores*cfg.SMT {
			return nil, fmt.Errorf("difftest: config %s: %d threads exceed %d contexts",
				cfg.Name, nt, cfg.Cores*cfg.SMT)
		}
		spt := sys.NewPageTable(1)
		pt = spt
		for ti := 0; ti < nt; ti++ {
			if _, err := sys.SpawnOn(ti%cfg.Cores, ti/cfg.Cores, fmt.Sprintf("t%d", ti), 1, spt, body(ti)); err != nil {
				return nil, fmt.Errorf("difftest: config %s: %w", cfg.Name, err)
			}
		}
		if cfg.Mix != "" {
			plan, err := fault.MixPlan(cfg.Mix, seed*7919+13)
			if err != nil {
				return nil, err
			}
			inj = fault.New(plan, sys)
			inj.Arm()
		}
	}

	end := sys.RunUntil(opts.MaxCycles)
	out.Cycles = end
	out.Stats = sys.Stats()
	out.Replays = sys.VerdictReplays()
	if inj != nil {
		out.Faults = inj.Stats().ByClass()
	}
	for _, f := range chk.Failures() {
		out.CheckFailures = append(out.CheckFailures, f.String())
	}
	if !sys.AllDone() {
		out.Err = fmt.Sprintf("threads stuck after %d cycles: %v", end, sys.Stuck())
		return out, nil
	}

	out.Order = order
	out.TxReads = txReads
	out.Shared = make([]uint64, prog.Shared)
	for i := range out.Shared {
		out.Shared[i] = sys.Mem.ReadWord(pt.Translate(sharedVA(i)))
	}
	out.Priv = make([][]uint64, nt)
	for ti := 0; ti < nt; ti++ {
		out.Priv[ti] = make([]uint64, prog.Priv)
		for j := range out.Priv[ti] {
			out.Priv[ti][j] = sys.Mem.ReadWord(pt.Translate(privVA(ti, j)))
		}
	}
	return out, nil
}

// simExec interprets one thread's IR over the core.API, maintaining the
// witness register exactly as the reference model does.
type simExec struct {
	a    *core.API
	prog *progen.Program
	tid  int
	r    uint64
}

// runTop runs the thread's top-level ops, appending the witness value to
// reads after each outermost transaction returns (i.e. truly committed —
// Transaction retries internally on abort, including aborts injected at
// the commit point).
func (ex *simExec) runTop(ops []progen.Op, reads *[]uint64) {
	for _, op := range ops {
		if op.Kind == progen.OpTx {
			ex.runTx(op)
			*reads = append(*reads, ex.r)
			continue
		}
		ex.runOp(op)
	}
}

// runTx executes one OpTx. The witness register snapshots before the
// transaction and restores at the top of every (re-)execution, mirroring
// the register checkpoint the engine restores on abort.
func (ex *simExec) runTx(op progen.Op) {
	snap := ex.r
	fn := func() {
		ex.r = snap
		for _, sub := range op.Sub {
			ex.runOp(sub)
		}
	}
	if op.Open {
		ex.a.OpenTransaction(fn)
	} else {
		ex.a.Transaction(fn)
	}
}

func (ex *simExec) runOp(op progen.Op) {
	a := ex.a
	switch op.Kind {
	case progen.OpLoad:
		ex.r = progen.Mix(ex.r, a.Load(sharedVA(op.Slot)))
	case progen.OpStore:
		a.Store(sharedVA(op.Slot), progen.StoreVal(ex.r, op.Val))
	case progen.OpFetchAdd:
		old := a.FetchAdd(sharedVA(op.Slot), op.Val)
		ex.r = progen.Mix(ex.r, old)
	case progen.OpLoadPriv:
		ex.r = progen.Mix(ex.r, a.Load(privVA(ex.tid, op.Slot)))
	case progen.OpStorePriv:
		v := op.Val
		if !ex.prog.Commutative {
			v = progen.StoreVal(ex.r, op.Val)
		}
		a.Store(privVA(ex.tid, op.Slot), v)
	case progen.OpScratch:
		a.Store(scratchVA(ex.tid, op.Slot), op.Val)
	case progen.OpCompute:
		if op.Cycles > 0 {
			a.Compute(sim.Cycle(op.Cycles))
		}
	case progen.OpEscape:
		a.Escape(func() {
			_ = a.Load(privVA(ex.tid, op.Slot))
			a.Store(scratchVA(ex.tid, op.Slot), op.Val)
		})
	case progen.OpTx:
		ex.runTx(op)
	default:
		panic(fmt.Sprintf("difftest: unknown op kind %v", op.Kind))
	}
}
