package core

import (
	"errors"
	"fmt"
	"math/rand"

	"logtmse/internal/coherence"
	"logtmse/internal/mem"
	"logtmse/internal/sig"
	"logtmse/internal/sim"
	"logtmse/internal/txlog"
)

// ErrNotCapturable marks a System whose state cannot be captured at the
// current boundary: an instrumentation hook is attached, an interpreted
// thread is mid-run (its position lives on a goroutine stack), or the
// engine's queue holds an event (only the per-thread continuations on
// the lane can be rebuilt). Callers fall back to re-running from
// scratch.
var ErrNotCapturable = errors.New("core: state not capturable at this boundary")

func notCapturable(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrNotCapturable, fmt.Sprintf(format, args...))
}

// SystemState is a restorable capture of a System between events. Capture
// works only at quiescent boundaries (outside Run/RunUntil) of a machine
// with no hooks attached; see CaptureState for the exact gates. Restoring
// onto a freshly spawned machine of identical configuration resumes the
// run bit-identically — every later event, RNG draw and statistic matches
// the run the capture was taken from.
//
// The capture holds no pointers into the live machine: memory and the
// directory are shared copy-on-write, everything else is deep-copied. One
// capture can therefore seed any number of restores (forks).
type SystemState struct {
	engine       sim.EngineState
	stats        Stats
	sabotage     Sabotage
	mem          *mem.Snapshot
	coh          *coherence.Snapshot
	nextPhysPage uint64
	pageTables   []mem.PageTableState
	ctxs         []ctxState
	threads      []threadState
	barriers     []barrierState
}

type ctxState struct {
	sig    *sig.Signature
	filter txlog.FilterState
}

type threadState struct {
	// Identity, verified against the restore target.
	name         string
	core, thread int
	stepped      bool
	rngSeed      int64
	pt           int // index into SystemState.pageTables

	log           []txlog.Frame
	depth         int
	ts            uint64
	possibleCycle bool
	exact         exactSet
	exactStack    []exactSnap
	abortStreak   int
	consecAborts  int
	stalling      bool
	stallSince    sim.Cycle
	stallRetries  int
	waitingOn     []int
	abortEpoch    uint64

	retryReq   request
	retryOp    sig.Op
	retryEpoch uint64
	finishResp response

	escaped            bool
	escapedOp          bool
	needsSummaryUpdate bool
	done               bool
	nowCache           sim.Cycle
	rngBuilt           bool
	rngDraws           uint64

	commits, aborts, stalls, workUnits uint64

	pendKind uint8
	pendAt   sim.Cycle
	pendKey  uint64
}

type barrierState struct {
	arrived int
	waiting []int // thread IDs, in arrival order
}

// Now reports the simulated cycle the capture was taken at.
func (st *SystemState) Now() sim.Cycle { return st.engine.Now }

// InTx reports whether any captured thread had an active transaction —
// bisect restricts checker-seeded restores to transaction-free
// boundaries, where a freshly attached checker sees a consistent world.
func (st *SystemState) InTx() bool {
	for i := range st.threads {
		if st.threads[i].depth > 0 {
			return true
		}
	}
	return false
}

// CaptureState captures the complete dynamic state of the machine at a
// quiescent event boundary (between events: after RunUntil returns, before
// the next Run). barriers lists every workload barrier threads may be
// waiting at, in a fixed order the restore target reproduces.
//
// Capture refuses (ErrNotCapturable) when the state has parts it cannot
// rebuild on a fork:
//
//   - any hook is attached (sink, metrics, checker, fault
//     injector, OS scheduling hooks) — hooks carry arbitrary external
//     state. Sabotage is NOT a hook: it is plain machine state, captured
//     and restored with everything else, which is what lets bisect probe
//     a sabotaged run from its snapshots;
//   - the machine is not the single-chip signature-mode baseline (summary
//     signatures, cache-bit R/W state and the multi-CMP hierarchy are not
//     captured);
//   - an interpreted thread has started running — its position lives on a
//     goroutine stack; only stepped (compiled-tape) threads are
//     capturable mid-run;
//   - the engine's queue holds any event: the per-thread continuations
//     (one per live thread, all on the lane) are all this layer knows
//     how to rebuild;
//   - no strong work remains — the run is over, snapshot it not.
//
// A capture with storm steps' charges still deferred (see flushStorm)
// is an error, not ErrNotCapturable: stepBounded flushes them before it
// returns, so a pending charge at a boundary is a broken invariant, and
// the captured counters would be short.
func (s *System) CaptureState(barriers []*Barrier) (*SystemState, error) {
	if n := len(s.stormDirty); n != 0 {
		return nil, fmt.Errorf("core: capture with the deferred retry charges of %d threads pending", n)
	}
	if s.OnOuterCommit != nil || s.PreemptCheck != nil || s.OnPreempt != nil || s.OnThreadDone != nil ||
		s.Sink != nil || s.Check != nil || s.Fault != nil {
		return nil, notCapturable("instrumentation or OS hook attached")
	}
	if s.P.CD != CDSignature {
		return nil, notCapturable("cache-bit conflict detection (R/W bits not captured)")
	}
	coh, ok := s.Coh.(*coherence.System)
	if !ok {
		return nil, notCapturable("memory system is not the single-chip protocol (%T)", s.Coh)
	}
	if s.readied != nil {
		return nil, notCapturable("a thread is readied mid-drive")
	}
	if s.threadPanic != nil {
		return nil, notCapturable("a thread panic is pending")
	}
	if s.Engine.PendingStrong() == 0 {
		return nil, notCapturable("no strong work pending (run is over)")
	}

	// Which threads wait at a barrier? They have no queued continuation.
	atBarrier := make(map[int]bool)
	for _, b := range barriers {
		for _, t := range b.waiting {
			atBarrier[t.ID] = true
		}
	}

	st := &SystemState{
		engine:       s.Engine.State(),
		stats:        s.stats,
		sabotage:     s.Sabotage,
		mem:          s.Mem.Snapshot(),
		coh:          coh.Snapshot(),
		nextPhysPage: s.nextPhysPage,
	}

	for _, row := range s.ctxs {
		for _, ctx := range row {
			if ctx.Summary != nil {
				return nil, notCapturable("summary signature installed on context (%d,%d)", ctx.Core, ctx.Thread)
			}
			st.ctxs = append(st.ctxs, ctxState{sig: ctx.Sig.Clone(), filter: ctx.Filter.State()})
		}
	}

	ptIdx := make(map[*mem.PageTable]int)
	pendTracked := 0
	for _, t := range s.threads {
		if t.parked || t.pending != nil {
			return nil, notCapturable("thread %s is parked (OS preemption)", t.Name)
		}
		if t.pendingAbort {
			return nil, notCapturable("thread %s has an injected abort pending", t.Name)
		}
		if t.SavedSig != nil {
			return nil, notCapturable("thread %s holds a descheduled-transaction signature", t.Name)
		}
		if !t.stepped && !t.done && t.pendKind != pendStart {
			return nil, notCapturable("interpreted thread %s is mid-run (goroutine stack)", t.Name)
		}
		switch {
		case t.pendKind != pendNone:
			pendTracked++
		case t.done || atBarrier[t.ID]:
			// No continuation in flight, by design.
		default:
			return nil, notCapturable("thread %s is live with no tracked continuation", t.Name)
		}
		if t.ctx == nil {
			return nil, notCapturable("thread %s is unplaced", t.Name)
		}
		pi, ok := ptIdx[t.PT]
		if !ok {
			pi = len(st.pageTables)
			ptIdx[t.PT] = pi
			st.pageTables = append(st.pageTables, t.PT.State())
		}
		ts := threadState{
			name:    t.Name,
			core:    t.ctx.Core,
			thread:  t.ctx.Thread,
			stepped: t.stepped,
			rngSeed: t.rngSeed,
			pt:      pi,

			log:           t.Log.State(),
			depth:         t.depth,
			ts:            t.ts,
			possibleCycle: t.possibleCycle,
			exact:         t.exact.clone(),
			abortStreak:   t.abortStreak,
			consecAborts:  t.consecAborts,
			stalling:      t.stalling,
			stallSince:    t.stallSince,
			stallRetries:  t.stallRetries,
			waitingOn:     append([]int(nil), t.waitingOn...),
			abortEpoch:    t.abortEpoch,

			retryReq:   t.retryReq,
			retryOp:    t.retryOp,
			retryEpoch: t.retryEpoch,
			finishResp: t.finishResp,

			escaped:            t.escaped,
			escapedOp:          t.escapedOp,
			needsSummaryUpdate: t.NeedsSummaryUpdate,
			done:               t.done,
			nowCache:           t.nowCache,
			rngBuilt:           t.rng != nil,

			commits:   t.Commits,
			aborts:    t.Aborts,
			stalls:    t.Stalls,
			workUnits: t.WorkUnits,

			pendKind: t.pendKind,
			pendAt:   t.pendAt,
			pendKey:  t.pendKey,
		}
		if ts.rngBuilt {
			ts.rngDraws = t.rngSrc.Draws()
		}
		for i := range t.exactStack {
			ts.exactStack = append(ts.exactStack, exactSnap{set: t.exactStack[i].set.clone()})
		}
		st.threads = append(st.threads, ts)
	}

	// Every tracked continuation is on the lane; an engine event (an OS
	// quantum, a weak tick) holds a closure a restore would lose.
	if n := s.Engine.Pending() - pendTracked; n != 0 {
		return nil, notCapturable("engine queue holds %d events besides the %d thread continuations", n, pendTracked)
	}

	for _, b := range barriers {
		bs := barrierState{arrived: b.arrived}
		for _, t := range b.waiting {
			bs.waiting = append(bs.waiting, t.ID)
		}
		st.barriers = append(st.barriers, bs)
	}
	return st, nil
}

// RestoreState overwrites a freshly spawned machine with a capture taken
// from an identically configured and identically spawned one (same
// Params, same workload spawn order, same placements), resuming the
// captured run. The capture is never mutated; it can seed any number of
// restores. barriers must list the target's workload barriers in the
// order the capture's were given.
func (s *System) RestoreState(st *SystemState, barriers []*Barrier) error {
	coh, ok := s.Coh.(*coherence.System)
	if !ok {
		return fmt.Errorf("core: restore target memory system is %T", s.Coh)
	}
	if len(s.threads) != len(st.threads) {
		return fmt.Errorf("core: restore target has %d threads, capture has %d", len(s.threads), len(st.threads))
	}
	if len(barriers) != len(st.barriers) {
		return fmt.Errorf("core: restore target has %d barriers, capture has %d", len(barriers), len(st.barriers))
	}
	if len(st.ctxs) != s.P.Contexts() {
		return fmt.Errorf("core: restore target has %d contexts, capture has %d", s.P.Contexts(), len(st.ctxs))
	}

	// Verify thread identity and page-table sharing topology before
	// touching anything.
	ptIdx := make(map[*mem.PageTable]int)
	for i, t := range s.threads {
		ts := &st.threads[i]
		if t.Name != ts.name {
			return fmt.Errorf("core: restore thread %d is %q, capture has %q", i, t.Name, ts.name)
		}
		if t.stepped != ts.stepped {
			return fmt.Errorf("core: restore thread %s stepped=%v, capture has %v", t.Name, t.stepped, ts.stepped)
		}
		if t.rngSeed != ts.rngSeed {
			return fmt.Errorf("core: restore thread %s rng seed %d, capture has %d (different Params.Seed?)",
				t.Name, t.rngSeed, ts.rngSeed)
		}
		if t.ctx == nil || t.ctx.Core != ts.core || t.ctx.Thread != ts.thread {
			return fmt.Errorf("core: restore thread %s placement differs from capture", t.Name)
		}
		pi, ok := ptIdx[t.PT]
		if !ok {
			pi = len(ptIdx)
			ptIdx[t.PT] = pi
		}
		if pi != ts.pt {
			return fmt.Errorf("core: restore thread %s page-table sharing differs from capture", t.Name)
		}
	}
	if len(ptIdx) != len(st.pageTables) {
		return fmt.Errorf("core: restore target has %d page tables, capture has %d", len(ptIdx), len(st.pageTables))
	}

	// Engine first: this drops the fresh spawn's starts, then the lane
	// is rebuilt below from the captured descriptors.
	s.Engine.RestoreState(st.engine)
	s.lane.clear()
	s.replayGen++
	s.Mem.RestoreFrom(st.mem)
	if err := coh.RestoreFrom(st.coh); err != nil {
		return err
	}
	for pt, pi := range ptIdx {
		pt.RestoreState(st.pageTables[pi])
	}
	s.nextPhysPage = st.nextPhysPage
	s.stats = st.stats
	s.Sabotage = st.sabotage

	i := 0
	for _, row := range s.ctxs {
		for _, ctx := range row {
			cs := &st.ctxs[i]
			i++
			if err := ctx.Sig.CopyFrom(cs.sig); err != nil {
				return fmt.Errorf("core: restore context (%d,%d) signature: %w", ctx.Core, ctx.Thread, err)
			}
			if err := ctx.Filter.RestoreState(cs.filter); err != nil {
				return fmt.Errorf("core: restore context (%d,%d): %w", ctx.Core, ctx.Thread, err)
			}
			ctx.Summary = nil
			if ctx.rwRead != nil {
				clear(ctx.rwRead)
				clear(ctx.rwWrite)
			}
			ctx.overflow = false
		}
	}

	for idx, t := range s.threads {
		ts := &st.threads[idx]
		t.Log.RestoreState(ts.log)
		t.depth = ts.depth
		t.ts = ts.ts
		t.possibleCycle = ts.possibleCycle
		t.exact = ts.exact.clone()
		t.exactStack = t.exactStack[:0]
		for i := range ts.exactStack {
			t.exactStack = append(t.exactStack, exactSnap{set: ts.exactStack[i].set.clone()})
		}
		t.abortStreak = ts.abortStreak
		t.consecAborts = ts.consecAborts
		t.stalling = ts.stalling
		t.stallSince = ts.stallSince
		t.stallRetries = ts.stallRetries
		t.waitingOn = append(t.waitingOn[:0], ts.waitingOn...)
		t.pendingAbort = false
		t.abortEpoch = ts.abortEpoch
		t.retryReq, t.retryOp, t.retryEpoch = ts.retryReq, ts.retryOp, ts.retryEpoch
		t.finishResp = ts.finishResp
		t.escaped, t.escapedOp = ts.escaped, ts.escapedOp
		t.SavedSig = nil
		t.NeedsSummaryUpdate = ts.needsSummaryUpdate
		t.respReady = false
		t.done = ts.done
		t.parked, t.pending = false, nil
		t.nowCache = ts.nowCache
		if ts.rngBuilt {
			t.rngSrc = sim.NewCountingSource(t.rngSeed)
			t.rng = rand.New(t.rngSrc)
			t.rngSrc.Skip(ts.rngDraws)
		} else {
			t.rng, t.rngSrc = nil, nil
		}
		t.Commits, t.Aborts, t.Stalls, t.WorkUnits = ts.commits, ts.aborts, ts.stalls, ts.workUnits

		// Re-queue the thread's continuation at its original key so
		// execution order is bit-identical to the captured run. Done
		// threads and barrier waiters have nothing queued.
		t.pendKind, t.pendAt, t.pendKey = ts.pendKind, ts.pendAt, ts.pendKey
		if ts.pendKind > pendBackoff {
			return fmt.Errorf("core: unknown pending continuation kind %d for %s", ts.pendKind, t.Name)
		}
		if ts.pendKind != pendNone {
			s.Engine.ReserveRaw(ts.pendAt, ts.pendKey)
			s.lane.push(int32(laneAnchors+t.ID), t.pendAt, t.pendKey, 0, s.Engine.Now())
		}
	}

	for i, b := range barriers {
		bs := &st.barriers[i]
		b.arrived = bs.arrived
		b.waiting = b.waiting[:0]
		for _, id := range bs.waiting {
			if id < 0 || id >= len(s.threads) {
				return fmt.Errorf("core: barrier %d waiter id %d out of range", i, id)
			}
			b.waiting = append(b.waiting, s.threads[id])
		}
	}

	for c := range s.ctxs {
		s.recountTx(c)
	}
	s.readied = nil
	return nil
}
