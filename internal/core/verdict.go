package core

import (
	"math"
	"math/bits"

	"logtmse/internal/addr"
	"logtmse/internal/coherence"
	"logtmse/internal/obs"
	"logtmse/internal/sig"
)

// retryVerdict is a thread's memo of its last NACK. LogTM resolves a
// conflict by stalling the requester and retrying, and a stalled access
// usually finds nothing changed when it retries: the same signatures
// NACK it for the same reason. A NACK whose own walk changed no protocol
// state records how it was NACKed and what the outcome depended on; a
// retry of the same block while all of that holds still replays the
// outcome — it charges the walk's counters (a coherence NACKCharge,
// resolved once) and the stall, and applies the resolution rules to the
// NACK's precomputed classification — instead of re-running the SMT
// scan, the protocol walk, resolveNACK's loops and the generic stall
// path. Every Stats counter, RNG draw and
// scheduled event is the same either way; only host time moves.
//
// The outcome depends on three things, each dated by a counter the
// verdict records:
//   - the block's protocol state: its directory entry and its lines in
//     every L1 (coherence BlockStamp);
//   - the transactional state of every context on the checked cores
//     and on the requester's core (coreStamps): in-transaction status,
//     timestamp, scheduling, signature and exact set. Signatures and
//     exact sets only grow between begin and commit or abort, so a
//     context that truly NACKed (not a false positive) keeps NACKing
//     the block the same way however much it grows; its growth (its
//     Context.grown) is subtracted from the sum;
//   - everything at once: Reset, snapshot restore, page relocation
//     (coherence Epoch).
//
// When only core stamps moved, a forwarded verdict (see recheck) does
// not have to walk: the walk would route to the same cores and find the
// same NACKers on every core that did not move, so its retry re-checks
// the moved cores' signatures alone (System.recheck).
type retryVerdict struct {
	ok        bool
	smt       bool // NACKed by a same-core sibling, before the protocol
	broadcast bool // the protocol broadcast the checks (else forwarded)
	upgrade   bool // an S->M upgrade (else an L1 miss)
	// recheck marks a directory-forwarded NACK (a GETS to its owner, a
	// GETM to its owner and sharers) none of whose checks went to the
	// requester's own core; only such a verdict keeps dates and nackers.
	recheck bool
	op      sig.Op
	block   addr.PAddr
	class   nackClass
	// charge is what a replay of a protocol NACK charges, resolved at
	// seed.
	charge coherence.NACKCharge

	epoch      uint64
	blockStamp uint64
	// cores is the checked cores plus the requester's; stamp is their
	// coreStamps' sum less the growth of the true NACKers in grown.
	cores uint64
	stamp uint64
	grown []*Context
	// dates holds, for a recheck verdict, each core of cores in
	// ascending order dated as stamp dates them all (its coreStamps
	// entry less its true NACKers' growth; they sum to stamp), and
	// nackers the NACKer list of the walk or re-check that seeded it.
	dates   []uint64
	nackers []coherence.Nacker
}

// verdictsOn reports whether NACK verdicts may be seeded and replayed.
// verdictCoh is set at construction only for a single-chip memory
// system without CDCacheBits, whose walks have side effects a replay
// would skip (OverflowNACKs and R/W-bit consumption). The dynamic hooks
// each observe the walk or perturb it: a Sink sees every NACK, conflict
// edge and sticky forward, and a network latency perturbation (a fault
// plan's net-delay) draws from the injector's RNG once per message the
// walk sends.
func (s *System) verdictsOn() bool {
	return s.verdictCoh != nil && s.Sink == nil && !s.verdictCoh.Grid().Perturbed()
}

// stampCore records a change to the transactional state of a context on
// core: a transaction-state transition (recountTx, which also covers
// every signature or exact-set restore, since each happens at a depth
// transition or a Place), or signature growth.
func (s *System) stampCore(core int) {
	s.coreStamps[core]++
	s.allStamp++
}

// stampGrowth records that ctx's signature or exact set grew.
func (s *System) stampGrowth(ctx *Context) {
	ctx.grown++
	s.stampCore(ctx.Core)
}

// InvalidateRetryVerdicts records a change to conflict-detection state
// made outside the engine — the OS model rewriting signatures and exact
// sets on a page relocation — so no NACK seen before it is replayed.
func (s *System) InvalidateRetryVerdicts() {
	if s.verdictCoh != nil {
		s.verdictCoh.BumpEpoch()
	}
}

// VerdictReplays reports how many NACK retries were answered from a
// verdict instead of a protocol walk since the machine was built or
// Reset.
func (s *System) VerdictReplays() uint64 { return s.verdictReplays }

// ReplaySkips reports how many NACK retries skipped re-validation — their
// lane cell still carried the mark of a clean replay — and StormSteps
// how many ran as storm steps, since the machine was built or Reset.
// Only a retry the opt-in starvation limit escalates skips without a
// storm step.
func (s *System) ReplaySkips() uint64 { return s.replaySkips }

// StormSteps: see ReplaySkips.
func (s *System) StormSteps() uint64 { return s.stormSteps }

// VerdictRechecks reports how many NACK retries re-checked only the
// cores that moved since their verdict, and still NACKed, instead of
// walking the protocol, since the machine was built or Reset.
func (s *System) VerdictRechecks() uint64 { return s.verdictRechecks }

// verdictStamp sums the core stamps a verdict depends on, less its true
// NACKers' growth. Every term of the difference only grows, so the sum
// is unchanged exactly when none of them moved.
func (s *System) verdictStamp(cores uint64, grown []*Context) uint64 {
	var sum uint64
	if cores == s.allCores {
		sum = s.allStamp
	} else {
		for m := cores; m != 0; m &= m - 1 {
			sum += s.coreStamps[bits.TrailingZeros64(m)]
		}
	}
	for _, c := range grown {
		sum -= c.grown
	}
	return sum
}

// dateCores dates each core of cores, in ascending order, as verdictStamp
// dates them together: its coreStamps entry less the growth of the true
// NACKers in grown that sit on it. It writes the dates over dst and
// returns them.
func (s *System) dateCores(dst []uint64, cores uint64, grown []*Context) []uint64 {
	dst = dst[:0]
	for m := cores; m != 0; m &= m - 1 {
		dst = append(dst, s.coreStamps[bits.TrailingZeros64(m)])
	}
	for _, g := range grown {
		dst[bits.OnesCount64(cores&(1<<uint(g.Core)-1))] -= g.grown
	}
	return dst
}

// seedVerdict records t's NACK res on pa; smt marks a NACK by a
// same-core sibling, which res carries alone. The caller guarantees
// verdictsOn and that the walk that produced res changed no protocol
// state.
func (s *System) seedVerdict(t *Thread, op sig.Op, pa addr.PAddr, smt bool, res *coherence.AccessResult) {
	v := &t.verdict
	v.ok, v.smt, v.op, v.block = true, smt, op, pa.Block()
	v.broadcast, v.upgrade, v.cores = res.Broadcast, false, 0
	if !smt {
		v.cores, v.upgrade = s.verdictCoh.NACKShape(coherence.Request{Core: t.ctx.Core, Op: op, Addr: pa}, res.Broadcast)
	}
	self := uint64(1) << uint(t.ctx.Core)
	v.recheck = !smt && !res.Broadcast && v.cores&self == 0
	v.cores |= self
	s.dateVerdict(t, res.Nackers)
	v.epoch, v.blockStamp = s.verdictCoh.Epoch(), s.verdictCoh.BlockStamp(pa)
	if !smt {
		v.charge = s.verdictCoh.ReplayCharge(coherence.Request{Core: t.ctx.Core, Op: op, Addr: pa}, v.broadcast, v.upgrade)
	}
}

// dateVerdict records nackers, the NACKer list of t's verdict, and
// dates the verdict's cores against the current core stamps.
func (s *System) dateVerdict(t *Thread, nackers []coherence.Nacker) {
	v := &t.verdict
	v.class = classifyNACK(nackers, t.ts)
	v.grown = v.grown[:0]
	for _, n := range nackers {
		if !n.FalsePositive {
			v.grown = append(v.grown, s.ctxs[n.Core][n.Thread])
		}
	}
	if !v.recheck {
		v.stamp = s.verdictStamp(v.cores, v.grown)
		return
	}
	v.nackers = append(v.nackers[:0], nackers...)
	v.dates, v.stamp = s.dateCores(v.dates, v.cores, v.grown), 0
	for _, d := range v.dates {
		v.stamp += d
	}
}

// blockHolds reports whether v is seeded and neither its block's
// protocol state nor the epoch moved since.
func (s *System) blockHolds(v *retryVerdict) bool {
	return v.ok && v.epoch == s.verdictCoh.Epoch() && v.blockStamp == s.verdictCoh.BlockStamp(v.block)
}

// retry runs t's NACK retry, a lane step, when it cannot skip
// re-validation (see stormStep), and reports whether it was a clean
// replay: the verdict still held, and replay charged the retry and
// re-armed it on the lane. A verdict whose checked cores alone moved is
// re-checked on those cores (recheck); any other retry walks the
// protocol through access. retry and stormStep are the one replay site.
//
// A clean replay changes none of the state a verdict depends on (block
// stamps, core stamps, growth, the epoch, the bypass hooks, the page
// tables) and queues nothing but its own retry — it counts the stall,
// draws the jitter and re-arms. So a thread whose verdict was found
// valid at a clean replay stays valid until something else runs: every
// other step advances replayGen (an engine event, any other lane
// continuation, a walked, re-checked or aborting retry, a dispatch from
// a thread goroutine, a drive entry, Reset, snapshot restore), and a
// retry whose lane cell that replay marked, with no such step since,
// skips re-validation as a storm step.
func (s *System) retry(t *Thread) bool {
	held, recheck := false, false
	if !t.pendingAbort {
		held, recheck = s.verdictCurrent(t)
	}
	if held {
		return s.replay(t)
	}
	s.replayGen++
	if !recheck || !s.recheck(t) {
		s.access(t, &t.retryReq, t.retryOp)
	}
	return false
}

// replay charges t's retry from its verdict, which holds: the walk's
// counters (its NACKCharge, or the SMT conflict), the stall or the
// non-transactional retry, and the resolution rules, which read the
// live possible_cycle flag and the starvation count. It then re-arms
// the retry on the lane, exactly as scheduleRetry would for the parked
// request (whose op, abort epoch and retrying mark are already set),
// marks it for a storm step (see mark), and reports true; it reports
// false if the resolution aborted t. Stall episodes are never counted
// here: a retry is never an episode's first NACK.
func (s *System) replay(t *Thread) bool {
	v := &t.verdict
	if v.smt {
		s.stats.SMTConflicts++
	} else {
		v.charge.Apply()
	}
	s.verdictReplays++
	var cause obs.AbortCause
	var abort bool
	if t.InTx() && !t.escaped {
		// t.waitingOn still lists the NACKers' threads: it was filled by
		// the NACK being replayed and is cleared only when the stall
		// ends.
		s.stats.Stalls++
		t.Stalls++
		if v.class.allFalse {
			s.stats.FalsePositiveStalls++
		}
		cause, abort = s.resolve(t, v.class)
	} else {
		s.stats.NonTxRetries++
		cause, abort = obs.CauseStarvation, s.nonTxStarved(t)
	}
	if abort {
		s.abort(t, cause)
		s.replayGen++
		return false
	}
	s.laneArm(t, s.P.StallRetryLat+s.jitter()+s.faultRetryDelay(t), pendRetry)
	if s.laneStep == nil {
		s.mark(t)
	}
	return true
}

// mark marks t's re-armed retry, a clean replay's, as a storm step: its
// lane cell carries replayGen+1, and its storm slot the verdict's charge
// and the starvation budget. Until another step advances replayGen,
// each retry would replay exactly as this one did, except that the
// opt-in starvation limit counts them: the budget is the number of them
// that stay below it, so the retry that escalates takes the full path.
// Neither possible_cycle nor the younger-aborts rule can abort one —
// their inputs move only in steps that advance replayGen.
func (s *System) mark(t *Thread) {
	s.lane.cells[laneAnchors+t.ID].gen = s.replayGen + 1
	st := &s.storm[t.ID]
	st.charge, st.left = coherence.NACKCharge{}, math.MaxUint64
	if !t.verdict.smt {
		st.charge = t.verdict.charge
	}
	if lim := s.P.StarvationRetryLimit; lim > 0 && t.InTx() {
		st.left = uint64(lim - 1 - t.stallRetries)
	}
}

// verdictCurrent reports whether t's verdict still holds for its retry
// of the parked request (the block check also catches a page relocation
// of the requester's own page) and, if not, whether only core stamps of
// a recheck verdict moved.
func (s *System) verdictCurrent(t *Thread) (held, recheck bool) {
	v := &t.verdict
	if v.ok && s.verdictsOn() && v.op == t.retryOp && v.block == t.PT.Translate(t.retryReq.va).Block() && s.blockHolds(v) {
		if v.stamp == s.verdictStamp(v.cores, v.grown) {
			return true, false
		}
		recheck = v.recheck
	}
	v.ok = false
	return false, recheck
}

// recheck answers t's retry when only core stamps of its recheck verdict
// moved. The block's protocol state and the epoch held, so the walk
// would route to the same cores; a core whose date held would return
// the same NACKers with the same sticky marks (the grow-only rule), and
// their possible_cycle flags, set by the walk that found them, are
// cleared only by a commit or abort that moves their core. So only the
// moved cores' signatures are checked (coherence Recheck). If the
// result still NACKs, recheck charges the walk's counters, re-seeds the
// verdict and resolves the NACK exactly as the walk would, and reports
// true. It reports false, having changed nothing, when the requester's
// own core moved (its siblings feed the SMT scan) or no core NACKs any
// more: the retry then walks.
func (s *System) recheck(t *Thread) bool {
	v, ctx := &t.verdict, t.ctx
	s.dates = s.dateCores(s.dates, v.cores, v.grown)
	var moved uint64
	for i, m := 0, v.cores; m != 0; i, m = i+1, m&(m-1) {
		if s.dates[i] != v.dates[i] {
			moved |= m & -m
		}
	}
	self := uint64(1) << uint(ctx.Core)
	if moved&self != 0 {
		return false
	}
	reqTS := t.ts
	if t.escaped {
		reqTS = 0
	}
	req := coherence.Request{Core: ctx.Core, Thread: ctx.Thread, Op: v.op, Addr: v.block, ASID: t.ASID, Timestamp: reqTS}
	nackers := s.verdictCoh.Recheck(req, v.cores&^self, moved, v.nackers)
	if len(nackers) == 0 {
		return false
	}
	v.charge.Apply() // the walk's counters: the route and the shape held
	s.verdictRechecks++
	v.ok = true
	s.dateVerdict(t, nackers)
	s.resolveNACK(t, &t.retryReq, v.op, nackers)
	return true
}
