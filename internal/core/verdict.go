package core

import (
	"math/bits"

	"logtmse/internal/addr"
	"logtmse/internal/coherence"
	"logtmse/internal/sig"
)

// retryVerdict is a thread's memo of its last NACK. LogTM resolves a
// conflict by stalling the requester and retrying, and a stalled access
// usually finds nothing changed when it retries: the same signatures
// NACK it for the same reason. A NACK whose own walk changed no protocol
// state records how it was NACKed and what the outcome depended on; a
// retry of the same block while all of that holds still replays the
// outcome — the counters through coherence ReplayNACK, then the stall
// with the NACK's precomputed classification — instead of re-running
// the SMT scan, the protocol walk and resolveNACK's loops. Every Stats
// counter, RNG draw and scheduled event is the same either way; only
// host time moves.
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
type retryVerdict struct {
	ok        bool
	smt       bool // NACKed by a same-core sibling, before the protocol
	broadcast bool // the protocol broadcast the checks (else forwarded)
	upgrade   bool // an S->M upgrade (else an L1 miss)
	op        sig.Op
	block     addr.PAddr
	class     nackClass

	epoch      uint64
	blockStamp uint64
	// cores is the checked cores plus the requester's; stamp is their
	// coreStamps' sum less the growth of the true NACKers in grown.
	cores uint64
	stamp uint64
	grown []*Context
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
	v.cores |= 1 << uint(t.ctx.Core)
	v.class = classifyNACK(res.Nackers, t.ts)
	v.grown = v.grown[:0]
	for _, n := range res.Nackers {
		if !n.FalsePositive {
			v.grown = append(v.grown, s.ctxs[n.Core][n.Thread])
		}
	}
	v.stamp = s.verdictStamp(v.cores, v.grown)
	v.epoch, v.blockStamp = s.verdictCoh.Epoch(), s.verdictCoh.BlockStamp(pa)
}

// verdictHolds reports whether nothing v's NACK depended on has changed.
func (s *System) verdictHolds(v *retryVerdict) bool {
	return v.ok && v.epoch == s.verdictCoh.Epoch() && v.blockStamp == s.verdictCoh.BlockStamp(v.block) &&
		v.stamp == s.verdictStamp(v.cores, v.grown)
}

// replayRetry replays t's verdict for an access of pa if it still holds,
// reporting whether it did. The block check also catches a page
// relocation of the requester's own page.
func (s *System) replayRetry(t *Thread, r *request, op sig.Op, pa addr.PAddr) bool {
	v := &t.verdict
	if !s.verdictsOn() || v.block != pa.Block() || v.op != op || !s.verdictHolds(v) {
		v.ok = false
		return false
	}
	if v.smt {
		s.stats.SMTConflicts++
	} else {
		s.verdictCoh.ReplayNACK(coherence.Request{Core: t.ctx.Core, Thread: t.ctx.Thread, Op: op, Addr: pa}, v.broadcast, v.upgrade)
	}
	s.verdictReplays++
	if !t.InTx() || t.escaped {
		s.retryNonTx(t, r, op)
		return true
	}
	// t.waitingOn still lists the NACKers' threads: it was filled by the
	// NACK being replayed and is cleared only when the stall ends. The
	// NACKer list itself only feeds a Sink, which a replay never has.
	s.stall(t, r, op, nil, v.class)
	return true
}
