package core

import (
	"logtmse/internal/addr"
	"logtmse/internal/coherence"
	"logtmse/internal/sig"
)

// retryVerdict is a thread's memo of its last NACK. LogTM resolves a
// conflict by stalling the requester and retrying, and a stalled access
// usually finds nothing changed when it retries: the same signatures
// NACK it for the same reason. A NACK whose own walk changed no protocol
// state records how it was NACKed; a retry of the same block, issued
// while the memory system's conflict-state version (coherence
// System.Version) still has the value the NACK saw, replays the outcome
// — the counters through coherence ReplayNACK, then the ordinary
// resolveNACK — instead of re-running the SMT scan and the protocol
// walk. Every Stats counter, RNG draw and scheduled event is the same
// either way; only host time moves.
type retryVerdict struct {
	ok        bool
	smt       bool // NACKed by a same-core sibling, before the protocol
	broadcast bool // the protocol broadcast the checks (else forwarded)
	op        sig.Op
	block     addr.PAddr
	version   uint64
	nackers   []coherence.Nacker
}

// verdictsOn reports whether NACK verdicts may be seeded and replayed.
// verdictCoh is set at construction only for a single-chip memory
// system without the contention model or CDCacheBits, whose walks have
// side effects a replay would skip (router and bank queues, OverflowNACKs
// and R/W-bit consumption). The dynamic hooks each observe the walk or
// perturb it: a Sink sees every NACK, conflict edge and sticky
// forward, and a fault hook means a fault plan that perturbs latencies
// and state from its own RNG.
func (s *System) verdictsOn() bool {
	return s.verdictCoh != nil && s.Sink == nil && s.Fault == nil
}

// bumpVersion advances the conflict-state version after an engine-side
// change a NACK outcome depends on: a scheduled context's transaction
// state, a signature, or an exact set.
func (s *System) bumpVersion() {
	if s.verdictCoh != nil {
		s.verdictCoh.BumpVersion()
	}
}

// InvalidateRetryVerdicts records a change to conflict-detection state
// made outside the engine — the OS model rewriting signatures and exact
// sets on a page relocation — so no NACK seen before it is replayed.
func (s *System) InvalidateRetryVerdicts() { s.bumpVersion() }

// cohVersion reads the conflict-state version, which access compares
// across a protocol walk (0 when verdicts are impossible on this machine).
func (s *System) cohVersion() uint64 {
	if s.verdictCoh == nil {
		return 0
	}
	return s.verdictCoh.Version()
}

// seedVerdict records t's NACK on pa. The caller guarantees the walk that
// produced nackers changed no protocol state.
func (s *System) seedVerdict(t *Thread, op sig.Op, pa addr.PAddr, smt, broadcast bool, nackers []coherence.Nacker) {
	if !s.verdictsOn() {
		return
	}
	v := &t.verdict
	v.ok, v.smt, v.broadcast = true, smt, broadcast
	v.op, v.block, v.version = op, pa.Block(), s.verdictCoh.Version()
	v.nackers = append(v.nackers[:0], nackers...)
}

// replayRetry replays t's verdict for an access of pa if it still holds,
// reporting whether it did. A verdict holds for the retry of the access
// that seeded it while the version is unchanged; the block check also
// catches a page relocation of the requester's own page.
func (s *System) replayRetry(t *Thread, r *request, op sig.Op, pa addr.PAddr) bool {
	v := &t.verdict
	if !s.verdictsOn() || v.version != s.verdictCoh.Version() || v.block != pa.Block() || v.op != op {
		v.ok = false
		return false
	}
	if v.smt {
		s.stats.SMTConflicts++
	} else {
		s.verdictCoh.ReplayNACK(coherence.Request{Core: t.ctx.Core, Thread: t.ctx.Thread, Op: op, Addr: pa}, v.broadcast)
	}
	s.verdictReplays++
	s.resolveNACK(t, r, op, v.nackers)
	return true
}
