// Package obs is the observability layer of the simulator: a
// zero-allocation probe interface (Sink) that the transactional engine
// and the coherence protocol emit structured lifecycle events through,
// the one observer port into the engine; a Chrome trace-event
// (catapult) JSON exporter for chrome://tracing / Perfetto timelines;
// and a one-line text form of each event (Event.String) for trace
// printing and postmortems. Aggregate counters live in core.Stats, and
// every distribution (durations, set sizes, log walks) is read from the
// event stream.
//
// The package depends only on the simulation clock and address types, so
// every layer of the model (core engine, coherence, network) can emit
// into it without import cycles. A nil Sink everywhere reproduces the
// un-instrumented simulator bit for bit: events are plain value structs,
// emission sites are guarded by nil checks, and the hot emit path
// performs no allocations (guarded by tests).
package obs

import (
	"fmt"

	"logtmse/internal/addr"
	"logtmse/internal/sim"
)

// Kind enumerates the lifecycle events the simulator emits.
type Kind uint8

// Event kinds.
const (
	// KindTxBegin marks a transaction begin; Depth is the resulting
	// nesting depth (1 = outermost). Arg carries the transaction's
	// timestamp (begin order, retained across aborts), which LogTM
	// conflict resolution orders by; Arg2 is 1 for an open-nested
	// begin, 0 otherwise.
	KindTxBegin Kind = iota
	// KindTxCommit marks a commit of the frame at Depth. For an
	// outermost commit Arg/Arg2 carry the read-/write-set sizes in
	// blocks.
	KindTxCommit
	// KindTxAbort marks an abort; Depth is the depth after unwinding
	// and Cause classifies the trigger. Arg carries the undo records
	// restored.
	KindTxAbort
	// KindNack is one NACKed coherence request by a transactional
	// requester; Addr is the conflicting block and Arg the NACKer count.
	// Arg2 packs the attribution classification of the NACK (see the
	// NackFlag constants): whether every NACKer matched only by
	// signature aliasing, whether any NACKer's signature outlived its
	// cache residency (sticky carryover), whether every NACKer was an
	// overflowed context, and whether the request was a write.
	KindNack
	// KindStallStart opens a stall episode: the first NACK of a memory
	// operation. Addr is the conflicting block, Arg the NACKer count.
	KindStallStart
	// KindStallEnd closes a stall episode: the stalled operation finally
	// succeeded (or the transaction aborted). Arg is the stall length in
	// cycles.
	KindStallEnd
	// KindLogWalkStart opens a software abort handler's undo-log walk.
	KindLogWalkStart
	// KindLogWalkEnd closes the walk; Arg is the undo records restored.
	KindLogWalkEnd
	// KindSummaryConflict is a memory reference hitting the summary
	// signature (conflict with a descheduled transaction); Addr is the
	// referenced block.
	KindSummaryConflict
	// KindStickyForward is a directory forward to a sticky owner — a
	// core whose L1 no longer caches the block but whose signature must
	// still be checked (§3.1). Core is the sticky owner, Arg the
	// requesting core.
	KindStickyForward
	// KindFaultInject is one applied fault-injection action; Arg carries
	// the fault class (internal/fault.Class) and Addr the block involved,
	// when the fault has one.
	KindFaultInject
	// KindConflictEdge is one who-blocks-whom edge of a NACK: the engine
	// emits one per NACKer, immediately after the KindNack event of the
	// same request (same Cycle, same TID). Addr is the conflicting
	// block, Arg the blocking transaction's software thread id
	// (EdgeNoTID when the blocker's context is unresolvable), and Arg2
	// packs the per-NACKer classification plus the blocker's hardware
	// context (see the NackFlag constants and EdgeBlocker).
	KindConflictEdge
	kindMax
)

// NackFlag bits carried in Arg2 of KindNack (request-level, aggregated
// over all NACKers) and KindConflictEdge (per-NACKer) events.
const (
	// NackAllFalse: the request's NACK was pure signature aliasing —
	// every NACKer matched by signature but none by exact set.
	// On a KindConflictEdge the bit is per-NACKer: this blocker's match
	// was a false positive.
	NackAllFalse uint64 = 1 << 0
	// NackSticky: a NACKer's signature matched a block its L1 no longer
	// caches — isolation state outliving cache residency, the sticky-
	// set/victimized-block carryover of §3.1/§4.2. On KindNack the bit
	// is set when ANY NACKer was sticky; on KindConflictEdge it is
	// per-NACKer.
	NackSticky uint64 = 1 << 1
	// NackAllOverflow: every NACKer was an overflowed CDCacheBits
	// context (per-NACKer on a KindConflictEdge).
	NackAllOverflow uint64 = 1 << 2
	// NackWrite: the NACKed request was a write (GETM/upgrade).
	NackWrite uint64 = 1 << 3
)

// EdgeNoTID is the Arg value of a KindConflictEdge whose blocking
// context could not be resolved to a software thread.
const EdgeNoTID = ^uint64(0)

// EdgeBlocker packs a blocker's hardware context into the high bits of
// a KindConflictEdge Arg2; DecodeEdgeBlocker recovers it.
func EdgeBlocker(core, thread int) uint64 {
	return uint64(uint16(core))<<16 | uint64(uint16(thread))<<32
}

// DecodeEdgeBlocker unpacks the blocking core and thread context from a
// KindConflictEdge Arg2.
func DecodeEdgeBlocker(arg2 uint64) (core, thread int) {
	return int(int16(arg2 >> 16)), int(int16(arg2 >> 32))
}

var kindNames = [...]string{
	KindTxBegin:         "tx-begin",
	KindTxCommit:        "tx-commit",
	KindTxAbort:         "tx-abort",
	KindNack:            "nack",
	KindStallStart:      "stall-start",
	KindStallEnd:        "stall-end",
	KindLogWalkStart:    "log-walk-start",
	KindLogWalkEnd:      "log-walk-end",
	KindSummaryConflict: "summary-conflict",
	KindStickyForward:   "sticky-forward",
	KindFaultInject:     "fault-inject",
	KindConflictEdge:    "conflict-edge",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// AbortCause classifies a KindTxAbort event.
type AbortCause uint8

// Abort causes.
const (
	// CauseNone: not an abort event.
	CauseNone AbortCause = iota
	// CauseConflict: lost LogTM conflict resolution (possible deadlock
	// cycle, or an always/younger-aborts policy).
	CauseConflict
	// CauseSummary: hit a descheduled transaction's summary signature.
	CauseSummary
	// CauseOverflow: every NACKer was an overflowed CDCacheBits context
	// (original LogTM's conservative overflow NACKs).
	CauseOverflow
	// CauseInjected: a fault-injected abort (chaos testing).
	CauseInjected
	// CauseStarvation: the bounded-retry starvation escalation aborted a
	// transaction whose stalled access exceeded Params.StarvationRetryLimit
	// consecutive NACKed retries (graceful degradation under livelock).
	CauseStarvation
)

func (c AbortCause) String() string {
	switch c {
	case CauseNone:
		return "none"
	case CauseConflict:
		return "conflict"
	case CauseSummary:
		return "summary"
	case CauseOverflow:
		return "overflow"
	case CauseInjected:
		return "injected"
	case CauseStarvation:
		return "starvation"
	default:
		return fmt.Sprintf("AbortCause(%d)", uint8(c))
	}
}

// Event is one structured lifecycle event. It is a plain value: emitting
// one allocates nothing.
type Event struct {
	Kind  Kind
	Cause AbortCause // KindTxAbort only
	// Cycle is the simulated time stamp.
	Cycle sim.Cycle
	// Core and Thread locate the hardware context (-1 when unknown,
	// e.g. protocol-level events that know only the core).
	Core   int
	Thread int
	// TID is the software thread id (-1 for protocol-level events).
	TID int
	// Depth is the transaction nesting depth at the event.
	Depth int
	// Addr is the physical block involved, when the event has one.
	Addr addr.PAddr
	// Arg and Arg2 are kind-specific payloads (see the Kind docs).
	Arg  uint64
	Arg2 uint64
}

// Sink receives the event stream. Implementations must not retain
// pointers into the event (it is a value) and must be cheap: Emit is
// called from the simulator's innermost loops.
type Sink interface {
	Emit(e Event)
}

// Recorder is a Sink that retains every event in order.
type Recorder struct {
	Events []Event
}

// Emit appends the event.
func (r *Recorder) Emit(e Event) { r.Events = append(r.Events, e) }

// Discard is a Sink that drops every event; it exists to measure the
// cost of instrumentation itself (the overhead-guard benchmark).
type Discard struct{}

// Emit drops the event.
func (Discard) Emit(Event) {}

// FuncSink adapts a function to the Sink interface.
type FuncSink func(Event)

// Emit calls the function.
func (f FuncSink) Emit(e Event) { f(e) }

// Tee fans one event stream out to several sinks (nils are skipped; a
// single non-nil sink is returned unwrapped).
func Tee(sinks ...Sink) Sink {
	var live []Sink
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return teeSink(live)
}

type teeSink []Sink

func (t teeSink) Emit(e Event) {
	for _, s := range t {
		s.Emit(e)
	}
}

// CoreOffset returns a Sink that shifts Core by off before forwarding —
// the multiple-CMP system uses it to translate chip-local core numbering
// to machine-global numbering. A nil base yields nil.
func CoreOffset(base Sink, off int) Sink {
	if base == nil {
		return nil
	}
	if off == 0 {
		return base
	}
	return offsetSink{base: base, off: off}
}

type offsetSink struct {
	base Sink
	off  int
}

func (o offsetSink) Emit(e Event) {
	if e.Core >= 0 {
		e.Core += o.off
	}
	o.base.Emit(e)
}
