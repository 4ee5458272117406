package core

import (
	"logtmse/internal/addr"
	"logtmse/internal/mem"
	"logtmse/internal/sim"
)

// Stepped threads: the goroutine-free execution path for compiled
// workload tapes (internal/txvm).
//
// An interpreted thread is a goroutine parked on a wake channel; every
// response hands it engine ownership (System.pump), which costs a
// channel handoff whenever consecutive events belong to different
// threads — the common case with 32 interleaved contexts. A stepped
// thread has no goroutine at all: its StepFunc runs inline from the
// completion event, consumes the response, and dispatches the next
// request before the event returns. That is the same position in the
// event stream where an interpreted thread's next dispatch lands
// (after the completion event executes, before the next event pops),
// so the Engine.Schedule sequence — and with it every engine RNG draw
// and Stats counter — is bit-identical between the two paths.

// OpResult is the response delivered to a stepped thread's StepFunc:
// the loaded/old value for memory operations, or an abort directive
// naming the depth the engine unwound the transaction to.
type OpResult struct {
	Val     uint64
	Abort   bool
	ToDepth int // on abort: transactions deeper than this were discarded
	Depth   int // on begin: resulting nesting depth
}

// StepFunc consumes one response and issues the thread's next request
// (or none, when the tape is done). The zero OpResult is passed for the
// initial step at Start, before any request has been issued.
type StepFunc func(OpResult)

// SpawnStepped creates a stepped software thread. Unlike Spawn it
// starts no goroutine; the caller must BindStep a StepFunc before
// Start. Thread IDs and RNG seeds are assigned exactly as Spawn does,
// so a stepped spawn sequence is interchangeable with an interpreted
// one.
func (s *System) SpawnStepped(name string, asid addr.ASID, pt *mem.PageTable) *Thread {
	t := &Thread{
		ID:      len(s.threads),
		Name:    name,
		ASID:    asid,
		PT:      pt,
		rngSeed: s.P.Seed*1_000_003 + int64(len(s.threads)),
		stepped: true,
	}
	s.threads = append(s.threads, t)
	s.reserveThreads(len(s.threads))
	return t
}

// BindStep installs the step continuation of a stepped thread.
func (t *Thread) BindStep(fn StepFunc) { t.stepFn = fn }

// The Issue* methods dispatch one request on behalf of a stepped
// thread. The response arrives at its StepFunc after the simulated
// latency; exactly one request may be in flight per thread.

// IssueLoad issues a word read at va.
func (s *System) IssueLoad(t *Thread, va addr.VAddr) {
	s.dispatch(t, request{kind: reqLoad, va: va})
}

// IssueStore issues a word write at va.
func (s *System) IssueStore(t *Thread, va addr.VAddr, v uint64) {
	s.dispatch(t, request{kind: reqStore, va: va, val: v})
}

// IssueExchange issues an atomic swap at va.
func (s *System) IssueExchange(t *Thread, va addr.VAddr, v uint64) {
	s.dispatch(t, request{kind: reqExchange, va: va, val: v})
}

// IssueFetchAdd issues an atomic fetch-add at va. With escaped set the
// access runs as a non-transactional escape action (API.Escape): the
// flag is raised before dispatch and cleared when the response is
// delivered to the StepFunc — the same lifetime the interpreted
// Escape's defer gives it, NACK retries included.
func (s *System) IssueFetchAdd(t *Thread, va addr.VAddr, v uint64, escaped bool) {
	if escaped && !t.escaped {
		t.escaped = true
		t.escapedOp = true
	}
	s.dispatch(t, request{kind: reqFetchAdd, va: va, val: v})
}

// IssueCompute burns n > 0 cycles (the interpreted API skips n == 0
// without a dispatch; callers must do the same to stay bit-identical).
func (s *System) IssueCompute(t *Thread, n sim.Cycle) {
	s.dispatch(t, request{kind: reqCompute, cycles: n})
}

// IssueBegin issues a transaction begin (open nesting when open).
func (s *System) IssueBegin(t *Thread, open bool) {
	s.dispatch(t, request{kind: reqBegin, open: open})
}

// IssueCommit issues a commit of the innermost transaction.
func (s *System) IssueCommit(t *Thread) {
	s.dispatch(t, request{kind: reqCommit})
}

// IssueWorkUnit marks one unit of work complete.
func (s *System) IssueWorkUnit(t *Thread) {
	s.dispatch(t, request{kind: reqWorkUnit})
}

// IssueBarrier parks the thread on b until all parties arrive.
func (s *System) IssueBarrier(t *Thread, b *Barrier) {
	s.dispatch(t, request{kind: reqBarrier, barrier: b})
}

// IssueDone retires the thread; no response is delivered.
func (s *System) IssueDone(t *Thread) {
	s.dispatch(t, request{kind: reqDone})
}
