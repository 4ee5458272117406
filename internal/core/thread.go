package core

import (
	"math/rand"

	"logtmse/internal/addr"
	"logtmse/internal/mem"
	"logtmse/internal/ptable"
	"logtmse/internal/sig"
	"logtmse/internal/sim"
	"logtmse/internal/txlog"
)

// Context is one hardware thread context: the per-context state Figure 1
// adds for LogTM-SE (signatures, summary signature, log filter) plus the
// currently scheduled software thread.
type Context struct {
	Core, Thread int
	Sig          *sig.Signature
	Summary      *sig.Signature
	Filter       *txlog.Filter
	Cur          *Thread // scheduled software thread, nil if idle

	// Original-LogTM state (CDCacheBits): R/W bits per cached block and
	// the conservative overflow flag set when a marked line is evicted.
	rwRead   map[addr.PAddr]bool
	rwWrite  map[addr.PAddr]bool
	overflow bool

	// grown counts the growth of the context's signature and exact set
	// (see retryVerdict); host bookkeeping that only ever increases.
	grown uint64
}

// Overflowed reports whether the context's original-LogTM overflow flag
// is set (CDCacheBits mode only).
func (c *Context) Overflowed() bool { return c.overflow }

// reqKind enumerates the operations a thread can request of the engine.
type reqKind int

const (
	reqLoad reqKind = iota
	reqStore
	reqExchange // atomic swap (lock primitive)
	reqFetchAdd // atomic add, returns old value
	reqCompute
	reqBegin
	reqCommit
	reqWorkUnit
	reqBarrier
	reqYield
	reqDone
)

type request struct {
	kind    reqKind
	va      addr.VAddr
	val     uint64
	cycles  sim.Cycle
	open    bool
	barrier *Barrier
	// retrying marks a re-issued request after a NACK; stall *episodes*
	// (Table 3's conflict metric) count only the first NACK of an access.
	retrying bool
}

type response struct {
	val     uint64
	abort   bool
	toDepth int // on abort: unwind transactions deeper than this depth
	depth   int // on begin: resulting nesting depth
}

// txAbort is the panic value used to unwind a thread's call stack to the
// transaction wrapper whose frame the hardware abort discarded.
type txAbort struct{ toDepth int }

// exactSnap snapshots the exact read/write sets at a nested begin so an
// abort or open commit can restore them (they mirror the saved signature).
type exactSnap struct {
	set exactSet
}

// Exact read/write flag bits stored per block in exactSet.
const (
	exactR uint8 = 1 << iota
	exactW
)

// exactSet is a transaction's exact footprint at block granularity: R/W
// flag bits per block in page-granular open-addressed storage
// (internal/ptable), with per-set block counts. It replaces a pair of
// map[addr.PAddr]bool on the access hot path: insert and conflict do one
// page-hash probe instead of a full map hash each, and commit-time
// clearing reuses the page storage.
type exactSet struct {
	tab    ptable.Table[uint8]
	reads  int // blocks with exactR set
	writes int // blocks with exactW set
}

// insert adds a to the read or write set, reporting whether the set grew.
func (e *exactSet) insert(o sig.Op, a addr.PAddr) bool {
	v, _ := e.tab.GetOrCreate(a.Block())
	if o == sig.Read {
		if *v&exactR == 0 {
			*v |= exactR
			e.reads++
			return true
		}
	} else if *v&exactW == 0 {
		*v |= exactW
		e.writes++
		return true
	}
	return false
}

// conflict applies the exact-set conflict rule: a read conflicts with the
// write set; a write conflicts with either set.
func (e *exactSet) conflict(o sig.Op, a addr.PAddr) bool {
	v := e.tab.Get(a.Block())
	if v == nil {
		return false
	}
	if o == sig.Read {
		return *v&exactW != 0
	}
	return *v != 0
}

func (e *exactSet) clear() {
	e.tab.Clear()
	e.reads, e.writes = 0, 0
}

func (e *exactSet) clone() exactSet {
	return exactSet{tab: e.tab.Clone(), reads: e.reads, writes: e.writes}
}

// maps materializes the set as read/write maps for diagnostic consumers
// (invariant oracles, summary recompute, hung-run reports).
func (e *exactSet) maps() (read, write map[addr.PAddr]bool) {
	read = make(map[addr.PAddr]bool, e.reads)
	write = make(map[addr.PAddr]bool, e.writes)
	e.tab.ForEach(func(a addr.PAddr, v *uint8) {
		if *v&exactR != 0 {
			read[a] = true
		}
		if *v&exactW != 0 {
			write[a] = true
		}
	})
	return read, write
}

// relocate rewrites blocks on the page at oldBase to newBase.
func (e *exactSet) relocate(oldBase, newBase addr.PAddr) {
	type mv struct {
		a addr.PAddr
		v uint8
	}
	var moved []mv
	e.tab.ForEach(func(a addr.PAddr, v *uint8) {
		if a >= oldBase && a < oldBase+addr.PageBytes {
			moved = append(moved, mv{a, *v})
		}
	})
	for _, m := range moved {
		e.tab.Delete(m.a)
		nv, _ := e.tab.GetOrCreate(newBase + (m.a - oldBase))
		*nv |= m.v
	}
}

// Thread is a software thread: virtualizable state only (log, page table,
// transaction bookkeeping). It runs on at most one Context at a time and
// can be descheduled, migrated and rescheduled by the OS model.
type Thread struct {
	ID   int
	Name string
	ASID addr.ASID
	PT   *mem.PageTable
	Log  txlog.Log

	// Transaction state.
	depth         int
	ts            uint64 // timestamp (begin order); 0 = not in a transaction
	possibleCycle bool
	exact         exactSet
	exactStack    []exactSnap
	abortStreak   int // consecutive aborts without progress (escalation)
	consecAborts  int // consecutive aborts of the whole transaction (backoff)

	// Observability state: the open stall episode (first NACK of a
	// memory operation that has not yet been granted or aborted).
	stalling   bool
	stallSince sim.Cycle
	// stallRetries counts NACKed retries in the current stall episode
	// (starvation escalation); waitingOn records the software thread ids
	// of the episode's last NACKers (wait-for diagnosis).
	stallRetries int
	waitingOn    []int

	// pendingAbort requests an asynchronous (fault-injected) abort; it is
	// honored only at the thread's own continuation boundaries — the top
	// of a memory access (including NACK retries) and the commit point —
	// never from another thread's event, so the single-continuation
	// invariant the engine relies on is preserved.
	pendingAbort bool
	// abortEpoch counts aborts. A scheduled retry records it and panics
	// if it changed before the retry runs: a stale retry racing a new
	// transaction would be an engine bug (aborts may only run from the
	// aborting thread's own continuation, so no retry can be in flight).
	abortEpoch uint64

	// A thread has exactly one continuation in flight, so a NACKed or
	// summary-blocked request is parked in retryReq/retryOp/retryEpoch
	// and the lane queues the thread's ID. The request is copied in
	// once; retries pass &retryReq down the access path, so a stall that
	// NACKs again never copies it (see System.park).
	retryReq   request
	retryOp    sig.Op
	retryEpoch uint64
	// verdict memoizes the last NACK so an unchanged retry can replay it
	// (see retryVerdict). Host bookkeeping only; snapshots skip it.
	verdict retryVerdict

	// finishResp is the response the completion continuation delivers
	// (see System.finish). Valid because a thread has at most one
	// continuation in flight.
	finishResp response

	// escaped marks an active escape action: accesses execute
	// non-transactionally (no signature insert, no logging, survive
	// aborts), as Nested LogTM's escape actions do for system calls,
	// I/O and allocation inside transactions (used by BerkeleyDB, §6.2).
	escaped bool
	// escapedOp marks that the stepped request in flight raised escaped
	// (IssueFetchAdd); delivery of its response clears both, mirroring
	// the interpreted Escape's deferred clear.
	escapedOp bool

	// SavedSig holds the signature saved to the log when the OS
	// descheduled this thread mid-transaction (§4.1).
	SavedSig *sig.Signature
	// NeedsSummaryUpdate marks a rescheduled thread whose outer commit
	// must trap to the OS to recompute summary signatures.
	NeedsSummaryUpdate bool

	// Pending-continuation descriptor: while the thread's single
	// continuation is queued on the lane, pendKind records which it is
	// and pendAt/pendKey its queue position. Snapshot capture records
	// these three fields; a restore re-counts the continuation at its
	// original ordering key (sim.Engine.ReserveRaw) and pushes it back
	// on the lane, reproducing the queues bit-identically. Cleared at
	// the top of each continuation (System.runCont). A storm step
	// leaves pendAt/pendKey behind its cell until the flush that
	// charges it (System.flushStorm).
	pendKind uint8
	pendAt   sim.Cycle
	pendKey  uint64

	ctx *Context
	// wake is the engine-ownership handoff: a thread parked in pump (or
	// at startup) resumes when the current engine owner sends on it (see
	// System.pump). respReady marks that finishResp holds the response
	// the thread is waiting for.
	wake      chan struct{}
	respReady bool
	done      bool
	parked    bool
	pending   *request // request held while descheduled
	nowCache  sim.Cycle
	rngSeed   int64 // lazily seeds rng on first Rand call
	rngSrc    *sim.CountingSource
	rng       *rand.Rand

	// stepped-thread state (internal/txvm): stepFn consumes responses in
	// place of a goroutine parked in pump.
	stepped bool
	stepFn  StepFunc

	// Per-thread statistics.
	Commits   uint64
	Aborts    uint64
	Stalls    uint64
	WorkUnits uint64
}

// Continuation kinds recorded in Thread.pendKind.
const (
	pendNone    uint8 = iota
	pendStart         // Start's kickoff (thread has not run yet)
	pendFinish        // finish's completion continuation
	pendRetry         // scheduleRetry's NACK retry
	pendBackoff       // summaryConflict's backoff: re-walks the parked request
)

// InTx reports whether the thread has an active transaction.
func (t *Thread) InTx() bool { return t.depth > 0 }

// Depth reports the current nesting depth.
func (t *Thread) Depth() int { return t.depth }

// Timestamp reports the transaction timestamp (0 outside a transaction).
func (t *Thread) Timestamp() uint64 { return t.ts }

// Context returns the hardware context the thread runs on (nil if
// descheduled).
func (t *Thread) Context() *Context { return t.ctx }

// ReadSetSize reports the exact read-set size (blocks) of the active
// transaction.
func (t *Thread) ReadSetSize() int { return t.exact.reads }

// WriteSetSize reports the exact write-set size (blocks) of the active
// transaction.
func (t *Thread) WriteSetSize() int { return t.exact.writes }

// Done reports whether the thread function has returned.
func (t *Thread) Done() bool { return t.done }

// ExactSets materializes the transaction's exact read/write sets (block
// granularity) as maps for the invariant oracles and diagnostics. The
// returned maps are fresh copies.
func (t *Thread) ExactSets() (read, write map[addr.PAddr]bool) {
	return t.exact.maps()
}

// RelocatePage rewrites the thread's exact read/write sets (including the
// nested-transaction snapshots) from the old physical page to the new
// one. The OS model calls it alongside the §4.2 signature re-insertion so
// the exact sets keep mirroring the signatures across a page relocation.
func (t *Thread) RelocatePage(oldBase, newBase addr.PAddr) {
	oldBase, newBase = oldBase.Page(), newBase.Page()
	t.exact.relocate(oldBase, newBase)
	for i := range t.exactStack {
		t.exactStack[i].set.relocate(oldBase, newBase)
	}
}

func (t *Thread) exactInsert(o sig.Op, a addr.PAddr) bool {
	return t.exact.insert(o, a)
}

func (t *Thread) exactConflict(o sig.Op, a addr.PAddr) bool {
	return t.exact.conflict(o, a)
}

// Barrier synchronizes n threads; construct with NewBarrier.
type Barrier struct {
	n       int
	arrived int
	waiting []*Thread
}

// NewBarrier returns a reusable barrier for n threads.
func NewBarrier(n int) *Barrier { return &Barrier{n: n} }

// API is the interface workload code uses to interact with the simulated
// machine. All methods block (in simulated time) until the operation
// completes; they may only be called from the thread's own function.
type API struct {
	t   *Thread
	sys *System
}

// roundTrip issues one request and waits for its response. The calling
// goroutine owns the engine at this point (it was handed ownership when
// its previous response became ready), so it dispatches the request
// inline and then drives the event loop itself until the response is
// ready — no goroutine switch at all when consecutive events belong to
// this thread, and a single direct switch otherwise.
func (a *API) roundTrip(r request) response {
	a.sys.dispatch(a.t, r)
	return a.sys.pump(a.t)
}

func (a *API) memOp(r request) uint64 {
	resp := a.roundTrip(r)
	if resp.abort {
		panic(txAbort{toDepth: resp.toDepth})
	}
	return resp.val
}

// Load reads the word at virtual address va.
func (a *API) Load(va addr.VAddr) uint64 {
	return a.memOp(request{kind: reqLoad, va: va})
}

// Store writes the word at virtual address va.
func (a *API) Store(va addr.VAddr, v uint64) {
	a.memOp(request{kind: reqStore, va: va, val: v})
}

// Exchange atomically swaps the word at va with v and returns the old
// value (the lock primitive of the baseline).
func (a *API) Exchange(va addr.VAddr, v uint64) uint64 {
	return a.memOp(request{kind: reqExchange, va: va, val: v})
}

// FetchAdd atomically adds v to the word at va and returns the previous
// value. Inside a transaction it behaves as a store from the first cycle
// (the block enters the write set directly), avoiding the read-then-
// upgrade window a Load/Store pair would create on contended counters.
func (a *API) FetchAdd(va addr.VAddr, v uint64) uint64 {
	return a.memOp(request{kind: reqFetchAdd, va: va, val: v})
}

// Compute burns n cycles of local computation.
func (a *API) Compute(n sim.Cycle) {
	if n == 0 {
		return
	}
	a.roundTrip(request{kind: reqCompute, cycles: n})
}

// WorkUnit marks the completion of one unit of work (throughput metric).
func (a *API) WorkUnit() {
	a.roundTrip(request{kind: reqWorkUnit})
}

// Barrier blocks until all b.n threads have arrived.
func (a *API) Barrier(b *Barrier) {
	a.roundTrip(request{kind: reqBarrier, barrier: b})
}

// Yield offers the OS model a preemption point outside memory operations.
func (a *API) Yield() {
	a.roundTrip(request{kind: reqYield})
}

// Now returns the simulated cycle as of the thread's last operation.
func (a *API) Now() sim.Cycle { return a.t.nowCache }

// Rand returns the thread's deterministic random source.
func (a *API) Rand() *rand.Rand { return a.t.Rand() }

// Rand returns the thread's deterministic random source. The compiled
// tape executor draws from it in exactly the order the interpreted
// body would, so both paths consume one identical stream.
func (t *Thread) Rand() *rand.Rand {
	// Seeding a math/rand source fills a 607-word feedback register —
	// expensive enough to dominate short runs — so the source is built
	// on first use. The stream is identical to an eagerly seeded one.
	// The counting wrapper makes (seed, draw count) the complete RNG
	// state, so a snapshot stores one integer and a restore replays it.
	if t.rng == nil {
		t.rngSrc = sim.NewCountingSource(t.rngSeed)
		t.rng = rand.New(t.rngSrc)
	}
	return t.rng
}

// Thread returns the underlying thread (for identity and stats).
func (a *API) Thread() *Thread { return a.t }

// Escape runs fn as a non-transactional escape action inside (or
// outside) a transaction: its loads and stores bypass the thread's own
// conflict detection and version management — they are not added to the
// signature, not logged, and survive a subsequent abort. Remote
// transactions still isolate their own data from escaped accesses (the
// accesses remain ordinary coherence requests). Transactions must not
// begin or commit inside an escape action.
func (a *API) Escape(fn func()) {
	if a.t.escaped {
		fn() // already escaped; idempotent
		return
	}
	a.t.escaped = true
	defer func() { a.t.escaped = false }()
	fn()
}

// Transaction runs fn as a closed transaction, retrying on abort. Nested
// calls create closed nested transactions with partial aborts: an abort
// of the inner transaction re-runs only fn.
func (a *API) Transaction(fn func()) { a.transaction(fn, false) }

// OpenTransaction runs fn as an open nested transaction: its commit
// releases isolation on blocks only it accessed and its updates are not
// undone by an ancestor's abort.
func (a *API) OpenTransaction(fn func()) { a.transaction(fn, true) }

func (a *API) transaction(fn func(), open bool) {
	if a.t.escaped {
		panic("core: transaction begin inside an escape action: " + a.t.Name)
	}
	if open && a.sys.P.CD == CDCacheBits {
		panic("core: original LogTM does not support open nesting: " + a.t.Name)
	}
	for {
		begin := a.roundTrip(request{kind: reqBegin, open: open})
		myDepth := begin.depth
		if a.run(fn, myDepth) {
			resp := a.roundTrip(request{kind: reqCommit})
			if !resp.abort {
				return
			}
			// Aborted at the commit point (an injected abort can land
			// there): behave exactly like an abort inside fn.
			if resp.toDepth < myDepth-1 {
				panic(txAbort{toDepth: resp.toDepth})
			}
			continue
		}
		// Aborted: the engine already unwound the log to (at most) this
		// frame; retry from the register checkpoint (= re-run fn).
	}
}

// run executes fn, converting an abort panic targeted at this frame into
// a false return; aborts targeting shallower frames keep unwinding.
func (a *API) run(fn func(), myDepth int) (ok bool) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		ab, is := r.(txAbort)
		if !is {
			panic(r)
		}
		if ab.toDepth < myDepth-1 {
			panic(r) // outer frames were also discarded; keep unwinding
		}
		ok = false
	}()
	fn()
	return true
}
