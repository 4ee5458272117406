package core

import (
	"testing"

	"logtmse/internal/addr"
	"logtmse/internal/coherence"
	"logtmse/internal/sig"
	"logtmse/internal/sim"
)

// smallParams returns a 4-core, 2-way-SMT machine with small caches so
// tests exercise victimization quickly.
func smallParams() Params {
	p := DefaultParams()
	p.Cores = 4
	p.GridW, p.GridH = 2, 2
	p.L1Bytes = 4 * 1024
	p.L2Bytes = 64 * 1024
	p.L2Banks = 4
	return p
}

func newSys(t *testing.T, p Params) *System {
	t.Helper()
	s, err := NewSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustRun(t *testing.T, s *System) {
	t.Helper()
	s.Run()
	if !s.AllDone() {
		t.Fatalf("threads stuck: %v", s.Stuck())
	}
}

func TestValidate(t *testing.T) {
	p := DefaultParams()
	if err := p.Validate(); err != nil {
		t.Errorf("default params invalid: %v", err)
	}
	if p.Contexts() != 32 {
		t.Errorf("default contexts = %d, want 32 (16 cores x 2 SMT)", p.Contexts())
	}
	bad := p
	bad.Cores = 0
	if bad.Validate() == nil {
		t.Errorf("zero cores accepted")
	}
	bad = p
	bad.Signature = sig.Config{Kind: sig.KindBitSelect, Bits: 3}
	if bad.Validate() == nil {
		t.Errorf("bad signature accepted")
	}
	bad = p
	bad.ThreadsPerCore = 0
	if bad.Validate() == nil {
		t.Errorf("zero SMT accepted")
	}
	bad = p
	bad.GridW = 0
	if bad.Validate() == nil {
		t.Errorf("zero grid accepted")
	}
	bad = p
	bad.LogFilterSets = 0
	if bad.Validate() == nil {
		t.Errorf("zero filter accepted")
	}
}

func TestNonTransactionalLoadStore(t *testing.T) {
	s := newSys(t, smallParams())
	pt := s.NewPageTable(1)
	var got uint64
	th, err := s.SpawnOn(0, 0, "t0", 1, pt, func(a *API) {
		a.Store(0x1000, 99)
		got = a.Load(0x1000)
	})
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, s)
	if got != 99 {
		t.Errorf("load = %d, want 99", got)
	}
	if !th.Done() {
		t.Errorf("thread not done")
	}
}

func TestTransactionCommitVisible(t *testing.T) {
	s := newSys(t, smallParams())
	pt := s.NewPageTable(1)
	var got uint64
	s.SpawnOn(0, 0, "t0", 1, pt, func(a *API) {
		a.Transaction(func() {
			a.Store(0x2000, 7)
			a.Store(0x2040, 8)
		})
		got = a.Load(0x2000) + a.Load(0x2040)
	})
	mustRun(t, s)
	if got != 15 {
		t.Errorf("sum = %d, want 15", got)
	}
	st := s.Stats()
	if st.Commits != 1 || st.Begins != 1 || st.Aborts != 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.WriteSetSum != 2 || st.WriteSetMax != 2 {
		t.Errorf("write-set stats wrong: sum=%d max=%d", st.WriteSetSum, st.WriteSetMax)
	}
	// Signature must be clear after commit (local commit releases isolation).
	if !s.Ctx(0, 0).Sig.Empty() {
		t.Errorf("signature not cleared at commit")
	}
}

func TestLogFilterSuppressesRedundantLogging(t *testing.T) {
	s := newSys(t, smallParams())
	pt := s.NewPageTable(1)
	s.SpawnOn(0, 0, "t0", 1, pt, func(a *API) {
		a.Transaction(func() {
			a.Store(0x3000, 1)
			a.Store(0x3008, 2) // same block
			a.Store(0x3000, 3) // same block again
			a.Store(0x3040, 4) // new block
		})
	})
	mustRun(t, s)
	st := s.Stats()
	if st.LogRecords != 2 {
		t.Errorf("LogRecords = %d, want 2 (two distinct blocks)", st.LogRecords)
	}
	if st.LogFilterHits != 2 {
		t.Errorf("LogFilterHits = %d, want 2", st.LogFilterHits)
	}
}

// Two threads increment a shared counter transactionally; the final value
// must equal the total number of increments (atomicity).
func TestAtomicCounter(t *testing.T) {
	s := newSys(t, smallParams())
	pt := s.NewPageTable(1)
	const perThread = 25
	counter := addr.VAddr(0x9000)
	worker := func(a *API) {
		for i := 0; i < perThread; i++ {
			a.Transaction(func() {
				v := a.Load(counter)
				a.Compute(10)
				a.Store(counter, v+1)
			})
		}
	}
	for i := 0; i < 4; i++ {
		if _, err := s.SpawnOn(i, 0, "w", 1, pt, worker); err != nil {
			t.Fatal(err)
		}
	}
	mustRun(t, s)
	if got := s.Mem.ReadWord(pt.Translate(counter)); got != 4*perThread {
		t.Errorf("counter = %d, want %d (lost updates!)", got, 4*perThread)
	}
	st := s.Stats()
	if st.Commits != 4*perThread {
		t.Errorf("commits = %d", st.Commits)
	}
	if st.Stalls == 0 {
		t.Errorf("expected contention stalls on a shared counter")
	}
}

// Classic AB-BA deadlock: LogTM's possible_cycle rule must abort one
// transaction, and both threads must eventually commit with a
// serializable outcome.
func TestDeadlockCycleResolvedByAbort(t *testing.T) {
	s := newSys(t, smallParams())
	pt := s.NewPageTable(1)
	A, B := addr.VAddr(0xa000), addr.VAddr(0xb000)
	s.SpawnOn(0, 0, "t1", 1, pt, func(a *API) {
		a.Transaction(func() {
			a.Store(A, a.Load(A)+1)
			a.Compute(2000)
			a.Store(B, a.Load(B)+1)
		})
	})
	s.SpawnOn(1, 0, "t2", 1, pt, func(a *API) {
		a.Transaction(func() {
			a.Store(B, a.Load(B)+10)
			a.Compute(2000)
			a.Store(A, a.Load(A)+10)
		})
	})
	mustRun(t, s)
	st := s.Stats()
	if st.Aborts == 0 {
		t.Errorf("AB-BA deadlock resolved without an abort?")
	}
	va := s.Mem.ReadWord(pt.Translate(A))
	vb := s.Mem.ReadWord(pt.Translate(B))
	if va != 11 || vb != 11 {
		t.Errorf("A=%d B=%d, want 11/11 (both increments applied)", va, vb)
	}
	if st.Commits != 2 {
		t.Errorf("commits = %d, want 2", st.Commits)
	}
}

// A reader must not observe a transaction's speculative state: its load
// completes only after the writer commits.
func TestIsolationUntilCommit(t *testing.T) {
	s := newSys(t, smallParams())
	pt := s.NewPageTable(1)
	X := addr.VAddr(0xc000)
	var commitAt, readAt uint64
	var readVal uint64
	s.SpawnOn(0, 0, "writer", 1, pt, func(a *API) {
		a.Transaction(func() {
			a.Store(X, 42)
			a.Compute(5000)
		})
		commitAt = uint64(a.Now())
	})
	s.SpawnOn(1, 0, "reader", 1, pt, func(a *API) {
		a.Compute(500) // let the writer start first
		readVal = a.Load(X)
		readAt = uint64(a.Now())
	})
	mustRun(t, s)
	if readVal != 42 {
		t.Errorf("reader saw %d, want 42", readVal)
	}
	if readAt < commitAt {
		t.Errorf("reader finished at %d before writer committed at %d (isolation broken)", readAt, commitAt)
	}
	if s.Stats().NonTxRetries == 0 {
		t.Errorf("reader should have been NACKed at least once")
	}
}

func TestAbortRestoresMemory(t *testing.T) {
	// Serializability under write-write conflicts: both transactions
	// add to A and B; every abort must roll back its partial writes, so
	// the final state reflects both additions exactly once.
	s := newSys(t, smallParams())
	pt := s.NewPageTable(1)
	A, B := addr.VAddr(0xd000), addr.VAddr(0xe000)
	run := func(add uint64, core int) {
		s.SpawnOn(core, 0, "t", 1, pt, func(a *API) {
			a.Transaction(func() {
				a.Store(A, a.Load(A)+add)
				a.Compute(3000)
				a.Store(B, a.Load(B)+add)
			})
		})
	}
	// Same access order would never deadlock; reverse one to force aborts.
	s.SpawnOn(0, 0, "fwd", 1, pt, func(a *API) {
		a.Transaction(func() {
			a.Store(A, a.Load(A)+1)
			a.Compute(3000)
			a.Store(B, a.Load(B)+1)
		})
	})
	s.SpawnOn(1, 0, "rev", 1, pt, func(a *API) {
		a.Transaction(func() {
			a.Store(B, a.Load(B)+100)
			a.Compute(3000)
			a.Store(A, a.Load(A)+100)
		})
	})
	_ = run
	mustRun(t, s)
	va := s.Mem.ReadWord(pt.Translate(A))
	vb := s.Mem.ReadWord(pt.Translate(B))
	if va != 101 || vb != 101 {
		t.Errorf("A=%d B=%d, want 101/101 (aborted writes must be undone)", va, vb)
	}
}

func TestNestedClosedCommit(t *testing.T) {
	s := newSys(t, smallParams())
	pt := s.NewPageTable(1)
	s.SpawnOn(0, 0, "t0", 1, pt, func(a *API) {
		a.Transaction(func() {
			a.Store(0x1000, 1)
			a.Transaction(func() {
				a.Store(0x2000, 2)
			})
			a.Store(0x3000, 3)
		})
	})
	mustRun(t, s)
	st := s.Stats()
	if st.Commits != 1 || st.NestedCommits != 1 || st.NestedBegins != 1 {
		t.Errorf("nesting stats = %+v", st)
	}
	for i, va := range []addr.VAddr{0x1000, 0x2000, 0x3000} {
		if got := s.Mem.ReadWord(pt.Translate(va)); got != uint64(i+1) {
			t.Errorf("mem[%v] = %d, want %d", va, got, i+1)
		}
	}
}

func TestOpenNestedCommitReleasesIsolation(t *testing.T) {
	s := newSys(t, smallParams())
	pt := s.NewPageTable(1)
	inner := addr.VAddr(0x5000)
	var readerAt, openCommitAt uint64
	s.SpawnOn(0, 0, "t0", 1, pt, func(a *API) {
		a.Transaction(func() {
			a.Store(0x4000, 1)
			a.OpenTransaction(func() {
				a.Store(inner, 55)
			})
			openCommitAt = uint64(a.Now())
			a.Compute(20000)
		})
	})
	var got uint64
	s.SpawnOn(1, 0, "reader", 1, pt, func(a *API) {
		a.Compute(1000)
		got = a.Load(inner)
		readerAt = uint64(a.Now())
	})
	mustRun(t, s)
	if got != 55 {
		t.Errorf("reader saw %d, want 55", got)
	}
	// The reader must be able to read the open-committed block long
	// before the outer transaction ends (isolation released).
	outerEnd := uint64(s.Stats().Cycles)
	if readerAt >= outerEnd {
		t.Errorf("open nesting did not release isolation early (read at %d, outer ended ~%d)", readerAt, outerEnd)
	}
	if openCommitAt == 0 || s.Stats().OpenCommits != 1 {
		t.Errorf("open commit not recorded: %+v", s.Stats())
	}
}

func TestSMTConflictDetected(t *testing.T) {
	s := newSys(t, smallParams())
	pt := s.NewPageTable(1)
	X := addr.VAddr(0xf000)
	// Both threads on core 0 — conflicts must be caught by the same-core
	// SMT check even when the block stays L1-resident.
	for th := 0; th < 2; th++ {
		s.SpawnOn(0, th, "t", 1, pt, func(a *API) {
			for i := 0; i < 10; i++ {
				a.Transaction(func() {
					v := a.Load(X)
					a.Compute(50)
					a.Store(X, v+1)
				})
			}
		})
	}
	mustRun(t, s)
	if got := s.Mem.ReadWord(pt.Translate(X)); got != 20 {
		t.Errorf("counter = %d, want 20", got)
	}
	if s.Stats().SMTConflicts == 0 {
		t.Errorf("no SMT conflicts recorded for same-core contention")
	}
}

func TestSummarySignatureBlocksAccess(t *testing.T) {
	s := newSys(t, smallParams())
	pt := s.NewPageTable(1)
	X := addr.VAddr(0x8000)
	pa := pt.Translate(X)
	sum := sig.MustSignature(s.P.Signature)
	sum.Insert(sig.Write, pa)
	s.InstallSummary(1, 0, sum)

	var loadDone uint64
	s.SpawnOn(1, 0, "t", 1, pt, func(a *API) {
		_ = a.Load(X) // conflicts with the "descheduled" write
		loadDone = uint64(a.Now())
	})
	// Clear the summary at cycle 10000 (as if the descheduled
	// transaction were rescheduled and committed).
	s.Engine.Schedule(10000, func() { s.InstallSummary(1, 0, nil) })
	mustRun(t, s)
	if loadDone < 10000 {
		t.Errorf("load completed at %d, before the summary cleared at 10000", loadDone)
	}
	if s.Stats().SummaryConflicts == 0 {
		t.Errorf("summary conflicts not counted")
	}
}

func TestSummaryConflictAbortsTransaction(t *testing.T) {
	s := newSys(t, smallParams())
	pt := s.NewPageTable(1)
	X := addr.VAddr(0x8000)
	sum := sig.MustSignature(s.P.Signature)
	sum.Insert(sig.Write, pt.Translate(X))
	s.InstallSummary(1, 0, sum)
	s.SpawnOn(1, 0, "t", 1, pt, func(a *API) {
		a.Transaction(func() {
			a.Store(0x7000, 1) // unrelated work that must be rolled back
			_ = a.Load(X)
		})
	})
	s.Engine.Schedule(20000, func() { s.InstallSummary(1, 0, nil) })
	mustRun(t, s)
	st := s.Stats()
	if st.Aborts == 0 {
		t.Errorf("in-transaction summary conflict must abort (stalling is insufficient)")
	}
	if st.Commits != 1 {
		t.Errorf("transaction never committed after summary cleared")
	}
}

func TestDeschedulePreservesTransaction(t *testing.T) {
	s := newSys(t, smallParams())
	pt := s.NewPageTable(1)
	X := addr.VAddr(0x6000)
	preempted := false
	s.PreemptCheck = func(t *Thread) bool {
		// Preempt the thread exactly once, mid-transaction.
		return !preempted && t.InTx()
	}
	var migrated *Thread
	s.OnPreempt = func(t *Thread) {
		preempted = true
		s.Deschedule(t)
		migrated = t
		// Reschedule on a different core 5000 cycles later (migration).
		s.Engine.Schedule(5000, func() {
			if err := s.ScheduleOn(t, 2, 0); err != nil {
				panic(err)
			}
			s.Resume(t)
		})
	}
	summaryRecomputed := false
	s.OnOuterCommit = func(t *Thread) { summaryRecomputed = true }

	s.SpawnOn(0, 0, "t", 1, pt, func(a *API) {
		a.Transaction(func() {
			a.Store(X, 5)
			a.Compute(10)
			a.Store(X+64, 6)
		})
	})
	mustRun(t, s)
	if migrated == nil {
		t.Fatalf("thread never preempted")
	}
	if got := s.Mem.ReadWord(pt.Translate(X)); got != 5 {
		t.Errorf("X = %d after migration commit, want 5", got)
	}
	if got := s.Mem.ReadWord(pt.Translate(X + 64)); got != 6 {
		t.Errorf("X+64 = %d, want 6", got)
	}
	if migrated.Context() == nil || migrated.Context().Core != 2 {
		t.Errorf("thread did not migrate to core 2")
	}
	if !summaryRecomputed {
		t.Errorf("outer commit after migration did not trap for summary recompute")
	}
	if s.Stats().Commits != 1 {
		t.Errorf("commits = %d", s.Stats().Commits)
	}
}

func TestASIDPreventsCrossProcessFalseConflicts(t *testing.T) {
	p := smallParams()
	p.Signature = sig.Config{Kind: sig.KindBitSelect, Bits: 64} // aliases heavily
	s := newSys(t, p)
	ptA := s.NewPageTable(1)

	// Put core 0 thread 0 in a transaction state manually via the hook
	// interfaces: spawn a transactional thread that holds a block.
	s.SpawnOn(0, 0, "pA", 1, ptA, func(a *API) {
		a.Transaction(func() {
			a.Store(0x1000, 1)
			a.Compute(100000)
		})
	})
	s.RunUntil(200) // let the transaction start and store

	pa := ptA.Translate(0x1000)
	// Same ASID: conflicting request is NACKed.
	same := s.SignatureCheck(0, coherence.Request{Core: 1, Op: sig.Read, Addr: pa, ASID: 1, Timestamp: 999 << 8})
	if len(same) == 0 {
		t.Fatalf("same-process conflict missed")
	}
	// Different ASID, same physical block pattern: must NOT nack even
	// though the 64-bit signature would alias.
	diff := s.SignatureCheck(0, coherence.Request{Core: 1, Op: sig.Read, Addr: pa, ASID: 2, Timestamp: 999 << 8})
	if len(diff) != 0 {
		t.Errorf("cross-process request NACKed despite ASID filter: %+v", diff)
	}
	s.Run()
}

func TestFalsePositiveClassification(t *testing.T) {
	p := smallParams()
	p.Signature = sig.Config{Kind: sig.KindBitSelect, Bits: 64}
	s := newSys(t, p)
	pt := s.NewPageTable(1)
	s.SpawnOn(0, 0, "t", 1, pt, func(a *API) {
		a.Transaction(func() {
			a.Store(0x0, 1) // block 0: signature bit 0
			a.Compute(100000)
		})
	})
	s.RunUntil(200)
	pa := pt.Translate(0x0)
	// An address 64 blocks away aliases to the same signature bit.
	alias := pa + addr.PAddr(64*addr.BlockBytes)
	ns := s.SignatureCheck(0, coherence.Request{Core: 1, Op: sig.Read, Addr: alias, ASID: 1, Timestamp: 999 << 8})
	if len(ns) == 0 {
		t.Fatalf("aliasing conflict not detected by BS_64")
	}
	if !ns[0].FalsePositive {
		t.Errorf("aliasing NACK not classified as false positive")
	}
	exact := s.SignatureCheck(0, coherence.Request{Core: 1, Op: sig.Read, Addr: pa, ASID: 1, Timestamp: 999 << 8})
	if len(exact) == 0 || exact[0].FalsePositive {
		t.Errorf("true conflict misclassified: %+v", exact)
	}
	s.Run()
}

func TestBarrierSynchronizes(t *testing.T) {
	s := newSys(t, smallParams())
	pt := s.NewPageTable(1)
	b := NewBarrier(3)
	var after [3]uint64
	for i := 0; i < 3; i++ {
		i := i
		s.SpawnOn(i, 0, "t", 1, pt, func(a *API) {
			a.Compute(sim.Cycle(100 * (i + 1)))
			a.Barrier(b)
			after[i] = uint64(a.Now())
		})
	}
	mustRun(t, s)
	if after[0] != after[1] || after[1] != after[2] {
		// All threads leave the barrier at the same cycle (+-0).
		t.Errorf("barrier release times differ: %v", after)
	}
}

func TestWorkUnitCounting(t *testing.T) {
	s := newSys(t, smallParams())
	pt := s.NewPageTable(1)
	s.SpawnOn(0, 0, "t", 1, pt, func(a *API) {
		for i := 0; i < 5; i++ {
			a.WorkUnit()
		}
	})
	mustRun(t, s)
	if s.Stats().WorkUnits != 5 {
		t.Errorf("work units = %d", s.Stats().WorkUnits)
	}
}

func TestExchangeIsAtomic(t *testing.T) {
	s := newSys(t, smallParams())
	pt := s.NewPageTable(1)
	lock := addr.VAddr(0x100)
	acquired := 0
	for c := 0; c < 4; c++ {
		s.SpawnOn(c, 0, "t", 1, pt, func(a *API) {
			for {
				if a.Exchange(lock, 1) == 0 {
					break
				}
				a.Compute(50)
			}
			acquired++ // engine serializes threads; no data race
			a.Compute(100)
			a.Store(lock, 0)
		})
	}
	mustRun(t, s)
	if acquired != 4 {
		t.Errorf("acquired = %d, want 4", acquired)
	}
}

func TestStatsDerived(t *testing.T) {
	st := Stats{Commits: 2, ReadSetSum: 10, WriteSetSum: 4, Stalls: 8, FalsePositiveStalls: 2}
	if st.ReadSetAvg() != 5 || st.WriteSetAvg() != 2 {
		t.Errorf("averages wrong: %f %f", st.ReadSetAvg(), st.WriteSetAvg())
	}
	if st.FalsePositivePct() != 25 {
		t.Errorf("fp%% = %f", st.FalsePositivePct())
	}
	zero := Stats{}
	if zero.ReadSetAvg() != 0 || zero.FalsePositivePct() != 0 {
		t.Errorf("zero stats not safe")
	}
}

func TestContentionModelSlowsHotBank(t *testing.T) {
	// The same hot-counter workload must take longer with router/bank
	// queueing enabled, and remain deterministic and atomic.
	run := func(contention bool) (uint64, uint64) {
		p := smallParams()
		p.ModelContention = contention
		s := newSys(t, p)
		pt := s.NewPageTable(1)
		counter := addr.VAddr(0x9000)
		for c := 0; c < 4; c++ {
			for th := 0; th < 2; th++ {
				s.SpawnOn(c, th, "w", 1, pt, func(a *API) {
					for i := 0; i < 20; i++ {
						a.Transaction(func() { a.FetchAdd(counter, 1) })
						a.Compute(30)
					}
				})
			}
		}
		mustRun(t, s)
		return uint64(s.Stats().Cycles), s.Mem.ReadWord(pt.Translate(counter))
	}
	offCycles, offCount := run(false)
	onCycles, onCount := run(true)
	if offCount != 160 || onCount != 160 {
		t.Fatalf("atomicity broken: %d / %d", offCount, onCount)
	}
	if onCycles <= offCycles {
		t.Errorf("contention model did not add latency: %d vs %d", onCycles, offCycles)
	}
	// Determinism with contention on.
	onCycles2, _ := run(true)
	if onCycles2 != onCycles {
		t.Errorf("contended run not deterministic: %d vs %d", onCycles, onCycles2)
	}
}

// TestRunUntilBehindClockKeepsClock: a bound already behind the clock (a
// warm-up that outlasted it) runs nothing and leaves the clock where it
// is — the engine's queue relies on a clock that only moves forward —
// and the run then finishes exactly as an uninterrupted one.
func TestRunUntilBehindClockKeepsClock(t *testing.T) {
	build := func() *System {
		s := newSys(t, smallParams())
		pt := s.NewPageTable(1)
		for c := 0; c < 2; c++ {
			if _, err := s.SpawnOn(c, 0, "t", 1, pt, func(a *API) {
				for i := 0; i < 40; i++ {
					a.Compute(100)
					a.Transaction(func() { a.FetchAdd(0x1000, 1) })
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	ref := build()
	mustRun(t, ref)

	s := build()
	s.RunUntil(2000)
	now := s.Engine.Now()
	if now == 0 {
		t.Fatal("setup: nothing ran before cycle 2000")
	}
	if got := s.RunUntil(now / 2); got != now || s.Engine.Now() != now {
		t.Fatalf("RunUntil(%d) at clock %d returned %d and left the clock at %d; want both %d",
			now/2, now, got, s.Engine.Now(), now)
	}
	mustRun(t, s)
	if s.Stats() != ref.Stats() {
		t.Errorf("interrupted run diverged:\n got %+v\nwant %+v", s.Stats(), ref.Stats())
	}
}

// TestSignatureCheckZeroAlloc guards the conflict scan: once its NACK
// scratch has grown, a SignatureCheck over every context with a live
// transaction — and the scan's other hooks — must not allocate, under
// both an exact and a bit-vector signature.
func TestSignatureCheckZeroAlloc(t *testing.T) {
	for _, c := range []sig.Config{
		{Kind: sig.KindPerfect},
		{Kind: sig.KindBitSelect, Bits: 2048},
	} {
		t.Run(c.String(), func(t *testing.T) {
			p := smallParams()
			p.Signature = c
			s := newSys(t, p)
			pt := s.NewPageTable(1)
			for core := 0; core < p.Cores; core++ {
				for th := 0; th < p.ThreadsPerCore; th++ {
					x := s.SpawnStepped("tx", 1, pt)
					if err := s.Place(x, core, th); err != nil {
						t.Fatal(err)
					}
					x.depth, x.ts = 1, uint64(core*p.ThreadsPerCore+th+1)
					for i := 0; i < 64; i++ {
						a := addr.PAddr(i * addr.BlockBytes)
						s.Ctx(core, th).Sig.Insert(sig.Read, a)
						x.exactInsert(sig.Read, a)
					}
					s.recountTx(core)
				}
			}
			i := 0
			if n := testing.AllocsPerRun(1000, func() {
				a := addr.PAddr((i % 128) * addr.BlockBytes)
				for core := 0; core < p.Cores; core++ {
					req := coherence.Request{Core: -1, Op: sig.Write, Addr: a, ASID: 1, Timestamp: 100}
					_ = s.SignatureCheck(core, req)
					_ = s.SignatureMember(core, req)
					_ = s.MayBeInSignature(core, a)
					_ = s.InExactSet(core, a)
				}
				i++
			}); n != 0 {
				t.Errorf("conflict scan allocated %.1f/op, want 0", n)
			}
			if got := len(s.SignatureCheck(0, coherence.Request{Core: -1, Op: sig.Write, ASID: 1})); got != p.ThreadsPerCore {
				t.Errorf("SignatureCheck NACKed with %d contexts, want %d", got, p.ThreadsPerCore)
			}
		})
	}
}
