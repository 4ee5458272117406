package core

import (
	"testing"

	"logtmse/internal/addr"
	"logtmse/internal/obs"
	"logtmse/internal/sim"
)

// verdictLive reports whether t's next NACK retry would be replayed from
// its verdict rather than walked.
func verdictLive(s *System, t *Thread) bool {
	return t.verdict.ok && t.verdict.version == s.verdictCoh.Version()
}

// runWithAndWithoutVerdicts builds the same scenario twice, once with a
// sink attached (every retry walks) and run to completion, then bare
// (verdicts on) and handed back unrun, so threads the scenario records
// are the bare system's. The caller drives the bare system and compares
// with requireSameRun.
func runWithAndWithoutVerdicts(t *testing.T, p Params, build func(s *System)) (bare, ref *System) {
	t.Helper()
	withSink := p
	withSink.Sink = &obs.Recorder{}
	ref = newSys(t, withSink)
	build(ref)
	finishBounded(t, ref)
	if ref.verdictReplays != 0 {
		t.Fatalf("sink-attached run replayed %d retries", ref.verdictReplays)
	}
	bare = newSys(t, p)
	if bare.verdictCoh == nil {
		t.Fatalf("verdicts unavailable on the bare machine")
	}
	build(bare)
	return bare, ref
}

// finishBounded runs s to completion; a stale replay would keep a thread
// stalled forever, so the run is bounded and fails instead of hanging.
func finishBounded(t *testing.T, s *System) {
	t.Helper()
	s.RunUntil(5_000_000)
	if !s.AllDone() {
		t.Fatalf("threads stuck: %v", s.Stuck())
	}
}

// requireSameRun finishes the bare run and compares it with the walked
// reference.
func requireSameRun(t *testing.T, bare, ref *System) {
	t.Helper()
	finishBounded(t, bare)
	if bare.Stats() != ref.Stats() {
		t.Errorf("verdict replay changed Stats:\nbare %+v\nwalk %+v", bare.Stats(), ref.Stats())
	}
	if bare.verdictReplays == 0 {
		t.Errorf("no retry was replayed")
	}
}

// stepUntil runs s one cycle at a time until done holds and reports
// whether waiter held a live verdict, and which version it was, at the
// step before.
func stepUntil(t *testing.T, s *System, waiter *Thread, done func() bool) (live bool, version uint64) {
	t.Helper()
	for c := s.Engine.Now() + 1; ; c++ {
		if c > 200_000 {
			t.Fatalf("condition never reached")
		}
		live, version = verdictLive(s, waiter), s.verdictCoh.Version()
		s.RunUntil(c)
		if done() {
			return live, version
		}
	}
}

// TestNackerChangesInvalidateWaiterVerdicts: while a waiter stalls on a
// block, its verdict stays live; the NACKer's signature insert on an L1
// hit, its commit and its abort each advance the version past it.
func TestNackerChangesInvalidateWaiterVerdicts(t *testing.T) {
	X, Y, W := addr.VAddr(0xa000), addr.VAddr(0xb000), addr.VAddr(0xc000)
	cases := []struct {
		name   string
		holder func(s *System) func(a *API)
		done   func(h *Thread) bool
	}{
		{"L1-hit signature insert", func(*System) func(a *API) {
			return func(a *API) {
				a.Load(Y) // cached before the transaction: the later load hits
				a.Transaction(func() {
					a.Store(X, 1)
					a.Compute(3000)
					a.Load(Y)
					a.Compute(3000)
				})
			}
		}, func(h *Thread) bool { return h.ReadSetSize() > 0 }},
		{"commit", func(*System) func(a *API) {
			return func(a *API) {
				a.Transaction(func() {
					a.Store(X, 1)
					a.Compute(3000)
				})
				a.Compute(3000)
			}
		}, func(h *Thread) bool { return h.Commits > 0 }},
		{"abort", func(s *System) func(a *API) {
			return func(a *API) {
				aborted := false
				a.Transaction(func() {
					a.Store(X, 1)
					a.Compute(3000)
					if !aborted {
						aborted = s.InjectAbort(a.Thread())
					}
					a.Load(W)
				})
			}
		}, func(h *Thread) bool { return h.Aborts > 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var holder, waiter *Thread
			bare, ref := runWithAndWithoutVerdicts(t, smallParams(), func(s *System) {
				pt := s.NewPageTable(1)
				h, err := s.SpawnOn(0, 0, "holder", 1, pt, tc.holder(s))
				if err != nil {
					t.Fatal(err)
				}
				w, err := s.SpawnOn(1, 0, "waiter", 1, pt, func(a *API) {
					a.Compute(1500)
					a.Transaction(func() { a.Store(X, 2) })
				})
				if err != nil {
					t.Fatal(err)
				}
				holder, waiter = h, w
			})
			live, version := stepUntil(t, bare, waiter, func() bool { return tc.done(holder) })
			if !live {
				t.Fatalf("waiter held no live verdict before the holder's %s", tc.name)
			}
			if bare.verdictCoh.Version() == version {
				t.Errorf("holder's %s left the waiter's verdict live", tc.name)
			}
			requireSameRun(t, bare, ref)
		})
	}
}

// TestRebuildNACKSeedsNoVerdict: the first NACK on a block whose
// directory entry the L2 evicted comes from the rebuild broadcast, which
// creates the entry on its way; only the check-all NACK after it may be
// replayed.
func TestRebuildNACKSeedsNoVerdict(t *testing.T) {
	p := smallParams()
	p.L2Bytes, p.L2Ways = 16*1024, 4
	X := addr.VAddr(0x10000)
	const issue = sim.Cycle(400_000)
	var waiter *Thread
	var pa addr.PAddr
	bare, ref := runWithAndWithoutVerdicts(t, p, func(s *System) {
		pt := s.NewPageTable(1)
		pa = pt.Translate(X).Block()
		if _, err := s.SpawnOn(0, 0, "holder", 1, pt, func(a *API) {
			a.Transaction(func() {
				a.Store(X, 1)
				a.Compute(2 * issue)
			})
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.SpawnOn(2, 0, "thrasher", 1, pt, func(a *API) {
			a.Compute(1000)
			for i := 1; i <= 512; i++ { // twice the L2: X's entry is evicted
				a.Load(X + addr.VAddr(i*addr.BlockBytes))
			}
		}); err != nil {
			t.Fatal(err)
		}
		w, err := s.SpawnOn(1, 0, "waiter", 1, pt, func(a *API) {
			a.Compute(issue)
			a.Transaction(func() { a.Store(X, 2) })
		})
		if err != nil {
			t.Fatal(err)
		}
		waiter = w
	})
	coh := bare.verdictCoh
	bare.RunUntil(issue - 1)
	if coh.HasDirEntry(pa) {
		t.Fatalf("setup: X's directory entry survived the thrasher")
	}
	// The store issues once the begin completes; its first retry comes
	// StallRetryLat or more cycles later.
	bare.RunUntil(issue + p.BeginLat + 1)
	if _, _, _, checkAll := coh.DirState(pa); !waiter.stalling || !checkAll {
		t.Fatalf("setup: waiter's first access was not a rebuild NACK")
	}
	if waiter.verdict.ok {
		t.Errorf("rebuild NACK seeded a verdict")
	}
	bare.RunUntil(issue + 200)
	if !verdictLive(bare, waiter) {
		t.Errorf("check-all NACK seeded no verdict")
	}
	requireSameRun(t, bare, ref)
}

// TestPossibleCycleAbortOnReplayedRetry: a NACKer's possible_cycle flag
// is set by another thread's walk, which bumps nothing, so the abort it
// licenses must still fire when the stalled thread's retry is replayed.
func TestPossibleCycleAbortOnReplayedRetry(t *testing.T) {
	p := smallParams()
	p.Resolution = ResolveStallAbort
	A, B := addr.VAddr(0xa000), addr.VAddr(0xb000)
	var young *Thread
	bare, ref := runWithAndWithoutVerdicts(t, p, func(s *System) {
		pt := s.NewPageTable(1)
		if _, err := s.SpawnOn(0, 0, "old", 1, pt, func(a *API) {
			a.Transaction(func() {
				a.Store(A, a.Load(A)+1)
				a.Compute(3000)
				a.Store(B, a.Load(B)+1)
			})
		}); err != nil {
			t.Fatal(err)
		}
		y, err := s.SpawnOn(1, 0, "young", 1, pt, func(a *API) {
			a.Compute(100)
			a.Transaction(func() {
				a.Store(B, a.Load(B)+10)
				a.Compute(500)
				a.Store(A, a.Load(A)+10)
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		young = y
	})
	flagged := false // young.possibleCycle one step before its abort
	live, _ := stepUntil(t, bare, young, func() bool {
		if young.Aborts > 0 {
			return true
		}
		flagged = young.possibleCycle
		return false
	})
	if !live || !flagged {
		t.Errorf("young's aborting retry was not a replay with possible_cycle set (live %v, flagged %v)", live, flagged)
	}
	if got := bare.Stats().PossibleCycleAborts; got != 1 {
		t.Errorf("PossibleCycleAborts = %d, want 1", got)
	}
	requireSameRun(t, bare, ref)
}

// TestNackRetryZeroAlloc: a waiter stalled on a hot block retries every
// few dozen cycles, and in steady state a retry allocates nothing —
// neither replayed from its verdict nor walked through the protocol (an
// attached sink turns verdicts off). The retried request stays parked on
// the thread; a copy that escaped to the heap would show here.
func TestNackRetryZeroAlloc(t *testing.T) {
	X := addr.VAddr(0xa000)
	for _, tc := range []struct {
		name string
		sink obs.Sink
	}{{"replayed", nil}, {"walked", obs.Discard{}}} {
		t.Run(tc.name, func(t *testing.T) {
			p := smallParams()
			p.Sink = tc.sink
			s := newSys(t, p)
			pt := s.NewPageTable(1)
			if _, err := s.SpawnOn(0, 0, "holder", 1, pt, func(a *API) {
				a.Transaction(func() {
					a.Store(X, 1)
					a.Compute(10_000_000)
				})
			}); err != nil {
				t.Fatal(err)
			}
			w, err := s.SpawnOn(1, 0, "waiter", 1, pt, func(a *API) {
				a.Compute(1500)
				a.Transaction(func() { a.Store(X, 2) })
			})
			if err != nil {
				t.Fatal(err)
			}
			s.RunUntil(50_000) // the waiter is deep in its stall
			stalls, replays := w.Stalls, s.verdictReplays
			if n := testing.AllocsPerRun(100, func() {
				s.RunUntil(s.Engine.Now() + 1000)
			}); n != 0 {
				t.Errorf("stalled retries allocated %.1f times per 1,000 cycles, want 0", n)
			}
			if got := w.Stalls - stalls; got < 100*1000/40 {
				t.Fatalf("waiter retried %d times in the measured window; the setup does not stall", got)
			}
			if replayed := s.verdictReplays > replays; replayed != (tc.sink == nil) {
				t.Errorf("verdict replays advanced = %v, want %v", replayed, tc.sink == nil)
			}
		})
	}
}
