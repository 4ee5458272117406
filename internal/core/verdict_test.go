package core

import (
	"fmt"
	"testing"

	"logtmse/internal/addr"
	"logtmse/internal/cache"
	"logtmse/internal/mem"
	"logtmse/internal/obs"
	"logtmse/internal/sig"
	"logtmse/internal/sim"
)

// verdictLive reports whether t's next NACK retry would be replayed from
// its verdict rather than walked.
func verdictLive(s *System, t *Thread) bool {
	return s.verdictHolds(&t.verdict)
}

// cloneVerdict copies v deep enough to be checked later: a re-seed
// rewrites the thread's verdict and its slices in place.
func cloneVerdict(v *retryVerdict) retryVerdict {
	c := *v
	c.grown = append([]*Context(nil), v.grown...)
	return c
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
	mustRun(t, ref)
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

// requireSameRun finishes the bare run and compares it with the walked
// reference.
func requireSameRun(t *testing.T, bare, ref *System) {
	t.Helper()
	mustRun(t, bare)
	if bare.Stats() != ref.Stats() {
		t.Errorf("verdict replay changed Stats:\nbare %+v\nwalk %+v", bare.Stats(), ref.Stats())
	}
	if bare.Engine.Now() != ref.Engine.Now() {
		t.Errorf("verdict replay changed the end cycle: %d vs %d", bare.Engine.Now(), ref.Engine.Now())
	}
	if bare.verdictReplays == 0 {
		t.Errorf("no retry was replayed")
	}
}

// stepUntil runs s one cycle at a time until done holds. It reports
// whether waiter held a live verdict at the step before, and that
// verdict, so the caller can ask whether the step's change ended it.
func stepUntil(t *testing.T, s *System, waiter *Thread, done func() bool) (live bool, before retryVerdict) {
	t.Helper()
	for c := s.Engine.Now() + 1; ; c++ {
		if c > 200_000 {
			t.Fatalf("condition never reached")
		}
		live, before = verdictLive(s, waiter), cloneVerdict(&waiter.verdict)
		s.RunUntil(c)
		if done() {
			return live, before
		}
	}
}

// verdictRule is one scenario for requireVerdictRule. build spawns
// everything but the waiter and returns the predicate that marks the
// change under test; trigger, if set, makes the change itself, once the
// waiter holds a live verdict.
type verdictRule struct {
	build   func(s *System, pt *mem.PageTable) (done func() bool)
	trigger func(s *System)
	kills   bool // the change must end the waiter's verdict
	fp      bool // the waiter is NACKed by a signature false positive
}

// Addresses shared by the verdict scenarios: the waiter stores X.
const (
	ruleX = addr.VAddr(0xa000)
	ruleY = addr.VAddr(0xb000)
	ruleW = addr.VAddr(0xc000)
)

// requireVerdictRule runs rule with a waiter on core 1 that stores X in
// a transaction from cycle 1500 on. It steps the bare run until the
// rule's change, and requires that the waiter held a live verdict just
// before it, and that the change ended that verdict (or, for a change
// the grow-only rule covers, left it live). The run must then finish
// with the walked reference's Stats and end cycle.
func requireVerdictRule(t *testing.T, p Params, rule verdictRule) {
	t.Helper()
	var waiter *Thread
	var done func() bool
	bare, ref := runWithAndWithoutVerdicts(t, p, func(s *System) {
		pt := s.NewPageTable(1)
		done = rule.build(s, pt)
		w, err := s.SpawnOn(1, 0, "waiter", 1, pt, func(a *API) {
			a.Compute(1500)
			a.Transaction(func() { a.Store(ruleX, 2) })
		})
		if err != nil {
			t.Fatal(err)
		}
		waiter = w
	})
	if rule.trigger != nil {
		stepUntil(t, bare, waiter, func() bool { return verdictLive(bare, waiter) && bare.Engine.Now() > 3000 })
		fired := false
		done = func() bool { return fired }
		bare.Engine.Schedule(0, func() { rule.trigger(bare); fired = true })
	}
	live, before := stepUntil(t, bare, waiter, done)
	if !live {
		t.Fatalf("waiter held no live verdict before the change")
	}
	if before.class.allFalse != rule.fp {
		t.Fatalf("setup: waiter's NACK false positive = %v, want %v", before.class.allFalse, rule.fp)
	}
	if holds := bare.verdictHolds(&before); holds == rule.kills {
		t.Errorf("the change left the waiter's verdict holding = %v, want %v", holds, !rule.kills)
	}
	requireSameRun(t, bare, ref)
}

// gone turns a presence predicate into one that holds once the thing
// was present and no longer is.
func gone(present func() bool) func() bool {
	seen := false
	return func() bool {
		if present() {
			seen = true
			return false
		}
		return seen
	}
}

// spawn places fn on (core, thread) or fails the test.
func spawn(t *testing.T, s *System, core, thread int, name string, pt *mem.PageTable, fn func(a *API)) *Thread {
	t.Helper()
	th, err := s.SpawnOn(core, thread, name, 1, pt, fn)
	if err != nil {
		t.Fatal(err)
	}
	return th
}

// trueHolder spawns, on core 0, a transaction that stores X — truly
// NACKing the waiter's store — then runs body.
func trueHolder(t *testing.T, s *System, pt *mem.PageTable, body func(a *API)) *Thread {
	return spawn(t, s, 0, 0, "holder", pt, func(a *API) {
		a.Transaction(func() {
			a.Store(ruleX, 1)
			a.Compute(3000)
			body(a)
			a.Compute(3000)
		})
	})
}

// TestNackerChangesInvalidateWaiterVerdicts: while a waiter stalls on a
// block, its verdict stays live; a false-positive NACKer's signature
// insert on an L1 hit, a true NACKer's commit and its abort each end it.
func TestNackerChangesInvalidateWaiterVerdicts(t *testing.T) {
	p := smallParams()
	for _, tc := range []struct {
		name string
		p    Params
		rule func(t *testing.T) verdictRule
	}{
		{"L1-hit signature insert", withSig(p, sig.Config{Kind: sig.KindBitSelect, Bits: 64}), func(t *testing.T) verdictRule {
			// The holder's write set has A, which aliases X in a 64-bit
			// bit-select signature: the waiter's store is NACKed by a
			// false positive, and the holder's later insert of Y (an L1
			// hit: Y is cached before the transaction) may turn its
			// signature conflict into an exact one.
			const A = ruleX + 0x10000
			return verdictRule{kills: true, fp: true, build: func(s *System, pt *mem.PageTable) func() bool {
				h := spawn(t, s, 0, 0, "holder", pt, func(a *API) {
					a.Load(ruleY)
					a.Transaction(func() {
						a.Store(A, 1)
						a.Compute(3000)
						a.Load(ruleY)
						a.Compute(3000)
					})
				})
				return func() bool { return h.ReadSetSize() > 0 }
			}}
		}},
		{"commit", p, func(t *testing.T) verdictRule {
			return verdictRule{kills: true, build: func(s *System, pt *mem.PageTable) func() bool {
				h := trueHolder(t, s, pt, func(*API) {})
				return func() bool { return h.Commits > 0 }
			}}
		}},
		{"abort", p, func(t *testing.T) verdictRule {
			return verdictRule{kills: true, build: func(s *System, pt *mem.PageTable) func() bool {
				aborted := false
				h := trueHolder(t, s, pt, func(a *API) {
					if !aborted {
						aborted = s.InjectAbort(a.Thread())
					}
					a.Load(ruleW)
				})
				return func() bool { return h.Aborts > 0 }
			}}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { requireVerdictRule(t, tc.p, tc.rule(t)) })
	}
}

func withSig(p Params, c sig.Config) Params {
	p.Signature = c
	return p
}

// TestVerdictValidityRules covers the rest of the verdict's dependencies,
// one change each: what must end a live verdict, and what the per-block
// and per-core stamps and the grow-only rule let it survive.
func TestVerdictValidityRules(t *testing.T) {
	p := smallParams()
	l1Set := addr.VAddr(p.L1Bytes / p.L1Ways) // one L1 set apart
	thrash := p
	thrash.L2Bytes, thrash.L2Ways = 16*1024, 4
	for _, tc := range []struct {
		name string
		p    Params
		rule func(t *testing.T) verdictRule
	}{
		{"non-NACKing target's insert", p, func(t *testing.T) verdictRule {
			// The holder's sibling on core 0 is checked with it and does
			// not NACK; its L1-hit insert may make it start.
			return verdictRule{kills: true, build: func(s *System, pt *mem.PageTable) func() bool {
				trueHolder(t, s, pt, func(a *API) { a.Compute(3000) })
				sib := spawn(t, s, 0, 1, "sibling", pt, func(a *API) {
					a.Load(ruleY)
					a.Transaction(func() {
						a.Compute(3000)
						a.Load(ruleY)
						a.Compute(3000)
					})
				})
				return func() bool { return sib.ReadSetSize() > 0 }
			}}
		}},
		{"signature noise on a non-NACKing target", p, func(t *testing.T) verdictRule {
			// Injected signature bits grow a signature without its
			// exact set: a non-NACKer's may start to alias X.
			return verdictRule{kills: true,
				trigger: func(s *System) {
					if s.InjectSigNoise(0, 1, 4, 1) == 0 {
						panic("no noise injected")
					}
				},
				build: func(s *System, pt *mem.PageTable) func() bool {
					trueHolder(t, s, pt, func(a *API) { a.Compute(3000) })
					spawn(t, s, 0, 1, "sibling", pt, func(a *API) {
						a.Transaction(func() { a.Compute(12_000) })
					})
					return nil
				}}
		}},
		{"true NACKer's own insert", p, func(t *testing.T) verdictRule {
			return verdictRule{kills: false, build: func(s *System, pt *mem.PageTable) func() bool {
				h := trueHolder(t, s, pt, func(a *API) { a.Load(ruleY) })
				return func() bool { return h.ReadSetSize() > 0 }
			}}
		}},
		{"unrelated core's grant", p, func(t *testing.T) verdictRule {
			return verdictRule{kills: false, build: func(s *System, pt *mem.PageTable) func() bool {
				trueHolder(t, s, pt, func(*API) {})
				spawn(t, s, 2, 0, "bystander", pt, func(a *API) {
					a.Compute(4000)
					a.Transaction(func() { a.Store(ruleY, 3) })
				})
				pa := pt.Translate(ruleY)
				return func() bool { return s.verdictCoh.L1(2).Peek(pa) != cache.Invalid }
			}}
		}},
		{"victimization in the NACKer's L1", p, func(t *testing.T) verdictRule {
			// X leaves the holder's L1 but not its signature: the NACK
			// turns sticky, an outcome the verdict recorded as not.
			var pa addr.PAddr
			return verdictRule{kills: true, build: func(s *System, pt *mem.PageTable) func() bool {
				trueHolder(t, s, pt, func(a *API) {
					for i := 1; i <= p.L1Ways; i++ {
						a.Load(ruleX + addr.VAddr(i)*l1Set)
					}
				})
				pa = pt.Translate(ruleX)
				return gone(func() bool { return s.verdictCoh.L1(0).Peek(pa) != cache.Invalid })
			}}
		}},
		{"L2 eviction", thrash, func(t *testing.T) verdictRule {
			var pa addr.PAddr
			return verdictRule{kills: true, build: func(s *System, pt *mem.PageTable) func() bool {
				trueHolder(t, s, pt, func(a *API) { a.Compute(400_000) })
				spawn(t, s, 2, 0, "thrasher", pt, func(a *API) {
					a.Compute(4000)
					for i := 1; i <= 512; i++ { // twice the L2
						a.Load(ruleX + addr.VAddr(i*addr.BlockBytes))
					}
				})
				pa = pt.Translate(ruleX)
				return gone(func() bool { return s.verdictCoh.HasDirEntry(pa) })
			}}
		}},
		{"Deschedule and Place", p, func(t *testing.T) verdictRule {
			// A non-transactional thread on the holder's core is
			// descheduled and placed back.
			return verdictRule{kills: true, build: func(s *System, pt *mem.PageTable) func() bool {
				trueHolder(t, s, pt, func(a *API) { a.Compute(6000) })
				var by *Thread
				preempted := false
				s.PreemptCheck = func(t *Thread) bool { return t == by && !preempted && s.Engine.Now() > 4000 }
				s.OnPreempt = func(t *Thread) {
					preempted = true
					s.Deschedule(t)
					s.Engine.Schedule(2000, func() {
						if err := s.ScheduleOn(t, 0, 1); err != nil {
							panic(err)
						}
						s.Resume(t)
					})
				}
				by = spawn(t, s, 0, 1, "bystander", pt, func(a *API) {
					for i := 0; i < 8; i++ {
						a.Compute(1000)
						a.Load(ruleY)
					}
				})
				return func() bool { return preempted }
			}}
		}},
		{"open commit", p, func(t *testing.T) verdictRule {
			// Only the open child stored X: its commit restores the
			// parent's signature, which does not cover X.
			return verdictRule{kills: true, build: func(s *System, pt *mem.PageTable) func() bool {
				h := spawn(t, s, 0, 0, "holder", pt, func(a *API) {
					a.Transaction(func() {
						a.Store(ruleY, 1)
						a.OpenTransaction(func() {
							a.Store(ruleX, 1)
							a.Compute(3000)
						})
						a.Compute(3000)
					})
				})
				return func() bool { return s.stats.OpenCommits > 0 && h.depth == 1 }
			}}
		}},
		{"nested abort", p, func(t *testing.T) verdictRule {
			return verdictRule{kills: true, build: func(s *System, pt *mem.PageTable) func() bool {
				aborted := false
				h := spawn(t, s, 0, 0, "holder", pt, func(a *API) {
					a.Transaction(func() {
						a.Store(ruleY, 1)
						a.Transaction(func() {
							a.Store(ruleX, 1)
							a.Compute(3000)
							if !aborted {
								aborted = s.InjectAbort(a.Thread())
							}
							a.Load(ruleW)
						})
						a.Compute(3000)
					})
				})
				return func() bool { return h.Aborts > 0 }
			}}
		}},
		{"relocation", p, func(t *testing.T) verdictRule {
			return verdictRule{kills: true, trigger: (*System).InvalidateRetryVerdicts,
				build: func(s *System, pt *mem.PageTable) func() bool {
					trueHolder(t, s, pt, func(a *API) { a.Compute(3000) })
					return nil
				}}
		}},
		{"restore", p, func(t *testing.T) verdictRule {
			return verdictRule{kills: true,
				trigger: func(s *System) {
					if err := s.verdictCoh.RestoreFrom(s.verdictCoh.Snapshot()); err != nil {
						panic(err)
					}
				},
				build: func(s *System, pt *mem.PageTable) func() bool {
					trueHolder(t, s, pt, func(a *API) { a.Compute(3000) })
					return nil
				}}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { requireVerdictRule(t, tc.p, tc.rule(t)) })
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
// is set by another thread's walk, which stamps nothing, so the abort it
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

// TestNackRetryZeroAlloc: waiters stalled on a hot block retry every
// few dozen cycles, and in steady state a retry allocates nothing —
// neither replayed from its verdict, re-armed on the lane with or
// without re-validation, nor walked through the protocol (an attached
// sink turns verdicts off). The retried request stays parked on the
// thread; a copy that escaped to the heap would show here.
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
			var waiters []*Thread
			for core := 1; core < p.Cores; core++ {
				w, err := s.SpawnOn(core, 0, fmt.Sprintf("waiter%d", core), 1, pt, func(a *API) {
					a.Compute(1500)
					a.Transaction(func() { a.Store(X, 2) })
				})
				if err != nil {
					t.Fatal(err)
				}
				waiters = append(waiters, w)
			}
			stalls := func() (n uint64) {
				for _, w := range waiters {
					n += w.Stalls
				}
				return n
			}
			s.RunUntil(50_000) // the waiters are deep in their stalls
			before, replays, skips := stalls(), s.verdictReplays, s.replaySkips
			if n := testing.AllocsPerRun(100, func() {
				s.RunUntil(s.Engine.Now() + 1000)
			}); n != 0 {
				t.Errorf("stalled retries allocated %.1f times per 1,000 cycles, want 0", n)
			}
			if got := stalls() - before; got < uint64(len(waiters))*100*1000/40 {
				t.Fatalf("waiters retried %d times in the measured window; the setup does not stall", got)
			}
			if replayed := s.verdictReplays > replays; replayed != (tc.sink == nil) {
				t.Errorf("verdict replays advanced = %v, want %v", replayed, tc.sink == nil)
			}
			if skipped := s.replaySkips > skips; skipped != (tc.sink == nil) {
				t.Errorf("re-validation skips advanced = %v, want %v", skipped, tc.sink == nil)
			}
		})
	}
}

// TestSummaryBackoffZeroAlloc: a non-transactional store that hits its
// context's summary signature backs off and walks again, for as long as
// the summary stays installed. The backoff parks the request on the
// thread and queues the thread on the lane, so a steady-state backoff
// allocates nothing.
func TestSummaryBackoffZeroAlloc(t *testing.T) {
	X := addr.VAddr(0xa000)
	p := smallParams()
	s := newSys(t, p)
	pt := s.NewPageTable(1)
	sum := sig.MustSignature(p.Signature)
	sum.Insert(sig.Write, pt.Translate(X))
	s.InstallSummary(0, 0, sum)
	spawn(t, s, 0, 0, "blocked", pt, func(a *API) { a.Store(X, 7) })
	s.RunUntil(10_000)
	before := s.Stats().SummaryConflicts
	if n := testing.AllocsPerRun(100, func() {
		s.RunUntil(s.Engine.Now() + 1000)
	}); n != 0 {
		t.Errorf("summary backoffs allocated %.1f times per 1,000 cycles, want 0", n)
	}
	if got := s.Stats().SummaryConflicts - before; got < 100*1000/200 {
		t.Fatalf("%d summary backoffs in the measured window; the setup does not back off", got)
	}
	s.InstallSummary(0, 0, nil)
	mustRun(t, s)
	if v := s.Mem.ReadWord(pt.Translate(X)); v != 7 {
		t.Errorf("the store landed %d after the summary cleared, want 7", v)
	}
}

// TestBackoffStepAdvancesReplayGen: a lane step that is not a retry —
// here a summary backoff, whose walk can change what a waiter's verdict
// depends on — advances replayGen as an engine event does, so no waiter
// skips re-validation across it. (A start or a completion always leads
// to a dispatch, which advances it too.)
func TestBackoffStepAdvancesReplayGen(t *testing.T) {
	X := addr.VAddr(0xa000)
	p := smallParams()
	s := newSys(t, p)
	pt := s.NewPageTable(1)
	sum := sig.MustSignature(p.Signature)
	sum.Insert(sig.Write, pt.Translate(X))
	s.InstallSummary(0, 0, sum)
	b := spawn(t, s, 0, 0, "blocked", pt, func(a *API) { a.Store(X, 7) })
	s.RunUntil(1_000)
	if b.pendKind != pendBackoff {
		t.Fatalf("the blocked store's continuation is kind %d, want a backoff", b.pendKind)
	}
	gen, hits := s.replayGen, s.stats.SummaryConflicts
	s.runLimit = b.pendAt
	if !s.stepBounded() || s.stats.SummaryConflicts != hits+1 {
		t.Fatal("the step did not run the backoff")
	}
	if s.replayGen == gen {
		t.Errorf("a backoff step left replayGen at %d", gen)
	}
	s.InstallSummary(0, 0, nil)
	mustRun(t, s)
}

// TestReplaySkipEndsAtNonReplayStep: two waiters replaying cleanly on the
// lane skip re-validation, until anything else runs. Descheduling
// their NACKer — from an engine event, or from the caller between two
// drives — must end the skipping, so the next retries walk and are
// granted exactly when the Sink-attached reference's walks are.
func TestReplaySkipEndsAtNonReplayStep(t *testing.T) {
	X := addr.VAddr(0xa000)
	for _, between := range []bool{false, true} {
		run := func(sink obs.Sink) *System {
			p := smallParams()
			p.Sink = sink
			s := newSys(t, p)
			pt := s.NewPageTable(1)
			h := spawn(t, s, 0, 0, "holder", pt, func(a *API) {
				a.Transaction(func() {
					a.Store(X, 1)
					a.Compute(1_000_000)
				})
			})
			for core := 1; core <= 2; core++ {
				spawn(t, s, core, 0, fmt.Sprintf("waiter%d", core), pt, func(a *API) {
					a.Compute(1500)
					a.Transaction(func() { a.Store(X, 2) })
				})
			}
			desched := func() {
				s.Deschedule(h)
				s.Engine.Schedule(10_000, func() {
					if err := s.ScheduleOn(h, 0, 0); err != nil {
						panic(err)
					}
				})
			}
			if between {
				s.RunUntil(20_000)
				desched()
			} else {
				s.Engine.Schedule(20_000, desched)
			}
			mustRun(t, s)
			return s
		}
		ref, bare := run(&obs.Recorder{}), run(nil)
		if bare.Stats() != ref.Stats() || bare.Engine.Now() != ref.Engine.Now() {
			t.Errorf("between drives %v: skipping replays drifted from the walks:\nbare %+v\nwalk %+v", between, bare.Stats(), ref.Stats())
		}
		if bare.replaySkips == 0 {
			t.Errorf("between drives %v: no retry skipped re-validation", between)
		}
	}
}

// TestReplaySkipEndsAtAbortingReplay: a replayed retry whose stall
// aborts (here a possible_cycle abort) releases isolation another
// waiter's verdict depended on, so it must end that waiter's skipping as
// a walk would. Whether the other waiter replays cleanly between its
// NACK and the abort depends on the retry jitter, so the scenario runs
// at a range of start offsets, each in one drive.
func TestReplaySkipEndsAtAbortingReplay(t *testing.T) {
	p := smallParams()
	p.Resolution = ResolveStallAbort
	A, B := addr.VAddr(0xa000), addr.VAddr(0xb000)
	var aborts, skips uint64
	for offset := 0; offset < 32; offset++ {
		bare, ref := runWithAndWithoutVerdicts(t, p, func(s *System) {
			pt := s.NewPageTable(1)
			spawn(t, s, 0, 0, "old", pt, func(a *API) {
				a.Transaction(func() {
					a.Store(A, a.Load(A)+1)
					a.Compute(3000)
					a.Store(B, a.Load(B)+1)
				})
			})
			spawn(t, s, 1, 0, "young", pt, func(a *API) {
				a.Compute(sim.Cycle(100 + offset))
				a.Transaction(func() {
					a.Store(B, a.Load(B)+10)
					a.Compute(500)
					a.Store(A, a.Load(A)+10)
				})
			})
		})
		requireSameRun(t, bare, ref)
		aborts += bare.Stats().PossibleCycleAborts
		skips += bare.replaySkips
	}
	if aborts == 0 || skips == 0 {
		t.Errorf("setup: %d possible_cycle aborts, %d skipped re-validations; want both", aborts, skips)
	}
}
