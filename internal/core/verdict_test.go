package core

import (
	"errors"
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

// verdictHolds reports whether nothing v's NACK depended on has changed,
// as retry's re-validation decides it.
func (s *System) verdictHolds(v *retryVerdict) bool {
	return s.blockHolds(v) && v.stamp == s.verdictStamp(v.cores, v.grown)
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
	ref = newSys(t, p)
	ref.AttachSink(&obs.Recorder{})
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

// recheckCase is one scenario for requireRecheck. build spawns the
// waiter and everything else, and returns the predicate that marks the
// change under test; the waiter must hold a live recheck verdict just
// before it. after, if set, inspects the bare run right after the
// waiter's first retry that follows the change.
type recheckCase struct {
	name    string
	p       Params
	build   func(t *testing.T, s *System, pt *mem.PageTable) (waiter *Thread, done func() bool)
	recheck bool // that retry re-checks and still NACKs (else it walks)
	after   func(t *testing.T, s *System, waiter *Thread)
	// cycleAborts: the finished run must count possible_cycle aborts.
	cycleAborts bool
}

// requireRecheck steps the bare run of tc cycle by cycle up to the
// change, then up to the waiter's next retry, and requires that retry
// to re-check or to walk as tc says. The run must then finish with the
// walked reference's Stats and end cycle.
func requireRecheck(t *testing.T, tc recheckCase) {
	t.Helper()
	var waiter *Thread
	var done func() bool
	bare, ref := runWithAndWithoutVerdicts(t, tc.p, func(s *System) {
		waiter, done = tc.build(t, s, s.NewPageTable(1))
	})
	live, before := stepUntil(t, bare, waiter, done)
	if !live || !before.recheck {
		t.Fatalf("setup: waiter held no live recheck verdict before the change (live %v)", live)
	}
	if bare.verdictHolds(&before) {
		t.Fatalf("setup: the change left the waiter's verdict holding")
	}
	stalls, rechecks := waiter.Stalls, bare.verdictRechecks
	for c := bare.Engine.Now() + 1; waiter.Stalls == stalls && waiter.stalling; c++ {
		if bare.verdictRechecks != rechecks {
			t.Fatalf("setup: another thread re-checked before the waiter's retry")
		}
		bare.RunUntil(c)
	}
	if got := bare.verdictRechecks - rechecks; got != map[bool]uint64{false: 0, true: 1}[tc.recheck] {
		t.Errorf("the waiter's retry after the change re-checked %d times, want re-check %v", got, tc.recheck)
	}
	if tc.after != nil {
		tc.after(t, bare, waiter)
	}
	requireSameRun(t, bare, ref)
	if tc.cycleAborts && bare.Stats().PossibleCycleAborts == 0 {
		t.Errorf("no possible_cycle abort")
	}
}

// TestRecheckMovedCores: a retry whose verdict failed only because the
// checked cores' transactional state moved re-checks the moved cores'
// signatures alone and composes them with the unchanged cores' NACKers.
// Each case fails when the rule it names is removed, and each run must
// match its Sink-attached walk.
func TestRecheckMovedCores(t *testing.T) {
	p := smallParams()
	p.Resolution = ResolveStallAbort
	l1Set := addr.VAddr(p.L1Bytes / p.L1Ways)
	// storeX spawns the waiter on core 1: a transaction that stores X
	// from cycle 1500 on, after storing first (if not 0).
	storeX := func(t *testing.T, s *System, pt *mem.PageTable, first addr.VAddr) *Thread {
		return spawn(t, s, 1, 0, "waiter", pt, func(a *API) {
			a.Compute(1500)
			a.Transaction(func() {
				if first != 0 {
					a.Store(first, 2)
				}
				a.Store(ruleX, 2)
			})
		})
	}
	// nackersOn reports the cores of the waiter's recorded NACKers.
	nackersOn := func(w *Thread) (cores []int) {
		for _, n := range w.verdict.nackers {
			cores = append(cores, n.Core)
		}
		return cores
	}
	for _, tc := range []recheckCase{{
		// Rule: a retry whose checked core moved re-checks instead of
		// walking.
		name: "another context on the checked core begins", p: p, recheck: true,
		build: func(t *testing.T, s *System, pt *mem.PageTable) (*Thread, func() bool) {
			trueHolder(t, s, pt, func(a *API) { a.Compute(3000) })
			sib := spawn(t, s, 0, 1, "sibling", pt, func(a *API) {
				a.Compute(4000)
				a.Transaction(func() { a.Compute(1000) })
			})
			return storeX(t, s, pt, 0), sib.InTx
		},
		after: func(t *testing.T, s *System, w *Thread) {
			if got := nackersOn(w); fmt.Sprint(got) != "[0]" || !w.verdict.ok {
				t.Errorf("re-checked NACKers on cores %v (verdict ok %v), want [0]", got, w.verdict.ok)
			}
		},
	}, {
		// Rule: a re-check that finds no NACKer walks (and is granted).
		name: "the only NACKer commits", p: p, recheck: false,
		build: func(t *testing.T, s *System, pt *mem.PageTable) (*Thread, func() bool) {
			h := trueHolder(t, s, pt, func(*API) {})
			return storeX(t, s, pt, 0), func() bool { return h.Commits > 0 }
		},
		after: func(t *testing.T, s *System, w *Thread) {
			if w.stalling {
				t.Errorf("the waiter's walk after the commit was not granted")
			}
		},
	}, {
		// Rule: a moved core's signatures are checked again, so a new
		// true NACKer there joins the unchanged core's, in core order.
		name: "a new true NACKer joins", p: p, recheck: true,
		build: func(t *testing.T, s *System, pt *mem.PageTable) (*Thread, func() bool) {
			// X is Shared by cores 0 and 2; the holder on core 0 has it
			// in its read set, and the waiter's GETM checks both.
			spawn(t, s, 0, 0, "holder", pt, func(a *API) {
				a.Compute(100)
				a.Transaction(func() {
					a.Load(ruleX)
					a.Compute(6000)
				})
			})
			j := spawn(t, s, 2, 0, "joiner", pt, func(a *API) {
				a.Load(ruleX)
				a.Compute(4000)
				a.Transaction(func() {
					a.Compute(500)
					a.Load(ruleX) // an L1 hit
					a.Compute(4000)
				})
			})
			return storeX(t, s, pt, 0), func() bool { return j.ReadSetSize() > 0 }
		},
		after: func(t *testing.T, s *System, w *Thread) {
			if got := nackersOn(w); fmt.Sprint(got) != "[0 2]" || len(w.verdict.grown) != 2 || len(w.waitingOn) != 2 {
				t.Errorf("re-checked NACKers on cores %v, %d true, waiting on %v; want cores [0 2], both true", got, len(w.verdict.grown), w.waitingOn)
			}
		},
	}, {
		// Rule: a moved core's NACKers are marked sticky when its L1 no
		// longer holds the block.
		name: "a sticky NACKer on a moved core", p: p, recheck: true,
		build: func(t *testing.T, s *System, pt *mem.PageTable) (*Thread, func() bool) {
			trueHolder(t, s, pt, func(a *API) {
				for i := 1; i <= p.L1Ways; i++ {
					a.Load(ruleX + addr.VAddr(i)*l1Set)
				}
				a.Compute(6000)
			})
			sib := spawn(t, s, 0, 1, "sibling", pt, func(a *API) {
				a.Compute(9000)
				a.Transaction(func() { a.Compute(1000) })
			})
			return storeX(t, s, pt, 0), sib.InTx
		},
		after: func(t *testing.T, s *System, w *Thread) {
			if v := &w.verdict; len(v.nackers) != 1 || !v.nackers[0].Sticky || !v.class.anySticky {
				t.Errorf("re-checked NACKers %+v, want one sticky NACKer", v.nackers)
			}
		},
	}, {
		// Rule: the requester's own core moving walks. Here its sibling's
		// signature grows to alias X, so the walk's SMT scan NACKs.
		name: "the requester's own core moves", p: withSig(p, sig.Config{Kind: sig.KindBitSelect, Bits: 64}), recheck: false,
		build: func(t *testing.T, s *System, pt *mem.PageTable) (*Thread, func() bool) {
			trueHolder(t, s, pt, func(a *API) { a.Compute(3000) })
			spawn(t, s, 1, 1, "sibling", pt, func(a *API) {
				a.Transaction(func() { a.Compute(12_000) })
			})
			noised := false
			s.Engine.Schedule(4000, func() {
				if s.InjectSigNoise(1, 1, 256, 1) == 0 {
					panic("no noise injected")
				}
				noised = true
			})
			return storeX(t, s, pt, 0), func() bool { return noised }
		},
		after: func(t *testing.T, s *System, w *Thread) {
			if v := &w.verdict; !v.ok || !v.smt {
				t.Errorf("the waiter's walk after its core moved seeded no SMT verdict (ok %v, smt %v)", v.ok, v.smt)
			}
		},
	}, {
		// Rule: the re-check sets possible_cycle on a younger NACKer, as
		// the walk's check does. Without it the joiner, NACKed by the
		// older waiter on Y, stalls instead of aborting, and the two
		// wait on each other forever.
		name: "possible_cycle on a younger NACKer", p: p, recheck: true, cycleAborts: true,
		build: func(t *testing.T, s *System, pt *mem.PageTable) (*Thread, func() bool) {
			spawn(t, s, 0, 0, "holder", pt, func(a *API) {
				a.Transaction(func() {
					a.Load(ruleX)
					a.Compute(8000)
				})
			})
			j := spawn(t, s, 0, 1, "joiner", pt, func(a *API) {
				a.Compute(3000)
				a.Transaction(func() {
					a.Compute(500)
					a.Load(ruleX) // an L1 hit, beside the holder's read
					a.Compute(500)
					a.Store(ruleY, 1)
				})
			})
			return storeX(t, s, pt, ruleY), func() bool { return j.ReadSetSize() > 0 }
		},
		after: func(t *testing.T, s *System, w *Thread) {
			j := s.ctxs[0][1].Cur
			if got := nackersOn(w); fmt.Sprint(got) != "[0 0]" || !j.possibleCycle {
				t.Errorf("re-checked NACKers on cores %v, joiner possible_cycle %v; want [0 0] and set", got, j.possibleCycle)
			}
		},
	}} {
		t.Run(tc.name, func(t *testing.T) { requireRecheck(t, tc) })
	}
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
// neither run as a storm step with its charges deferred, replayed from
// its verdict after re-validation (every lane step through runCont),
// re-checked on the cores that moved (a transaction on the NACKer's core
// keeps beginning and committing), nor walked through the protocol (an
// attached sink turns verdicts off). The retried request stays parked
// on the thread, and the storm slots are sized at spawn; a copy that
// escaped to the heap, or a slot array grown in a step, would show here.
func TestNackRetryZeroAlloc(t *testing.T) {
	X := addr.VAddr(0xa000)
	for _, tc := range []struct {
		name     string
		sink     obs.Sink
		churn    bool
		perRetry bool
	}{{"storm", nil, false, false}, {"replayed", nil, false, true}, {"rechecked", nil, true, false}, {"walked", obs.Discard{}, false, false}} {
		t.Run(tc.name, func(t *testing.T) {
			p := smallParams()
			s := newSys(t, p)
			s.AttachSink(tc.sink)
			if tc.perRetry {
				s.laneStep = s.runCont
			}
			pt := s.NewPageTable(1)
			if _, err := s.SpawnOn(0, 0, "holder", 1, pt, func(a *API) {
				a.Transaction(func() {
					a.Store(X, 1)
					a.Compute(10_000_000)
				})
			}); err != nil {
				t.Fatal(err)
			}
			if tc.churn {
				spawn(t, s, 0, 1, "churner", pt, func(a *API) {
					for {
						a.Transaction(func() { a.Load(ruleY) })
						a.Compute(200)
					}
				})
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
			before, replays, skips, storms, rechecks := stalls(), s.verdictReplays, s.replaySkips, s.stormSteps, s.verdictRechecks
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
			storming := tc.sink == nil && !tc.perRetry
			if skipped := s.replaySkips > skips; skipped != storming {
				t.Errorf("re-validation skips advanced = %v, want %v", skipped, storming)
			}
			if stormed := s.stormSteps-storms == s.replaySkips-skips && s.stormSteps > storms; stormed != storming {
				t.Errorf("%d storm steps for %d skips, want storm steps = %v", s.stormSteps-storms, s.replaySkips-skips, storming)
			}
			if rechecked := s.verdictRechecks > rechecks; rechecked != tc.churn {
				t.Errorf("re-checks advanced = %v, want %v", rechecked, tc.churn)
			}
		})
	}
}

// TestCaptureRefusesDeferredCharges: a storm step defers its charges,
// and its thread's queue position, to a flush that runs before
// stepBounded returns, so no capture should ever see one pending. One
// that did would record short counters, so CaptureState refuses with an
// error that is not ErrNotCapturable (no fallback hides it).
func TestCaptureRefusesDeferredCharges(t *testing.T) {
	X := addr.VAddr(0xa000)
	s := newSys(t, smallParams())
	pt := s.NewPageTable(1)
	spawn(t, s, 0, 0, "holder", pt, func(a *API) {
		a.Transaction(func() {
			a.Store(X, 1)
			a.Compute(1_000_000)
		})
	})
	for core := 1; core < 4; core++ {
		spawn(t, s, core, 0, fmt.Sprintf("waiter%d", core), pt, func(a *API) {
			a.Compute(1500)
			a.Transaction(func() { a.Store(X, 2) })
		})
	}
	s.RunUntil(20_000)
	c, gen := s.lane.first(s.Engine.Now()), s.replayGen+1
	if s.lane.cells[c].gen != gen {
		t.Fatal("the lane's head is not marked for a storm step")
	}
	w, at := s.threads[s.lane.thread(c)], s.lane.cells[c].at
	s.lane.pop(c)
	s.Engine.Advance(at)
	if !s.stormStep(c, gen) {
		t.Fatal("the storm step declined")
	}
	if w.pendAt != at || len(s.stormDirty) != 1 {
		t.Fatalf("before the flush: %s queued at %d (want the stale %d), %d threads with deferred charges", w.Name, w.pendAt, at, len(s.stormDirty))
	}
	if _, err := s.CaptureState(nil); err == nil || errors.Is(err, ErrNotCapturable) {
		t.Fatalf("capture with a deferred charge pending: %v, want a plain error", err)
	}
	stalls := w.Stalls
	s.flushStorm()
	if w.pendAt != s.lane.cells[c].at || w.Stalls != stalls+1 {
		t.Errorf("the flush left %s queued at %d with %d stalls, want %d and %d", w.Name, w.pendAt, w.Stalls, s.lane.cells[c].at, stalls+1)
	}
	if _, err := s.CaptureState(nil); !errors.Is(err, ErrNotCapturable) {
		t.Errorf("capture after the flush: %v, want only the interpreted threads' ErrNotCapturable", err)
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
			s := newSys(t, p)
			s.AttachSink(sink)
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
