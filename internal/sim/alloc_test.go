package sim

import (
	"testing"
)

// TestScheduleStepZeroAlloc is the hot-path guard: once the pooled event
// array has grown to its high-water mark, Schedule and Step must not
// allocate (part of the repo-wide zero-alloc suite).
func TestScheduleStepZeroAlloc(t *testing.T) {
	e := NewEngine(1)
	fn := func() {}
	// Warm the pool past the working set used below.
	for i := 0; i < 256; i++ {
		e.Schedule(Cycle(i%13), fn)
	}
	for e.Step() {
	}
	if n := testing.AllocsPerRun(1000, func() {
		e.Schedule(3, fn)
		e.Schedule(1, fn)
		e.Schedule(7, fn)
		for e.Step() {
		}
	}); n != 0 {
		t.Errorf("Schedule/Step allocated %.1f allocs/op, want 0", n)
	}
}

// TestWeakEveryZeroAllocSteadyState: the self-rearming periodic tick must
// reuse its single closure, not build a chain.
func TestWeakEveryZeroAllocSteadyState(t *testing.T) {
	e := NewEngine(1)
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.Schedule(Cycle(i*100), fn)
	}
	ticks := 0
	e.ScheduleWeakEvery(10, func() bool { ticks++; return true })
	allocs := testing.AllocsPerRun(1, func() {
		e.Run()
	})
	if ticks == 0 {
		t.Fatal("periodic weak event never fired")
	}
	// One warm-up growth of the heap array is tolerated; per-tick closure
	// chains (the old recursive rearm) would show hundreds.
	if allocs > 5 {
		t.Errorf("Run with a periodic weak event allocated %.0f times for %d ticks", allocs, ticks)
	}
}

// TestEngineResetZeroAlloc is the pooled-reuse guard: once an engine has
// run a working set, Reset plus a fresh schedule/drain cycle must not
// allocate — the event array and the RNG are reused in place, so a
// pooled System pays no construction cost per cell.
func TestEngineResetZeroAlloc(t *testing.T) {
	e := NewEngine(1)
	fn := func() {}
	for i := 0; i < 256; i++ {
		e.Schedule(Cycle(i%13), fn)
	}
	e.Run()
	e.Rand() // materialize the lazy RNG so Reset reseeds, not reallocates
	if n := testing.AllocsPerRun(1000, func() {
		e.Reset(7)
		e.Schedule(3, fn)
		e.Schedule(1, fn)
		for e.Step() {
		}
	}); n != 0 {
		t.Errorf("Reset+Schedule/Step allocated %.1f allocs/op, want 0", n)
	}
}

// TestEngineResetMatchesFresh: a Reset(seed) engine must be
// indistinguishable from NewEngine(seed) — clock and sequence rewound,
// queue empty, and the RNG stream identical from the first draw.
func TestEngineResetMatchesFresh(t *testing.T) {
	used := NewEngine(99)
	for i := 0; i < 40; i++ {
		used.Schedule(Cycle(i%7), func() {})
	}
	used.Run()
	used.Rand().Int63() // advance the RNG past its fresh state
	used.Schedule(5, func() {})
	used.ScheduleWeak(5, func() {})
	used.Reserve(3) // an external event still pending
	used.Reset(42)

	fresh := NewEngine(42)
	if used.Now() != 0 || used.Pending() != 0 || used.PendingStrong() != 0 {
		t.Fatalf("Reset left state behind: now=%d pending=%d strong=%d",
			used.Now(), used.Pending(), used.PendingStrong())
	}
	for i := 0; i < 100; i++ {
		if a, b := used.Rand().Int63(), fresh.Rand().Int63(); a != b {
			t.Fatalf("RNG stream diverges at draw %d: %d vs %d", i, a, b)
		}
	}
}

func BenchmarkEngineSchedule(b *testing.B) {
	e := NewEngine(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(Cycle(i%97), fn)
		if e.Pending() >= 1024 {
			for e.Step() {
			}
		}
	}
}

func BenchmarkEngineScheduleStep(b *testing.B) {
	e := NewEngine(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(Cycle(i%13), fn)
		e.Schedule(Cycle(i%7), fn)
		e.Step()
		e.Step()
	}
}
