package sim

import (
	"testing"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.Schedule(10, func() { order = append(order, 2) })
	e.Schedule(5, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 3) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("events out of order: %v", order)
	}
	if e.Now() != 20 {
		t.Errorf("final cycle = %d, want 20", e.Now())
	}
}

func TestTieBreakIsFIFO(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(7, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-cycle events not FIFO at %d: %v", i, order[:i+1])
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	var got []Cycle
	e.Schedule(1, func() {
		got = append(got, e.Now())
		e.Schedule(4, func() { got = append(got, e.Now()) })
		e.Schedule(0, func() { got = append(got, e.Now()) })
	})
	e.Run()
	want := []Cycle{1, 1, 5}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("nested schedule fired at %v, want %v", got, want)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(1)
	count := 0
	for i := Cycle(1); i <= 10; i++ {
		e.Schedule(i*10, func() { count++ })
	}
	e.RunUntil(50)
	if count != 5 {
		t.Errorf("RunUntil(50) executed %d events, want 5", count)
	}
	if e.Pending() != 5 {
		t.Errorf("Pending() = %d, want 5", e.Pending())
	}
	e.Run()
	if count != 10 {
		t.Errorf("after Run, count = %d, want 10", count)
	}
}

func TestDeterministicRand(t *testing.T) {
	a := NewEngine(42).Rand().Uint64()
	b := NewEngine(42).Rand().Uint64()
	c := NewEngine(43).Rand().Uint64()
	if a != b {
		t.Errorf("same seed produced different streams")
	}
	if a == c {
		t.Errorf("different seeds produced identical first value (unlikely)")
	}
}

// TestInt63MatchesRandInt63n pins the direct draw the NACK-retry jitter
// uses: Int63()&7 yields exactly Rand().Int63n(8)'s values and advances
// RandDraws by one per draw, from a cold engine, interleaved with Rand
// draws, and after RestoreState fast-forwards the source with Skip.
func TestInt63MatchesRandInt63n(t *testing.T) {
	const n = 100_000
	direct, ref := NewEngine(7), NewEngine(7)
	for i := 0; i < n; i++ {
		if i%1000 == 999 { // the other draws the engine serves
			if a, b := direct.Rand().Int63n(100), ref.Rand().Int63n(100); a != b {
				t.Fatalf("interleaved Rand draw %d: %d vs %d", i, a, b)
			}
		}
		if got, want := direct.Int63()&7, ref.Rand().Int63n(8); got != want {
			t.Fatalf("draw %d: Int63()&7 = %d, Rand().Int63n(8) = %d", i, got, want)
		}
	}
	if direct.RandDraws() != ref.RandDraws() {
		t.Fatalf("RandDraws %d, want %d", direct.RandDraws(), ref.RandDraws())
	}

	// Restore both from the reference's state: the direct draw continues
	// the skipped-ahead stream, whether or not the engine had built its
	// source before the restore.
	st := ref.State()
	for _, warm := range []bool{false, true} {
		restored := NewEngine(99)
		if warm {
			restored.Int63()
		}
		restored.RestoreState(st)
		cont := NewEngine(7)
		cont.RestoreState(st)
		for i := 0; i < n; i++ {
			if got, want := restored.Int63()&7, cont.Rand().Int63n(8); got != want {
				t.Fatalf("warm=%v: restored draw %d: %d vs %d", warm, i, got, want)
			}
		}
		if got, want := restored.RandDraws(), st.RandDraws+n; got != want {
			t.Errorf("warm=%v: restored RandDraws %d, want %d", warm, got, want)
		}
	}
}

func TestStepEmpty(t *testing.T) {
	e := NewEngine(1)
	if e.Step() {
		t.Errorf("Step on empty queue returned true")
	}
}

func TestWeakEventsDoNotExtendRun(t *testing.T) {
	e := NewEngine(1)
	var snaps []Cycle
	e.Schedule(70, func() {})
	// A self-rearming weak observer, like the metrics snapshotter.
	var arm func()
	arm = func() {
		e.ScheduleWeak(50, func() {
			snaps = append(snaps, e.Now())
			if e.PendingStrong() > 0 {
				arm()
			}
		})
	}
	arm()
	if got := e.Run(); got != 70 {
		t.Errorf("Run = %d, want 70 (weak events must not extend the run)", got)
	}
	// The first snapshot (cycle 50) saw strong work pending and re-armed;
	// the second (cycle 100) fired after the model finished and stopped.
	if len(snaps) != 2 || snaps[0] != 50 || snaps[1] != 100 {
		t.Errorf("snapshots = %v, want [50 100]", snaps)
	}
	if e.Pending() != 0 {
		t.Errorf("queue not drained")
	}
}

func TestWeakEventsIgnoredByRunUntil(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(30, func() {})
	e.ScheduleWeak(40, func() {})
	e.Schedule(200, func() {})
	if got := e.RunUntil(100); got != 30 {
		t.Errorf("RunUntil = %d, want 30 (last strong cycle)", got)
	}
	if e.PendingStrong() != 1 {
		t.Errorf("PendingStrong = %d, want 1 (the cycle-200 event)", e.PendingStrong())
	}
	if got := e.Run(); got != 200 {
		t.Errorf("Run = %d, want 200", got)
	}
}
