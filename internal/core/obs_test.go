package core

import (
	"fmt"
	"maps"
	"testing"

	"logtmse/internal/addr"
	"logtmse/internal/obs"
)

// TestEmitZeroAllocs pins the overhead contract of the probe interface:
// with a nil sink emit is a guarded no-op, and even with a live sink the
// event value is never boxed — zero allocations per event either way.
func TestEmitZeroAllocs(t *testing.T) {
	s := newSys(t, smallParams())
	pt := s.NewPageTable(1)
	th, err := s.SpawnOn(0, 0, "t0", 1, pt, func(a *API) {})
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() {
		s.emit(obs.KindNack, th, obs.CauseNone, 1, 0x4000, 2, 0)
	}); n != 0 {
		t.Errorf("emit with nil sink allocates %v per event", n)
	}
	s.Sink = obs.Discard{}
	if n := testing.AllocsPerRun(1000, func() {
		s.emit(obs.KindNack, th, obs.CauseNone, 1, 0x4000, 2, 0)
	}); n != 0 {
		t.Errorf("emit with live sink allocates %v per event", n)
	}
}

// TestLifecycleEventStream cross-checks the emitted event stream against
// the engine's own counters on a contended run: every counter the stats
// track has a matching event population, stall episodes balance, and
// cycle stamps never go backwards.
func TestLifecycleEventStream(t *testing.T) {
	p := smallParams()
	var rec obs.Recorder
	s := newSys(t, p)
	s.AttachSink(&rec)
	pt := s.NewPageTable(1)
	for c := 0; c < 4; c++ {
		if _, err := s.SpawnOn(c, 0, "w", 1, pt, func(a *API) {
			for r := 0; r < 8; r++ {
				a.Transaction(func() {
					v := a.Load(0x100)
					a.Compute(30)
					a.Store(0x100, v+1)
				})
				a.Compute(10)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	mustRun(t, s)
	st := s.Stats()
	if st.Commits != 32 {
		t.Fatalf("commits = %d, want 32", st.Commits)
	}

	counts := map[obs.Kind]uint64{}
	last := rec.Events[0].Cycle
	for _, e := range rec.Events {
		counts[e.Kind]++
		if e.Cycle < last {
			t.Fatalf("event stream not time-ordered: %d after %d", e.Cycle, last)
		}
		last = e.Cycle
	}
	if counts[obs.KindTxBegin] != st.Begins+st.NestedBegins {
		t.Errorf("begin events = %d, stats say %d", counts[obs.KindTxBegin], st.Begins+st.NestedBegins)
	}
	if counts[obs.KindTxCommit] != st.Commits+st.NestedCommits {
		t.Errorf("commit events = %d, stats say %d", counts[obs.KindTxCommit], st.Commits+st.NestedCommits)
	}
	if counts[obs.KindTxAbort] != st.Aborts {
		t.Errorf("abort events = %d, stats say %d", counts[obs.KindTxAbort], st.Aborts)
	}
	if counts[obs.KindNack] != st.Stalls {
		t.Errorf("nack events = %d, stats say %d", counts[obs.KindNack], st.Stalls)
	}
	if counts[obs.KindStallStart] != st.StallEpisodes {
		t.Errorf("stall-start events = %d, stats say %d", counts[obs.KindStallStart], st.StallEpisodes)
	}
	if counts[obs.KindStallStart] != counts[obs.KindStallEnd] {
		t.Errorf("stall episodes unbalanced: %d starts, %d ends",
			counts[obs.KindStallStart], counts[obs.KindStallEnd])
	}
	if counts[obs.KindLogWalkStart] != st.Aborts || counts[obs.KindLogWalkEnd] != st.Aborts {
		t.Errorf("log-walk events (%d/%d) don't match %d aborts",
			counts[obs.KindLogWalkStart], counts[obs.KindLogWalkEnd], st.Aborts)
	}
	// Outermost commit events carry the set sizes the stats summed.
	var rs, ws uint64
	for _, e := range rec.Events {
		if e.Kind == obs.KindTxCommit && e.Depth == 1 {
			rs += e.Arg
			ws += e.Arg2
		}
	}
	if rs != st.ReadSetSum || ws != st.WriteSetSum {
		t.Errorf("commit-event set sizes %d/%d, stats %d/%d", rs, ws, st.ReadSetSum, st.WriteSetSum)
	}
}

// TestResetClearsSink pins Reset's just-constructed promise for the
// event stream: a sink is attached like a checker, so Reset detaches it
// from the engine and the protocol alike, and re-attaching it makes the
// same program emit the same events as before the Reset.
func TestResetClearsSink(t *testing.T) {
	counts := map[obs.Kind]uint64{}
	sink := obs.FuncSink(func(e obs.Event) { counts[e.Kind]++ })
	p := smallParams()
	s := newSys(t, p)
	s.AttachSink(sink)
	run := func() map[obs.Kind]uint64 {
		clear(counts)
		pt := s.NewPageTable(1)
		for c := 0; c < 4; c++ {
			if _, err := s.SpawnOn(c, 0, "w", 1, pt, func(a *API) {
				for r := 0; r < 8; r++ {
					a.Transaction(func() {
						v := a.Load(0x100)
						a.Compute(30)
						a.Store(0x100, v+1)
					})
					a.Compute(10)
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
		mustRun(t, s)
		return maps.Clone(counts)
	}
	before := run()
	if before[obs.KindTxBegin] == 0 || before[obs.KindNack] == 0 {
		t.Fatalf("program emitted %d begins and %d NACKs, want both nonzero",
			before[obs.KindTxBegin], before[obs.KindNack])
	}
	if err := s.Reset(p.Seed); err != nil {
		t.Fatal(err)
	}
	if detached := run(); len(detached) != 0 {
		t.Errorf("Reset kept the sink attached: it received %v", detached)
	}
	if err := s.Reset(p.Seed); err != nil {
		t.Fatal(err)
	}
	s.AttachSink(sink)
	if after := run(); !maps.Equal(before, after) {
		t.Errorf("event counts after Reset and re-attach = %v, before = %v", after, before)
	}
}

// TestWeakTickZeroAlloc: a weak tick every 10 cycles, beside stalled
// waiters retrying on the lane, allocates nothing in steady state. The
// tick re-arms itself (sim ScheduleWeakEvery), the way the checker's
// and the fault injector's periodic probes ride the engine.
func TestWeakTickZeroAlloc(t *testing.T) {
	X := addr.VAddr(0xa000)
	p := smallParams()
	s := newSys(t, p)
	ticks := 0
	s.Engine.ScheduleWeakEvery(10, func() bool {
		ticks++
		return true
	})
	pt := s.NewPageTable(1)
	spawn(t, s, 0, 0, "holder", pt, func(a *API) {
		a.Transaction(func() {
			a.Store(X, 1)
			a.Compute(10_000_000)
		})
	})
	for core := 1; core < p.Cores; core++ {
		spawn(t, s, core, 0, fmt.Sprintf("waiter%d", core), pt, func(a *API) {
			a.Compute(1500)
			a.Transaction(func() { a.Store(X, 2) })
		})
	}
	s.RunUntil(50_000)
	before := ticks
	if n := testing.AllocsPerRun(100, func() {
		s.RunUntil(s.Engine.Now() + 1000)
	}); n != 0 {
		t.Errorf("ticking every 10 cycles allocated %.1f times per 1,000 cycles, want 0", n)
	}
	if got := ticks - before; got < 100*1000/10 {
		t.Errorf("%d ticks in the measured window, want at least %d", got, 100*1000/10)
	}
}
