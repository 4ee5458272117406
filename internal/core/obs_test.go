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
	p.Sink = &rec
	s := newSys(t, p)
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

// TestResetKeepsParamsSink pins Reset's just-constructed promise for
// the event stream: Params.Sink is configuration, so the same program
// run before and after a Reset emits the same events — from the engine
// and from the protocol alike — into it.
func TestResetKeepsParamsSink(t *testing.T) {
	counts := map[obs.Kind]uint64{}
	p := smallParams()
	p.Sink = obs.FuncSink(func(e obs.Event) { counts[e.Kind]++ })
	s := newSys(t, p)
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
	if after := run(); !maps.Equal(before, after) {
		t.Errorf("event counts after Reset = %v, before = %v", after, before)
	}
}

// TestMetricsHistogramsFed verifies AttachMetrics feeds the histograms
// during a run and the snapshot schedule drains with the engine.
func TestMetricsHistogramsFed(t *testing.T) {
	s := newSys(t, smallParams())
	m := obs.NewCoreMetrics(obs.NewRegistry())
	s.AttachMetrics(m, 100)
	pt := s.NewPageTable(1)
	for c := 0; c < 4; c++ {
		if _, err := s.SpawnOn(c, 0, "w", 1, pt, func(a *API) {
			for r := 0; r < 8; r++ {
				a.Transaction(func() {
					v := a.Load(0x200)
					a.Compute(50)
					a.Store(0x200, v+1)
				})
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	mustRun(t, s)
	st := s.Stats()
	if m.TxCycles.Count() != st.Commits {
		t.Errorf("TxCycles observations = %d, commits = %d", m.TxCycles.Count(), st.Commits)
	}
	if m.ReadSet.Count() != st.Commits || m.WriteSet.Count() != st.Commits {
		t.Errorf("set-size observations don't match commits")
	}
	if st.StallEpisodes > 0 && m.StallCycles.Count() == 0 {
		t.Errorf("stalls occurred but StallCycles is empty")
	}
	if len(m.Reg.Snapshots()) == 0 {
		t.Errorf("no interval snapshots recorded")
	}
	// The bound counters read the live stats: a snapshot taken now must
	// report the final counter values.
	m.Reg.Snapshot(s.Engine.Now())
	snaps := m.Reg.Snapshots()
	final := snaps[len(snaps)-1]
	cols := m.Reg.Header()
	col := func(name string) float64 {
		for i, c := range cols {
			if c == name {
				return final.Values[i-1] // Values excludes the cycle column
			}
		}
		t.Fatalf("column %q not registered", name)
		return 0
	}
	for _, c := range []struct {
		name string
		want uint64
	}{{"tx.commits", st.Commits}, {"tx.begins", st.Begins}, {"work.units", st.WorkUnits}} {
		if got := col(c.name); got != float64(c.want) {
			t.Errorf("%s = %v, want %d", c.name, got, c.want)
		}
	}
}

// TestMetricsSnapshotZeroAlloc: interval sampling at every = 10 cycles,
// beside stalled waiters retrying on the lane, allocates nothing in
// steady state. One weak tick re-arms itself (sim ScheduleWeakEvery),
// and the samples share one growing value store, so only its amortized
// growth allocates.
func TestMetricsSnapshotZeroAlloc(t *testing.T) {
	X := addr.VAddr(0xa000)
	p := smallParams()
	s := newSys(t, p)
	m := obs.NewCoreMetrics(obs.NewRegistry())
	s.AttachMetrics(m, 10)
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
	before := len(m.Reg.Snapshots())
	if n := testing.AllocsPerRun(100, func() {
		s.RunUntil(s.Engine.Now() + 1000)
	}); n != 0 {
		t.Errorf("sampling every 10 cycles allocated %.1f times per 1,000 cycles, want 0", n)
	}
	if got := len(m.Reg.Snapshots()) - before; got < 100*1000/10 {
		t.Errorf("%d interval samples in the measured window, want at least %d", got, 100*1000/10)
	}
}
