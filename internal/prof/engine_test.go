package prof_test

import (
	"testing"

	"logtmse/internal/addr"
	"logtmse/internal/core"
	"logtmse/internal/prof"
)

// TestProfilerReconcilesThreeCoreCycle replays the engine's genuine
// three-party deadlock regression (t0 holds A wants B, t1 holds B wants
// C, t2 holds C wants A — only the possible_cycle rule can break it
// under ResolveStallAbort) with a Profiler attached, and checks that
// every attribution counter reconciles exactly against the engine's own
// Stats, and that the blame graph saw the cycle the engine inferred.
func TestProfilerReconcilesThreeCoreCycle(t *testing.T) {
	params := core.DefaultParams()
	params.Cores = 4
	params.GridW, params.GridH = 2, 2
	params.L1Bytes = 4 * 1024
	params.L2Bytes = 64 * 1024
	params.L2Banks = 4
	params.Resolution = core.ResolveStallAbort
	p := prof.New()
	s, err := core.NewSystem(params)
	if err != nil {
		t.Fatal(err)
	}
	s.AttachSink(p)
	pt := s.NewPageTable(1)
	A, B, C := addr.VAddr(0xa000), addr.VAddr(0xb000), addr.VAddr(0xc000)
	spin := func(first, second addr.VAddr) func(a *core.API) {
		return func(a *core.API) {
			for i := 0; i < 3; i++ {
				a.Transaction(func() {
					a.Store(first, a.Load(first)+1)
					a.Compute(2500) // overlap all three holders
					a.Store(second, a.Load(second)+1)
				})
				a.Compute(50)
			}
		}
	}
	for i, fn := range []func(a *core.API){spin(A, B), spin(B, C), spin(C, A)} {
		if _, err := s.SpawnOn(i, 0, "t", 1, pt, fn); err != nil {
			t.Fatal(err)
		}
	}
	s.Run()
	if !s.AllDone() {
		t.Fatalf("threads stuck: %v", s.Stuck())
	}
	st := s.Stats()
	if st.Commits != 9 || st.PossibleCycleAborts == 0 {
		t.Fatalf("unexpected engine outcome: commits=%d possible-cycle-aborts=%d",
			st.Commits, st.PossibleCycleAborts)
	}

	// The attribution partition must sum exactly to the engine totals.
	if got := p.Attr.TotalNacks(); got != st.Stalls {
		t.Errorf("attributed NACKs = %d, engine stalls = %d", got, st.Stalls)
	}
	if got := p.Attr.FalsePositives(); got != st.FalsePositiveStalls {
		t.Errorf("attributed false positives = %d, engine = %d", got, st.FalsePositiveStalls)
	}
	if p.Attr.Summary != st.SummaryConflicts {
		t.Errorf("attributed summary hits = %d, engine = %d", p.Attr.Summary, st.SummaryConflicts)
	}
	if p.ConflictAborts != st.PossibleCycleAborts {
		t.Errorf("conflict aborts = %d, engine possible-cycle aborts = %d",
			p.ConflictAborts, st.PossibleCycleAborts)
	}
	if p.CycleAborts > p.ConflictAborts {
		t.Errorf("cycle aborts %d exceed conflict aborts %d", p.CycleAborts, p.ConflictAborts)
	}
	// A genuine three-party loop: the blame graph must have caught at
	// least one abort sitting on a real cycle.
	if p.CycleAborts == 0 {
		t.Errorf("engine broke a real deadlock %d times but no abort sat on a blame cycle",
			st.PossibleCycleAborts)
	}
	// All six wait directions of the loop show up as edges over the run.
	if len(p.Edges()) == 0 {
		t.Error("no blame edges recorded")
	}
	for e, n := range p.Edges() {
		if e.From < 0 || e.From > 2 || e.To < 0 || e.To > 2 || n == 0 {
			t.Errorf("implausible edge %+v x%d for a three-thread run", e, n)
		}
	}
}
