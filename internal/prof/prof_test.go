package prof

import (
	"strings"
	"testing"

	"logtmse/internal/addr"
	"logtmse/internal/obs"
)

func nack(tid, core, depth int, a addr.PAddr, flags uint64) obs.Event {
	return obs.Event{Kind: obs.KindNack, TID: tid, Core: core, Thread: 0, Depth: depth, Addr: a, Arg: 1, Arg2: flags}
}

func edge(tid int, a addr.PAddr, blockerTID, blockerCore int, flags uint64) obs.Event {
	return obs.Event{Kind: obs.KindConflictEdge, TID: tid, Depth: 1, Addr: a,
		Arg: uint64(blockerTID), Arg2: flags | obs.EdgeBlocker(blockerCore, 0)}
}

func TestAttributionPartition(t *testing.T) {
	p := New()
	a := addr.PAddr(0x1000)
	// True conflict (no all-false bit), outer write.
	p.Emit(nack(0, 0, 1, a, obs.NackWrite))
	// Pure alias (all-false, not sticky), nested read.
	p.Emit(nack(1, 1, 2, a, obs.NackAllFalse))
	// Sticky carryover (all-false + sticky), outer read.
	p.Emit(nack(2, 2, 1, a, obs.NackAllFalse|obs.NackSticky))
	// Summary hit is separate.
	p.Emit(obs.Event{Kind: obs.KindSummaryConflict, TID: 3, Addr: a})

	if p.Attr.True != 1 || p.Attr.Alias != 1 || p.Attr.Sticky != 1 || p.Attr.Summary != 1 {
		t.Fatalf("partition = %+v, want 1/1/1/1", p.Attr)
	}
	if got := p.Attr.TotalNacks(); got != 3 {
		t.Errorf("TotalNacks = %d, want 3", got)
	}
	if got := p.Attr.FalsePositives(); got != 2 {
		t.Errorf("FalsePositives = %d, want 2", got)
	}
	b := p.Blocks()[a]
	if b == nil {
		t.Fatal("no block accumulator")
	}
	if b.Nacks != 3 || b.True != 1 || b.Alias != 1 || b.Sticky != 1 || b.Summary != 1 {
		t.Errorf("block = %+v", *b)
	}
	if b.OuterNacks != 2 || b.NestedNacks != 1 {
		t.Errorf("phase split outer/nested = %d/%d, want 2/1", b.OuterNacks, b.NestedNacks)
	}
	if b.ReadNacks != 2 || b.WriteNacks != 1 {
		t.Errorf("r/w split = %d/%d, want 2/1", b.ReadNacks, b.WriteNacks)
	}
	for c := 0; c < 3; c++ {
		if b.ByRequester[c] != 1 {
			t.Errorf("ByRequester[%d] = %d, want 1", c, b.ByRequester[c])
		}
	}
}

func TestBlameGraphCycleDetection(t *testing.T) {
	p := New()
	a := addr.PAddr(0x2000)
	// Build the three-party wait loop 0 -> 1 -> 2 -> 0.
	for _, pair := range [][2]int{{0, 1}, {1, 2}, {2, 0}} {
		p.Emit(nack(pair[0], pair[0], 1, a, 0))
		p.Emit(edge(pair[0], a, pair[1], pair[1], 0))
	}
	if got := p.Edges()[Edge{From: 2, To: 0}]; got != 1 {
		t.Fatalf("edge 2->0 count = %d, want 1", got)
	}
	if !p.inCycle(0) || !p.inCycle(1) || !p.inCycle(2) {
		t.Fatal("three-party loop not detected as a cycle")
	}
	// Thread 0 aborts on the cycle.
	p.Emit(obs.Event{Kind: obs.KindTxAbort, TID: 0, Cause: obs.CauseConflict, Depth: 0, Cycle: 100})
	if p.ConflictAborts != 1 || p.CycleAborts != 1 {
		t.Fatalf("conflict/cycle aborts = %d/%d, want 1/1", p.ConflictAborts, p.CycleAborts)
	}
	// Thread 0's wait set is reset by the abort: a second conflict abort
	// without fresh edges is off-cycle.
	p.Emit(obs.Event{Kind: obs.KindTxAbort, TID: 0, Cause: obs.CauseConflict, Depth: 0, Cycle: 120})
	if p.ConflictAborts != 2 || p.CycleAborts != 1 {
		t.Fatalf("after reset: conflict/cycle aborts = %d/%d, want 2/1", p.ConflictAborts, p.CycleAborts)
	}
}

func TestWaitSetSurvivesStallEnd(t *testing.T) {
	// The engine closes the stall episode before emitting the abort, so
	// the wait set must survive KindStallEnd for the abort-time cycle
	// check.
	p := New()
	a := addr.PAddr(0x3000)
	p.Emit(nack(0, 0, 1, a, 0))
	p.Emit(edge(0, a, 1, 1, 0))
	p.Emit(nack(1, 1, 1, a, 0))
	p.Emit(edge(1, a, 0, 0, 0))
	p.Emit(obs.Event{Kind: obs.KindStallEnd, TID: 0, Arg: 40})
	if got := p.WaitingOn(0); len(got) != 1 || got[0] != 1 {
		t.Fatalf("WaitingOn(0) = %v after StallEnd, want [1]", got)
	}
	p.Emit(obs.Event{Kind: obs.KindTxAbort, TID: 0, Cause: obs.CauseConflict, Depth: 0})
	if p.CycleAborts != 1 {
		t.Fatalf("cycle abort missed when stall ended before the abort event")
	}
}

func TestWastedWorkAccounting(t *testing.T) {
	p := New()
	p.Emit(obs.Event{Kind: obs.KindTxBegin, TID: 0, Depth: 1, Cycle: 100})
	p.Emit(obs.Event{Kind: obs.KindTxAbort, TID: 0, Cause: obs.CauseConflict, Depth: 0, Cycle: 350, Arg: 7})
	w := p.Wasted[obs.CauseConflict]
	if w.Aborts != 1 || w.Cycles != 250 || w.Records != 7 {
		t.Fatalf("wasted = %+v, want {1 250 7}", w)
	}
}

func TestStallChains(t *testing.T) {
	p := New()
	a := addr.PAddr(0x4000)
	// 1 stalls on 2; then 0 stalls on 1 -> chain depth 2.
	p.Emit(nack(1, 1, 1, a, 0))
	p.Emit(edge(1, a, 2, 2, 0))
	p.Emit(obs.Event{Kind: obs.KindStallStart, TID: 1, Addr: a})
	p.Emit(nack(0, 0, 1, a, 0))
	p.Emit(edge(0, a, 1, 1, 0))
	p.Emit(obs.Event{Kind: obs.KindStallStart, TID: 0, Addr: a})
	if p.MaxChainDepth != 2 {
		t.Fatalf("MaxChainDepth = %d, want 2", p.MaxChainDepth)
	}
	// 1's episode ends with 100 cycles; 0's with 60 on top of 1's 100.
	p.Emit(obs.Event{Kind: obs.KindStallEnd, TID: 1, Arg: 100})
	p.Emit(obs.Event{Kind: obs.KindStallEnd, TID: 0, Arg: 60})
	if p.MaxChainCycles != 100 {
		// 1 was no longer stalling when 0's episode closed; 0's chain is
		// its own 60 cycles, so the maximum stays 1's 100.
		t.Fatalf("MaxChainCycles = %d, want 100", p.MaxChainCycles)
	}
	if p.Blocks()[a].StallCycles != 160 {
		t.Fatalf("block stall cycles = %d, want 160", p.Blocks()[a].StallCycles)
	}
}

func TestMergeAndReport(t *testing.T) {
	a := addr.PAddr(0x5000)
	mk := func() *Profiler {
		p := New()
		p.Emit(nack(0, 0, 1, a, 0))
		p.Emit(edge(0, a, 1, 1, 0))
		p.Emit(obs.Event{Kind: obs.KindSummaryConflict, TID: 1, Addr: a})
		p.Emit(obs.Event{Kind: obs.KindStickyForward, Core: 1, TID: -1, Addr: a})
		return p
	}
	m := New()
	m.Merge(mk())
	m.Merge(mk())
	if m.Attr.True != 2 || m.Attr.Summary != 2 {
		t.Fatalf("merged attr = %+v", m.Attr)
	}
	b := m.Blocks()[a]
	if b.Nacks != 2 || b.Summary != 2 || b.StickyForwards != 2 || b.ByRequester[0] != 2 || b.ByResponder[1] != 2 {
		t.Fatalf("merged block = %+v", *b)
	}
	if m.Edges()[Edge{From: 0, To: 1}] != 2 {
		t.Fatalf("merged edges = %v", m.Edges())
	}
	var sb strings.Builder
	m.Report(&sb, 5)
	out := sb.String()
	for _, want := range []string{"true conflicts", "hottest blocks", "hottest pages", "blame graph", "stall chains"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// Report is deterministic.
	var sb2 strings.Builder
	m.Report(&sb2, 5)
	if out != sb2.String() {
		t.Error("two reports of the same profiler differ")
	}
}

func TestProfilerEmitAllocationFree(t *testing.T) {
	p := New()
	a := addr.PAddr(0x6000)
	evs := []obs.Event{
		{Kind: obs.KindTxBegin, TID: 0, Depth: 1},
		nack(0, 0, 1, a, 0),
		edge(0, a, 1, 1, 0),
		{Kind: obs.KindStallStart, TID: 0, Addr: a},
		{Kind: obs.KindStallEnd, TID: 0, Arg: 10},
		{Kind: obs.KindTxAbort, TID: 0, Cause: obs.CauseConflict, Depth: 0, Arg: 3},
		{Kind: obs.KindTxCommit, TID: 0, Depth: 1},
	}
	// Warm up: first touches grow the tid table and create the block
	// accumulator.
	for _, e := range evs {
		p.Emit(e)
	}
	avg := testing.AllocsPerRun(200, func() {
		for _, e := range evs {
			p.Emit(e)
		}
	})
	if avg != 0 {
		t.Errorf("steady-state Emit allocates %.1f times per event batch, want 0", avg)
	}
}
