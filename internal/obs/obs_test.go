package obs

import (
	"strings"
	"testing"
)

func TestKindStrings(t *testing.T) {
	for k := Kind(0); k < kindMax; k++ {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "Kind(") {
			t.Errorf("kind %d has no name", k)
		}
	}
	if Kind(200).String() != "Kind(200)" {
		t.Errorf("out-of-range kind: %s", Kind(200))
	}
}

func TestAbortCauseStrings(t *testing.T) {
	want := map[AbortCause]string{
		CauseNone: "none", CauseConflict: "conflict",
		CauseSummary: "summary", CauseOverflow: "overflow",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), s)
		}
	}
	if AbortCause(99).String() != "AbortCause(99)" {
		t.Errorf("out-of-range cause: %s", AbortCause(99))
	}
}

func TestRecorderAndFuncSink(t *testing.T) {
	var r Recorder
	var calls int
	f := FuncSink(func(Event) { calls++ })
	s := Tee(&r, f)
	s.Emit(Event{Kind: KindTxBegin, Cycle: 7})
	s.Emit(Event{Kind: KindTxCommit, Cycle: 9})
	if len(r.Events) != 2 || calls != 2 {
		t.Fatalf("recorder %d events, func %d calls", len(r.Events), calls)
	}
	if r.Events[0].Kind != KindTxBegin || r.Events[1].Cycle != 9 {
		t.Errorf("events out of order: %+v", r.Events)
	}
}

func TestTeeCollapses(t *testing.T) {
	if Tee() != nil || Tee(nil, nil) != nil {
		t.Errorf("empty Tee not nil")
	}
	var r Recorder
	if Tee(nil, &r) != Sink(&r) {
		t.Errorf("single-sink Tee should unwrap")
	}
}

func TestCoreOffset(t *testing.T) {
	if CoreOffset(nil, 4) != nil {
		t.Errorf("nil base should stay nil")
	}
	var r Recorder
	if CoreOffset(&r, 0) != Sink(&r) {
		t.Errorf("zero offset should unwrap")
	}
	s := CoreOffset(&r, 16)
	s.Emit(Event{Kind: KindTxBegin, Core: 3})
	s.Emit(Event{Kind: KindStickyForward, Core: -1}) // unknown core stays unknown
	if r.Events[0].Core != 19 {
		t.Errorf("core = %d, want 19", r.Events[0].Core)
	}
	if r.Events[1].Core != -1 {
		t.Errorf("unknown core shifted to %d", r.Events[1].Core)
	}
}

// TestEmitAllocs pins the hot-path contract: emitting an event into a
// sink allocates nothing (the event is a value, never boxed).
func TestEmitAllocs(t *testing.T) {
	var s Sink = Discard{}
	e := Event{Kind: KindNack, Cycle: 123, Core: 1, TID: 2, Addr: 0x1000, Arg: 3}
	if n := testing.AllocsPerRun(1000, func() { s.Emit(e) }); n != 0 {
		t.Errorf("Discard.Emit allocates %v per event", n)
	}
	var off Sink = CoreOffset(Discard{}, 8)
	if n := testing.AllocsPerRun(1000, func() { off.Emit(e) }); n != 0 {
		t.Errorf("offsetSink.Emit allocates %v per event", n)
	}
}
