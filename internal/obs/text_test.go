package obs

import (
	"strings"
	"testing"
)

// TestEventStringEveryKind pins the text line of every event kind:
// the shared prefix (cycle, context, software thread, kind) and each
// kind's decoded payload.
func TestEventStringEveryKind(t *testing.T) {
	th := Event{Cycle: 1234, Core: 3, Thread: 1, TID: 7, Depth: 1}
	with := func(e Event, k Kind, f func(*Event)) Event {
		e.Kind = k
		f(&e)
		return e
	}
	cases := []struct {
		ev   Event
		want string
	}{
		{with(th, KindTxBegin, func(e *Event) { e.Arg = 0x1502 }),
			"      1234 c3.1    tid=7   tx-begin depth=1 ts=5378"},
		{with(th, KindTxBegin, func(e *Event) { e.Depth, e.Arg, e.Arg2 = 2, 0x1502, 1 }),
			"      1234 c3.1    tid=7   tx-begin depth=2 ts=5378 open"},
		{with(th, KindTxCommit, func(e *Event) { e.Arg, e.Arg2 = 4, 2 }),
			"      1234 c3.1    tid=7   tx-commit depth=1 reads=4 writes=2"},
		{with(th, KindTxCommit, func(e *Event) { e.Depth = 2 }),
			"      1234 c3.1    tid=7   tx-commit depth=2"},
		{with(th, KindTxAbort, func(e *Event) { e.Depth, e.Cause, e.Arg = 0, CauseStarvation, 3 }),
			"      1234 c3.1    tid=7   tx-abort depth=0 cause=starvation records=3"},
		{with(th, KindNack, func(e *Event) { e.Addr, e.Arg, e.Arg2 = 0x5100, 2, NackWrite|NackAllFalse|NackSticky }),
			"      1234 c3.1    tid=7   nack addr=0x5100 nackers=2 write alias sticky"},
		{with(th, KindStallStart, func(e *Event) { e.Addr, e.Arg = 0x5100, 2 }),
			"      1234 c3.1    tid=7   stall-start addr=0x5100 nackers=2"},
		{with(th, KindStallEnd, func(e *Event) { e.Addr, e.Arg = 0x5100, 90 }),
			"      1234 c3.1    tid=7   stall-end addr=0x5100 cycles=90"},
		{with(th, KindLogWalkStart, func(e *Event) { e.Cause = CauseConflict }),
			"      1234 c3.1    tid=7   log-walk-start depth=1 cause=conflict"},
		{with(th, KindLogWalkEnd, func(e *Event) { e.Depth, e.Cause, e.Arg = 0, CauseSummary, 5 }),
			"      1234 c3.1    tid=7   log-walk-end depth=0 cause=summary records=5"},
		{with(th, KindSummaryConflict, func(e *Event) { e.Addr = 0x40 }),
			"      1234 c3.1    tid=7   summary-conflict addr=0x40 depth=1"},
		{Event{Kind: KindStickyForward, Cycle: 88, Core: 2, Thread: -1, TID: -1, Addr: 0x1c0, Arg: 5},
			"        88 c2      -       sticky-forward addr=0x1c0 requester=c5"},
		{Event{Kind: KindFaultInject, Cycle: 500, Core: -1, Thread: -1, TID: -1, Addr: 0x80, Arg: 5, Arg2: 1},
			"       500 -       -       fault-inject class=5 addr=0x80 arg=1"},
		{with(th, KindConflictEdge, func(e *Event) {
			e.Addr, e.Arg, e.Arg2 = 0x5100, 22, EdgeBlocker(6, 1)|NackWrite|NackAllOverflow
		}), "      1234 c3.1    tid=7   conflict-edge addr=0x5100 blocker=tid22@c6.1 write overflow"},
		{with(th, KindConflictEdge, func(e *Event) { e.Addr, e.Arg, e.Arg2 = 0x5100, EdgeNoTID, EdgeBlocker(4, 0) }),
			"      1234 c3.1    tid=7   conflict-edge addr=0x5100 blocker=?@c4.0"},
	}
	seen := map[Kind]bool{}
	for _, c := range cases {
		seen[c.ev.Kind] = true
		if got := c.ev.String(); got != c.want {
			t.Errorf("%v:\n got %q\nwant %q", c.ev.Kind, got, c.want)
		}
		if strings.Contains(c.ev.String(), "\n") {
			t.Errorf("%v: line contains a newline", c.ev.Kind)
		}
	}
	for k := Kind(0); k < kindMax; k++ {
		if !seen[k] {
			t.Errorf("kind %v has no pinned line", k)
		}
	}
}
