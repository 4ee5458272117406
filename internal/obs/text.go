package obs

import (
	"fmt"
	"strings"
)

// String renders the event as one line of text — the exporter over the
// event stream beside catapult JSON, and what `logtmsim -trace N` and
// `difftest -trace` print. The line reads: cycle, hardware context (cC.T, cC for protocol
// events, - when unknown), software thread (tid=N or -), kind, then the
// kind's payload decoded as key=value fields.
func (e Event) String() string {
	ctx, tid := "-", "-"
	if e.Core >= 0 && e.Thread >= 0 {
		ctx = fmt.Sprintf("c%d.%d", e.Core, e.Thread)
	} else if e.Core >= 0 {
		ctx = fmt.Sprintf("c%d", e.Core)
	}
	if e.TID >= 0 {
		tid = fmt.Sprintf("tid=%d", e.TID)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%10d %-7s %-7s %s", e.Cycle, ctx, tid, e.Kind)
	switch e.Kind {
	case KindTxBegin:
		fmt.Fprintf(&b, " depth=%d ts=%d", e.Depth, e.Arg)
		if e.Arg2 == 1 {
			b.WriteString(" open")
		}
	case KindTxCommit:
		fmt.Fprintf(&b, " depth=%d", e.Depth)
		if e.Depth == 1 {
			fmt.Fprintf(&b, " reads=%d writes=%d", e.Arg, e.Arg2)
		}
	case KindTxAbort, KindLogWalkEnd:
		fmt.Fprintf(&b, " depth=%d cause=%s records=%d", e.Depth, e.Cause, e.Arg)
	case KindLogWalkStart:
		fmt.Fprintf(&b, " depth=%d cause=%s", e.Depth, e.Cause)
	case KindNack, KindStallStart: // a stall start carries no flags
		fmt.Fprintf(&b, " addr=%#x nackers=%d", uint64(e.Addr), e.Arg)
		writeNackFlags(&b, e.Arg2)
	case KindConflictEdge:
		blocker := "?"
		if e.Arg != EdgeNoTID {
			blocker = fmt.Sprintf("tid%d", e.Arg)
		}
		core, thread := DecodeEdgeBlocker(e.Arg2)
		fmt.Fprintf(&b, " addr=%#x blocker=%s@c%d.%d", uint64(e.Addr), blocker, core, thread)
		writeNackFlags(&b, e.Arg2)
	case KindStallEnd:
		fmt.Fprintf(&b, " addr=%#x cycles=%d", uint64(e.Addr), e.Arg)
	case KindSummaryConflict:
		fmt.Fprintf(&b, " addr=%#x depth=%d", uint64(e.Addr), e.Depth)
	case KindStickyForward:
		fmt.Fprintf(&b, " addr=%#x requester=c%d", uint64(e.Addr), e.Arg)
	case KindFaultInject:
		fmt.Fprintf(&b, " class=%d addr=%#x arg=%d", e.Arg, uint64(e.Addr), e.Arg2)
	}
	return b.String()
}

var nackFlagNames = [...]struct {
	bit  uint64
	name string
}{{NackWrite, "write"}, {NackAllFalse, "alias"}, {NackSticky, "sticky"}, {NackAllOverflow, "overflow"}}

// writeNackFlags appends the set NackFlag bits as bare words.
func writeNackFlags(b *strings.Builder, flags uint64) {
	for _, f := range nackFlagNames {
		if flags&f.bit != 0 {
			b.WriteString(" " + f.name)
		}
	}
}
