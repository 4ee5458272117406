package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"logtmse/internal/sim"
)

// Slice and instant names used in the catapult export; cmd/txviz keys
// its summary off these.
const (
	NameTx         = "tx"
	NameTxNested   = "tx.nested"
	NameTxAborted  = "tx(aborted)"
	NameTxOpen     = "tx(unfinished)"
	NameStall      = "stall"
	NameLogWalk    = "log-walk"
	NameNack       = "nack"
	NameSummaryHit = "summary-conflict"
	NameStickyFwd  = "sticky-forward"
	protocolTid    = 1 << 20 // per-core synthetic track for protocol events
)

// TraceEvent is one Chrome trace-event ("catapult") record. Timestamps
// are in the format's microsecond unit; we map one simulated cycle to
// one microsecond, which only affects the displayed unit, not shapes.
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// CatapultTrace is the JSON-object form of the trace file, loadable by
// chrome://tracing and Perfetto. The exporter streams it (see
// CatapultWriter); this is the type a reader decodes it into.
type CatapultTrace struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// openFrame is a transaction begun but not yet committed or aborted.
type openFrame struct {
	begin sim.Cycle
	depth int
	core  int
}

// openSpan is an in-progress stall or log walk.
type openSpan struct {
	begin sim.Cycle
	core  int
	addr  uint64
	arg   uint64
}

// CatapultWriter is a Sink that folds the lifecycle event stream into a
// catapult trace: one process per core, one track per software thread,
// complete-duration ("X") slices for transactions, stalls and log
// walks, and instant events for NACKs, summary conflicts and sticky
// forwards. Each slice and instant is written as soon as it is known,
// so memory is bounded by the frames still open, not by the length of
// the run. Close closes the frames still open at the last observed
// cycle (labeling unfinished transactions NameTxOpen, e.g. after a run
// stopped at a cycle limit) and writes the document's trailer.
type CatapultWriter struct {
	w       *bufio.Writer
	err     error // first write error; nothing is written after it
	records int   // trace records written
	events  int   // lifecycle events folded

	stacks map[int][]openFrame // per software thread
	stalls map[int]openSpan
	walks  map[int]openSpan
	tracks map[[2]int]bool // (pid, tid) seen -> metadata emitted once
	last   sim.Cycle
}

// NewCatapultWriter returns a CatapultWriter that writes to w through
// its own buffer; Close flushes it.
func NewCatapultWriter(w io.Writer) *CatapultWriter {
	return &CatapultWriter{
		w:      bufio.NewWriter(w),
		stacks: make(map[int][]openFrame),
		stalls: make(map[int]openSpan),
		walks:  make(map[int]openSpan),
		tracks: make(map[[2]int]bool),
	}
}

// WriteCatapult encodes a recorded event stream as catapult JSON.
func WriteCatapult(w io.Writer, events []Event) error {
	c := NewCatapultWriter(w)
	for _, e := range events {
		c.Emit(e)
	}
	return c.Close()
}

// Events returns how many lifecycle events the writer has folded.
func (c *CatapultWriter) Events() int { return c.events }

// Close writes the frames still open, in thread-id order so the output
// is deterministic, then the trailer, flushes, and returns the first
// write error.
func (c *CatapultWriter) Close() error {
	for _, tid := range sortedKeys(c.stalls) {
		sp := c.stalls[tid]
		c.slice(NameStall, sp.core, tid, sp.begin, c.last,
			map[string]any{"addr": hexAddr(sp.addr), "nackers": sp.arg, "unfinished": true})
	}
	for _, tid := range sortedKeys(c.stacks) {
		st := c.stacks[tid]
		for i := len(st) - 1; i >= 0; i-- {
			f := st[i]
			c.slice(NameTxOpen, f.core, tid, f.begin, c.last, map[string]any{"depth": f.depth})
		}
	}
	// The same bytes json.Encoder writes for a CatapultTrace: an empty
	// trace has a null event list.
	if c.records == 0 {
		c.writeString(`{"traceEvents":null`)
	} else {
		c.writeString("]")
	}
	c.writeString(`,"displayTimeUnit":"ns"}` + "\n")
	if c.err == nil {
		c.err = c.w.Flush()
	}
	return c.err
}

// write appends one record to the event list.
func (c *CatapultWriter) write(ev TraceEvent) {
	if c.err != nil {
		return
	}
	buf, err := json.Marshal(ev)
	if err != nil {
		c.err = err
		return
	}
	if c.records == 0 {
		c.writeString(`{"traceEvents":[`)
	} else {
		c.writeString(",")
	}
	c.records++
	if c.err == nil {
		_, c.err = c.w.Write(buf)
	}
}

func (c *CatapultWriter) writeString(s string) {
	if c.err == nil {
		_, c.err = c.w.WriteString(s)
	}
}

// track emits name metadata the first time a (pid, tid) pair appears, so
// viewers label the rows.
func (c *CatapultWriter) track(pid, tid int) {
	key := [2]int{pid, tid}
	if c.tracks[key] {
		return
	}
	c.tracks[key] = true
	if !c.tracks[[2]int{pid, -1}] {
		c.tracks[[2]int{pid, -1}] = true
		c.write(TraceEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": fmt.Sprintf("core %d", pid)},
		})
	}
	tname := fmt.Sprintf("thread %d", tid)
	if tid == protocolTid {
		tname = "coherence"
	}
	c.write(TraceEvent{
		Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
		Args: map[string]any{"name": tname},
	})
}

func (c *CatapultWriter) slice(name string, pid, tid int, from, to sim.Cycle, args map[string]any) {
	c.track(pid, tid)
	c.write(TraceEvent{
		Name: name, Cat: "tx", Ph: "X",
		Ts: float64(from), Dur: float64(to - from),
		Pid: pid, Tid: tid, Args: args,
	})
}

func (c *CatapultWriter) instant(name string, pid, tid int, at sim.Cycle, args map[string]any) {
	c.track(pid, tid)
	c.write(TraceEvent{
		Name: name, Cat: "conflict", Ph: "i", S: "t",
		Ts: float64(at), Pid: pid, Tid: tid, Args: args,
	})
}

func hexAddr(a uint64) string { return fmt.Sprintf("0x%x", a) }

// Emit folds one lifecycle event into the trace.
func (c *CatapultWriter) Emit(e Event) {
	c.events++
	if e.Cycle > c.last {
		c.last = e.Cycle
	}
	pid, tid := e.Core, e.TID
	if pid < 0 {
		pid = 0
	}
	switch e.Kind {
	case KindTxBegin:
		c.stacks[e.TID] = append(c.stacks[e.TID], openFrame{begin: e.Cycle, depth: e.Depth, core: pid})
	case KindTxCommit:
		c.pop(e.TID, e.Depth-1, e.Cycle, func(f openFrame) (string, map[string]any) {
			if f.depth == 1 {
				return NameTx, map[string]any{"reads": e.Arg, "writes": e.Arg2}
			}
			return NameTxNested, map[string]any{"depth": f.depth}
		})
	case KindTxAbort:
		c.pop(e.TID, e.Depth, e.Cycle, func(f openFrame) (string, map[string]any) {
			return NameTxAborted, map[string]any{"depth": f.depth, "cause": e.Cause.String(), "records": e.Arg}
		})
	case KindStallStart:
		c.stalls[e.TID] = openSpan{begin: e.Cycle, core: pid, addr: uint64(e.Addr), arg: e.Arg}
	case KindStallEnd:
		if sp, ok := c.stalls[e.TID]; ok {
			delete(c.stalls, e.TID)
			c.slice(NameStall, sp.core, tid, sp.begin, e.Cycle,
				map[string]any{"addr": hexAddr(sp.addr), "nackers": sp.arg})
		}
	case KindLogWalkStart:
		c.walks[e.TID] = openSpan{begin: e.Cycle, core: pid}
	case KindLogWalkEnd:
		if sp, ok := c.walks[e.TID]; ok {
			delete(c.walks, e.TID)
			c.slice(NameLogWalk, sp.core, tid, sp.begin, e.Cycle,
				map[string]any{"records": e.Arg})
		}
	case KindNack:
		c.instant(NameNack, pid, tid, e.Cycle,
			map[string]any{"addr": hexAddr(uint64(e.Addr)), "nackers": e.Arg})
	case KindSummaryConflict:
		c.instant(NameSummaryHit, pid, tid, e.Cycle,
			map[string]any{"addr": hexAddr(uint64(e.Addr))})
	case KindStickyForward:
		c.instant(NameStickyFwd, pid, protocolTid, e.Cycle,
			map[string]any{"addr": hexAddr(uint64(e.Addr)), "requester": e.Arg})
	}
}

// pop closes every open frame deeper than toDepth, innermost first.
func (c *CatapultWriter) pop(tid, toDepth int, at sim.Cycle, label func(openFrame) (string, map[string]any)) {
	st := c.stacks[tid]
	for len(st) > 0 && st[len(st)-1].depth > toDepth {
		f := st[len(st)-1]
		st = st[:len(st)-1]
		name, args := label(f)
		c.slice(name, f.core, tid, f.begin, at, args)
	}
	c.stacks[tid] = st
}

func sortedKeys[V any](m map[int]V) []int {
	ks := make([]int, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}
