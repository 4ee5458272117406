package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// sampleEvents exercises every event kind: a committed nested
// transaction, an aborted attempt with a log walk, a stall episode, the
// protocol instants, and one transaction left open at stream end.
func sampleEvents() []Event {
	return []Event{
		{Kind: KindTxBegin, Cycle: 100, Core: 0, Thread: 0, TID: 1, Depth: 1},
		{Kind: KindTxBegin, Cycle: 120, Core: 0, Thread: 0, TID: 1, Depth: 2},
		{Kind: KindTxCommit, Cycle: 150, Core: 0, Thread: 0, TID: 1, Depth: 2},
		{Kind: KindNack, Cycle: 160, Core: 0, Thread: 0, TID: 1, Depth: 1, Addr: 0x4000, Arg: 2},
		{Kind: KindStallStart, Cycle: 160, Core: 0, Thread: 0, TID: 1, Depth: 1, Addr: 0x4000, Arg: 2},
		{Kind: KindStallEnd, Cycle: 210, Core: 0, Thread: 0, TID: 1, Depth: 1, Addr: 0x4000, Arg: 50},
		{Kind: KindTxCommit, Cycle: 250, Core: 0, Thread: 0, TID: 1, Depth: 1, Arg: 5, Arg2: 3},

		{Kind: KindTxBegin, Cycle: 105, Core: 1, Thread: 1, TID: 2, Depth: 1},
		{Kind: KindSummaryConflict, Cycle: 130, Core: 1, Thread: 1, TID: 2, Depth: 1, Addr: 0x8000},
		{Kind: KindLogWalkStart, Cycle: 131, Core: 1, Thread: 1, TID: 2, Depth: 1},
		{Kind: KindLogWalkEnd, Cycle: 170, Core: 1, Thread: 1, TID: 2, Depth: 0, Arg: 4},
		{Kind: KindTxAbort, Cycle: 170, Core: 1, Thread: 1, TID: 2, Depth: 0, Cause: CauseSummary, Arg: 4},

		{Kind: KindStickyForward, Cycle: 180, Core: 2, Thread: -1, TID: -1, Addr: 0xc000, Arg: 1},

		{Kind: KindTxBegin, Cycle: 300, Core: 3, Thread: 0, TID: 7, Depth: 1}, // never closed
	}
}

func TestCatapultGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCatapult(&buf, sampleEvents()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "catapult_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("catapult output drifted from golden file:\n got: %s\nwant: %s\n(run with -update to accept)", buf.Bytes(), want)
	}
}

// TestCatapultEmptyStream: a stream with no events still writes a
// whole document, with the null event list json.Encoder writes for an
// empty CatapultTrace.
func TestCatapultEmptyStream(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCatapult(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), `{"traceEvents":null,"displayTimeUnit":"ns"}`+"\n"; got != want {
		t.Errorf("empty trace = %q, want %q", got, want)
	}
}

// TestCatapultWriterReportsWriteError: a failing destination surfaces
// from Close, and the writer stops writing after the first error.
func TestCatapultWriterReportsWriteError(t *testing.T) {
	w := &failWriter{}
	c := NewCatapultWriter(w)
	for _, e := range sampleEvents() {
		c.Emit(e)
	}
	if err := c.Close(); err == nil {
		t.Fatal("Close returned nil on a failing writer")
	}
	if c.Events() != len(sampleEvents()) {
		t.Errorf("Events() = %d, want %d", c.Events(), len(sampleEvents()))
	}
	if w.calls != 1 {
		t.Errorf("writer called %d times after failing, want 1", w.calls)
	}
}

type failWriter struct{ calls int }

func (f *failWriter) Write([]byte) (int, error) {
	f.calls++
	return 0, errors.New("disk full")
}

func TestCatapultJSONRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCatapult(&buf, sampleEvents()); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("output is not valid JSON")
	}
	var doc CatapultTrace
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	counts := map[string]int{}
	for _, e := range doc.TraceEvents {
		counts[e.Ph+"/"+e.Name]++
	}
	wantCounts := map[string]int{
		"X/" + NameTx:         1,
		"X/" + NameTxNested:   1,
		"X/" + NameTxAborted:  1,
		"X/" + NameTxOpen:     1,
		"X/" + NameStall:      1,
		"X/" + NameLogWalk:    1,
		"i/" + NameNack:       1,
		"i/" + NameSummaryHit: 1,
		"i/" + NameStickyFwd:  1,
	}
	for k, n := range wantCounts {
		if counts[k] != n {
			t.Errorf("%s events = %d, want %d (have %v)", k, counts[k], n, counts)
		}
	}
	// Every slice and instant must sit on a named track.
	named := map[[2]int]bool{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" && e.Name == "thread_name" {
			named[[2]int{e.Pid, e.Tid}] = true
		}
	}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" || e.Ph == "i" {
			if !named[[2]int{e.Pid, e.Tid}] {
				t.Errorf("event %s on unnamed track (pid %d, tid %d)", e.Name, e.Pid, e.Tid)
			}
		}
	}
}

// decodeCatapult writes the event stream as catapult JSON and decodes
// it back.
func decodeCatapult(t *testing.T, evs []Event) CatapultTrace {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteCatapult(&buf, evs); err != nil {
		t.Fatal(err)
	}
	var doc CatapultTrace
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestCatapultSliceShapes(t *testing.T) {
	doc := decodeCatapult(t, sampleEvents())
	find := func(name string) TraceEvent {
		for _, e := range doc.TraceEvents {
			if e.Name == name {
				return e
			}
		}
		t.Fatalf("no %q event", name)
		return TraceEvent{}
	}
	tx := find(NameTx)
	if tx.Ts != 100 || tx.Dur != 150 {
		t.Errorf("outer tx slice = ts %f dur %f, want 100/150", tx.Ts, tx.Dur)
	}
	if tx.Args["reads"] != float64(5) || tx.Args["writes"] != float64(3) {
		t.Errorf("tx args = %v", tx.Args)
	}
	nested := find(NameTxNested)
	if nested.Ts != 120 || nested.Dur != 30 {
		t.Errorf("nested slice = ts %f dur %f", nested.Ts, nested.Dur)
	}
	aborted := find(NameTxAborted)
	if aborted.Ts != 105 || aborted.Dur != 65 || aborted.Args["cause"] != "summary" {
		t.Errorf("aborted slice = %+v", aborted)
	}
	stall := find(NameStall)
	if stall.Ts != 160 || stall.Dur != 50 || stall.Args["addr"] != "0x4000" {
		t.Errorf("stall slice = %+v", stall)
	}
	// The unfinished frame closes at the last observed cycle (300).
	open := find(NameTxOpen)
	if open.Ts != 300 || open.Dur != 0 {
		t.Errorf("open slice = ts %f dur %f", open.Ts, open.Dur)
	}
}

func TestCatapultDeterministic(t *testing.T) {
	// Many unfinished frames and stalls: finish() must order its map
	// walks, or output would vary run to run.
	var evs []Event
	for tid := 20; tid >= 1; tid-- {
		evs = append(evs,
			Event{Kind: KindTxBegin, Cycle: 10, Core: tid % 4, TID: tid, Depth: 1},
			Event{Kind: KindStallStart, Cycle: 20, Core: tid % 4, TID: tid, Depth: 1, Addr: 0x100},
		)
	}
	var a, b bytes.Buffer
	if err := WriteCatapult(&a, evs); err != nil {
		t.Fatal(err)
	}
	if err := WriteCatapult(&b, evs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("catapult output is not deterministic")
	}
}

func TestCatapultToleratesUnbalancedStream(t *testing.T) {
	// Commit with no begin, stall end with no start, walk end with no
	// start: the writer must not panic or emit negative-duration junk.
	evs := []Event{
		{Kind: KindTxCommit, Cycle: 50, TID: 1, Depth: 1},
		{Kind: KindStallEnd, Cycle: 60, TID: 1},
		{Kind: KindLogWalkEnd, Cycle: 70, TID: 1},
		{Kind: KindTxAbort, Cycle: 80, TID: 1, Cause: CauseConflict},
	}
	doc := decodeCatapult(t, evs)
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" && e.Dur < 0 {
			t.Errorf("negative duration slice: %+v", e)
		}
	}
}
