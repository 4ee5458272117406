package obs

import (
	"bytes"
	"encoding/json"
	"testing"

	"logtmse/internal/addr"
	"logtmse/internal/sim"
)

// eventsFromBytes decodes an arbitrary byte string into an event stream
// (7 bytes per event, any remainder ignored) so the fuzzer can drive the
// catapult writer through pathological orderings: commits without
// begins, interleaved depths, negative cores. Cycles accumulate so the
// stream is time-ordered, like the engine's.
func eventsFromBytes(data []byte) []Event {
	var evs []Event
	var cyc sim.Cycle
	for i := 0; i+7 <= len(data); i += 7 {
		cyc += sim.Cycle(data[i+2])
		evs = append(evs, Event{
			Kind:  Kind(data[i] % uint8(kindMax)),
			Cause: AbortCause(data[i+1] % 4),
			Cycle: cyc,
			Core:  int(data[i+3]%8) - 1, // includes -1
			TID:   int(data[i+4]%8) - 1,
			Depth: int(data[i+5] % 4),
			Addr:  addr.PAddr(data[i+6]) << 6,
			Arg:   uint64(data[i+6]),
		})
	}
	return evs
}

// FuzzCatapult hardens the trace exporter: for any event stream the
// writer must not panic, must produce valid JSON that decodes back into
// a CatapultTrace, and must be deterministic.
func FuzzCatapult(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 1, 1, 2})
	var seed []byte
	for _, e := range sampleEvents() {
		seed = append(seed,
			byte(e.Kind), byte(e.Cause), byte(e.Cycle/100),
			byte(e.Core+1), byte(e.TID+1), byte(e.Depth), byte(e.Arg))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		evs := eventsFromBytes(data)
		var a bytes.Buffer
		if err := WriteCatapult(&a, evs); err != nil {
			t.Fatalf("WriteCatapult: %v", err)
		}
		if !json.Valid(a.Bytes()) {
			t.Fatalf("invalid JSON: %s", a.Bytes())
		}
		var doc CatapultTrace
		if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
			t.Fatalf("decode back: %v", err)
		}
		for _, e := range doc.TraceEvents {
			if e.Ph == "X" && e.Dur < 0 {
				t.Fatalf("negative duration: %+v", e)
			}
		}
		var b bytes.Buffer
		if err := WriteCatapult(&b, evs); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("non-deterministic output")
		}
	})
}
