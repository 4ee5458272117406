package prof

import (
	"fmt"
	"sort"
	"strings"

	"logtmse/internal/obs"
)

// FlightRecorder is an obs.Sink keeping a bounded ring of the most
// recent events per core (plus one ring for protocol-level events with
// no core). When an invariant oracle fails, the progress watchdog trips
// or a run hangs, the rings are dumped — the last thing every core did
// before the failure, turning a chaos/difftest report into a
// self-contained postmortem.
//
// Recording is allocation-free in steady state (rings are preallocated)
// and, like every sink, never perturbs the simulation.
type FlightRecorder struct {
	rings [][]entry // [core+1]; index 0 holds core-less events
	pos   []int
	n     []int // live entries per ring (saturates at capacity)
	seq   uint64
}

type entry struct {
	ev  obs.Event
	seq uint64
}

// NewFlightRecorder returns a recorder with perCore slots for each of
// cores rings plus the protocol ring (perCore <= 0 defaults to 256).
func NewFlightRecorder(cores, perCore int) *FlightRecorder {
	if cores < 0 {
		cores = 0
	}
	if perCore <= 0 {
		perCore = 256
	}
	f := &FlightRecorder{
		rings: make([][]entry, cores+1),
		pos:   make([]int, cores+1),
		n:     make([]int, cores+1),
	}
	for i := range f.rings {
		f.rings[i] = make([]entry, perCore)
	}
	return f
}

// Emit records the event into its core's ring, overwriting the oldest.
func (f *FlightRecorder) Emit(e obs.Event) {
	idx := e.Core + 1
	if idx < 0 || idx >= len(f.rings) {
		idx = 0
	}
	r := f.rings[idx]
	r[f.pos[idx]] = entry{ev: e, seq: f.seq}
	f.seq++
	f.pos[idx]++
	if f.pos[idx] == len(r) {
		f.pos[idx] = 0
	}
	if f.n[idx] < len(r) {
		f.n[idx]++
	}
}

// Reset empties every ring (pooled reuse between cells).
func (f *FlightRecorder) Reset() {
	for i := range f.rings {
		f.pos[i], f.n[i] = 0, 0
	}
	f.seq = 0
}

// Events returns the retained events in emission order.
func (f *FlightRecorder) Events() []obs.Event {
	var all []entry
	for i, r := range f.rings {
		start := f.pos[i] - f.n[i]
		if start < 0 {
			start += len(r)
		}
		for k := 0; k < f.n[i]; k++ {
			all = append(all, r[(start+k)%len(r)])
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	out := make([]obs.Event, len(all))
	for i, e := range all {
		out[i] = e.ev
	}
	return out
}

// DumpString renders the retained events as a readable postmortem —
// one Event.String line per event, in emission order, oldest first —
// the format the invariant checker and the harness's hung-run report
// attach.
func (f *FlightRecorder) DumpString() string {
	evs := f.Events()
	var b strings.Builder
	fmt.Fprintf(&b, "flight recorder: last %d events\n", len(evs))
	for _, e := range evs {
		fmt.Fprintf(&b, "  %s\n", e)
	}
	return b.String()
}
