package main

import (
	"sort"
	"time"
)

// refLoop is the fixed host-speed reference: a small discrete-event
// simulation whose work never changes. It runs before every timed cell;
// each cell's CPU time is divided by the CPU time of the sample taken
// just before it, so changes in host speed cancel out.
//
// Why a simulation and not a memory walk: on a shared host the
// simulator slows mostly when a neighbour competes for the physical core
// (execution ports, branch predictors, L1). A cache-missing random walk
// over 4 or 32 MiB moved by under 10% while cell times moved by 45-100%;
// this loop has the simulator's shape — an event heap, dynamic dispatch,
// hash-map updates, data-dependent branches and independent arithmetic —
// and moves with it (see spec.json for the measurements). It is the
// benchmark's own code, so no change to the simulator can move it.
type refLoop struct {
	heap   []refEvent
	actors []refActor
	maps   []map[uint32]uint32
	now    uint64
	rng    uint64
	sink   uint64
}

type refEvent struct {
	at uint64
	id int
}

type refActor interface{ fire(r *refLoop, id int) }

// hashActor does independent multiply-xorshift work (instruction-level
// parallelism) and reschedules itself at a fixed delay.
type hashActor struct{ h [4]uint64 }

func (a *hashActor) fire(r *refLoop, id int) {
	for k := 0; k < 8; k++ {
		for j := range a.h {
			a.h[j] = (a.h[j] ^ r.now ^ uint64(k)) * 0x9e3779b97f4a7c15
			a.h[j] ^= a.h[j] >> 29
		}
	}
	r.schedule(uint64(id%7+1), id)
}

// mapActor bumps a pseudo-random counter in its map and reschedules
// after a delay that depends on the counter (a data-dependent branch).
type mapActor struct{ m map[uint32]uint32 }

func (a *mapActor) fire(r *refLoop, id int) {
	k := uint32(r.rand() % refKeys)
	a.m[k]++
	d := uint64(1)
	if a.m[k]%3 == 0 {
		d += uint64(a.m[k] % 5)
	}
	r.schedule(d, id)
}

// Reference-loop shape (spec.json states the same definition).
const (
	refActors = 64
	refKeys   = 4096
	refEvents = 10000
)

func newRefLoop() *refLoop {
	r := &refLoop{heap: make([]refEvent, 0, 2*refActors)}
	for i := 0; i < refActors; i++ {
		if i%2 == 0 {
			r.actors = append(r.actors, &hashActor{})
			continue
		}
		m := make(map[uint32]uint32, refKeys)
		r.maps = append(r.maps, m)
		r.actors = append(r.actors, &mapActor{m: m})
	}
	return r
}

// Run executes the loop once from its initial state and returns its
// duration. It does not allocate.
func (r *refLoop) Run() time.Duration {
	t0 := time.Now()
	r.heap = r.heap[:0]
	r.now, r.rng = 0, 0x2545f4914f6cdd1d
	for _, m := range r.maps {
		clear(m)
	}
	for i := range r.actors {
		r.schedule(uint64(i), i)
	}
	for k := 0; k < refEvents; k++ {
		e := r.pop()
		r.now = e.at
		r.actors[e.id].fire(r, e.id)
	}
	r.sink += r.now
	return time.Since(t0)
}

func (r *refLoop) rand() uint64 {
	r.rng ^= r.rng << 13
	r.rng ^= r.rng >> 7
	r.rng ^= r.rng << 17
	return r.rng
}

func (r *refLoop) schedule(delay uint64, id int) {
	r.heap = append(r.heap, refEvent{at: r.now + delay, id: id})
	h := r.heap
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p].at <= h[i].at {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func (r *refLoop) pop() refEvent {
	h := r.heap
	e := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		l, m := 2*i+1, i
		if l < n && h[l].at < h[m].at {
			m = l
		}
		if l+1 < n && h[l+1].at < h[m].at {
			m = l + 1
		}
		if m == i {
			break
		}
		h[m], h[i] = h[i], h[m]
		i = m
	}
	r.heap = h
	return e
}

// samples pairs each timed execution's CPU seconds with the
// reference-loop CPU time measured just before it, in nanoseconds; wall
// holds the execution's wall seconds.
type samples struct{ s, ref, wall []float64 }

// scaled returns each sample in nominal-host seconds: raw seconds ×
// nominal ÷ the reference-loop time measured just before it. A host
// running at half speed doubles both, so the scaled value stays put.
// Without a nominal time the raw seconds are returned.
func (x samples) scaled(nominalNS float64) []float64 {
	if nominalNS <= 0 {
		return x.s
	}
	out := make([]float64, len(x.s))
	for i, s := range x.s {
		out[i] = s * nominalNS / x.ref[i]
	}
	return out
}

// adjusted is the median of x in nominal-host seconds.
func adjusted(x samples, nominalNS float64) float64 { return median(x.scaled(nominalNS)) }

// quartiles returns the first quartile, median and third quartile of xs
// with the same method as Python's statistics.quantiles(xs, n=4)
// (exclusive). Fewer than two samples give the lone sample three times.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		// statistics.quantiles, method "exclusive": m = n+1, the
		// index clamped to 1..n-1 before interpolating.
		n := len(s)
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), median(s), at(3)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Summary is a timed metric's distribution, for the host-noise record.
type Summary struct {
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func summarize(xs []float64) Summary {
	q1, q2, q3 := quartiles(xs)
	return Summary{Q1: q1, Median: q2, Q3: q3, N: len(xs)}
}
