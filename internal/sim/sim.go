// Package sim provides the deterministic discrete-event simulation engine
// that drives the CMP model: a cycle clock, an ordered event queue with
// deterministic tie-breaking, and a seeded random source.
//
// Model components schedule closures at relative cycle times; the engine
// executes them in (cycle, insertion-sequence) order so a run is a pure
// function of its configuration and seed.
//
// The engine's queue is one 4-ary min-heap (Heap) holding events by value
// in a pooled array, so Schedule and Step are zero-allocation in steady
// state. It carries only the rare events: a simulated thread's
// continuations — its start, the completion of each request, NACK retries
// and backoffs — ride the core engine's continuation lane, a queue of its
// own. Reserve gives such an event its key from the same sequence
// counter, Head reports the engine's next event, and Advance runs an
// external event whose (cycle, key) comes first. The two queues then
// execute in the one (cycle, sequence) order, and Pending and
// PendingStrong count the external events too. The clock never moves
// backwards.
package sim

import "math/rand"

// Cycle is a point in simulated time, measured in processor clock cycles.
type Cycle uint64

// CountingSource is a seeded rand.Source64 that counts how many values
// have been drawn from it. math/rand exposes no way to serialize
// generator state, but every draw (Int63 or Uint64) advances the
// underlying generator exactly one step — so (seed, draw count) IS the
// state: a fresh source fast-forwarded by Skip(n) continues the stream
// bit-identically. The snapshot engine records the count and replays it
// on restore.
type CountingSource struct {
	src rand.Source64
	n   uint64
}

// NewCountingSource returns a counting source seeded with seed.
func NewCountingSource(seed int64) *CountingSource {
	return &CountingSource{src: rand.NewSource(seed).(rand.Source64)}
}

// Int63 draws one value.
func (c *CountingSource) Int63() int64 { c.n++; return c.src.Int63() }

// Uint64 draws one value.
func (c *CountingSource) Uint64() uint64 { c.n++; return c.src.Uint64() }

// Seed reseeds the source and zeroes the draw count.
func (c *CountingSource) Seed(seed int64) { c.n = 0; c.src.Seed(seed) }

// Draws reports how many values have been drawn since seeding.
func (c *CountingSource) Draws() uint64 { return c.n }

// Skip advances the source by n draws (snapshot restore fast-forward).
func (c *CountingSource) Skip(n uint64) {
	for i := uint64(0); i < n; i++ {
		c.src.Uint64()
	}
	c.n += n
}

// Entry is one queued value with its (cycle, key) order inline, so a
// heap sift compares without following a pointer.
type Entry[T any] struct {
	At  Cycle
	Key uint64
	Val T
}

func (a *Entry[T]) before(b *Entry[T]) bool {
	return a.At < b.At || a.At == b.At && a.Key < b.Key
}

// Heap is an index-based 4-ary min-heap of entries in (cycle, key)
// order. Its array grows to the high-water mark of queued entries and
// is reused thereafter. The engine keeps its events in one, and the
// core's continuation lane its far tier in another.
type Heap[T any] struct{ h []Entry[T] }

// Len reports the number of queued entries.
func (q *Heap[T]) Len() int { return len(q.h) }

// Min returns the earliest entry, or nil when the heap is empty. It is
// valid until the next Push or Pop.
func (q *Heap[T]) Min() *Entry[T] {
	if len(q.h) == 0 {
		return nil
	}
	return &q.h[0]
}

// Push queues v at (at, key), sifting parents down rather than swapping
// so each level moves one entry instead of three.
func (q *Heap[T]) Push(at Cycle, key uint64, v T) {
	x := Entry[T]{At: at, Key: key, Val: v}
	h := append(q.h, Entry[T]{})
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if h[p].before(&x) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
	q.h = h
}

// Pop removes and returns the earliest entry; the heap must not be
// empty. The vacated tail slot is zeroed so the array retains nothing.
func (q *Heap[T]) Pop() Entry[T] {
	h := q.h
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = Entry[T]{}
	h = h[:n]
	q.h = h
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		for j := c + 1; j < c+4 && j < n; j++ {
			if h[j].before(&h[m]) {
				m = j
			}
		}
		if !h[m].before(&last) {
			break
		}
		h[i] = h[m]
		i = m
	}
	if n > 0 {
		h[i] = last
	}
	return top
}

// Clear empties the heap, keeping its array.
func (q *Heap[T]) Clear() {
	clear(q.h)
	q.h = q.h[:0]
}

// Engine is a discrete-event simulator. The zero value is not usable;
// construct with NewEngine.
//
// An event's key packs its insertion sequence (high 63 bits) and a weak
// flag (low bit): sequence order is preserved under the shift. Weak
// events (the checker's audit tick) never extend a run: Run and RunUntil
// report the cycle of the last strong event, so instrumentation cannot
// change measured cycle counts.
type Engine struct {
	now      Cycle
	seq      uint64
	q        Heap[func()]
	seed     int64
	rng      *rand.Rand      // lazily seeded from seed on first Rand call
	src      *CountingSource // the source behind rng; draw count = RNG state
	strong   int             // queued non-weak events, external ones included
	external int             // strong events an external queue holds (see Reserve)
	lastWeak bool            // the most recently executed event was weak
}

// NewEngine returns an engine whose random source is seeded with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{seed: seed}
}

// Reset returns the engine to its just-constructed state with a new seed,
// keeping the queue's backing array for reuse. The random source is
// reseeded in place, so a Reset engine produces exactly the stream a
// fresh NewEngine(seed) would — pooled reuse is indistinguishable from
// cold construction. Reset allocates nothing.
func (e *Engine) Reset(seed int64) {
	e.q.Clear()
	e.now, e.seq, e.strong, e.external = 0, 0, 0, 0
	e.lastWeak = false
	e.seed = seed
	if e.rng != nil {
		e.rng.Seed(seed)
	}
}

// Now returns the current simulated cycle.
func (e *Engine) Now() Cycle { return e.now }

// Rand returns the engine's deterministic random source. It is built on
// first use (seeding is expensive relative to a short run) and yields the
// same stream as an eagerly seeded source.
func (e *Engine) Rand() *rand.Rand {
	if e.rng == nil {
		e.src = NewCountingSource(e.seed)
		e.rng = rand.New(e.src)
	}
	return e.rng
}

// Int63 draws one value from the engine's random source: the value and
// the draw count Rand().Int63() would produce, without the rand.Rand
// layer in between. Rand().Int63n(n) for a power-of-two n is exactly
// Int63()&(n-1), so hot callers drawing a small power-of-two range use
// this instead.
func (e *Engine) Int63() int64 {
	if e.src == nil {
		e.Rand()
	}
	return e.src.Int63()
}

// RandDraws reports how many values the engine's random source has
// produced (zero when Rand has never been called). Together with the
// seed this fully determines the RNG state at a snapshot boundary.
func (e *Engine) RandDraws() uint64 {
	if e.src == nil {
		return 0
	}
	return e.src.Draws()
}

// Schedule runs fn after delay cycles (delay 0 runs later in the current
// cycle, after all previously scheduled work for this cycle).
func (e *Engine) Schedule(delay Cycle, fn func()) {
	e.seq++
	e.strong++
	e.q.Push(e.now+delay, e.seq<<1, fn)
}

// ScheduleWeak runs fn after delay cycles like Schedule, but marks the
// event weak: it rides along with the simulation without extending it.
// Run/RunUntil report the last strong cycle, and PendingStrong ignores
// weak events, so a self-rearming weak event (the checker's audit tick)
// cannot keep a run alive or change its measured length.
func (e *Engine) ScheduleWeak(delay Cycle, fn func()) {
	e.seq++
	e.q.Push(e.now+delay, e.seq<<1|1, fn)
}

// ScheduleWeakEvery arms a self-rearming weak event: fn runs every
// `every` cycles while it returns true and the simulation still has
// strong work queued. A single closure rearms itself through the pooled
// queue, so the steady-state tick allocates nothing. Like all weak
// events it can neither extend a run nor change its measured length;
// the fault injector and the invariant oracles use it as their periodic
// trigger so that enabling them never perturbs simulated behavior by
// itself.
func (e *Engine) ScheduleWeakEvery(every Cycle, fn func() bool) {
	if every == 0 {
		return
	}
	var tick func()
	tick = func() {
		if e.PendingStrong() == 0 {
			return // the model already finished; stop rearming
		}
		if fn() {
			e.ScheduleWeak(every, tick)
		}
	}
	e.ScheduleWeak(every, tick)
}

// Reserve takes the ordering key of a strong event that an external
// queue holds instead of the engine, due delay cycles from now: the
// key Schedule would have given it, from the same sequence counter, so
// the external queue's events and the engine's share one (cycle, key)
// order. The event counts in Pending and PendingStrong until Advance
// runs it. The owner of the external queue merges the two on that
// order: it runs its own head when Head reports nothing earlier.
func (e *Engine) Reserve(delay Cycle) (Cycle, uint64) {
	e.seq++
	e.strong++
	e.external++
	return e.now + delay, e.seq << 1
}

// ReserveRaw re-counts an external event with a recorded cycle and key
// on snapshot restore: the recorded keys keep the original order among
// the re-queued events, so execution order — and with it every
// downstream RNG draw and statistic — is identical to the run the
// snapshot was taken from. key must be even (strong) and no greater
// than the restored sequence counter, and at must not be before the
// clock; ReserveRaw panics otherwise rather than silently corrupting
// determinism.
func (e *Engine) ReserveRaw(at Cycle, key uint64) {
	if key&1 != 0 || key > e.seq<<1 {
		panic("sim: ReserveRaw key out of range")
	}
	if at < e.now {
		panic("sim: ReserveRaw cycle before the clock")
	}
	e.strong++
	e.external++
}

// Advance moves the clock to at to run an external event in place of
// the engine's next one: the event leaves Pending, and LastWeak reads
// false. The caller guarantees its event orders before every queued
// one; a cycle before the clock panics.
func (e *Engine) Advance(at Cycle) {
	if at < e.now {
		panic("sim: Advance to a cycle before the clock")
	}
	e.now = at
	e.lastWeak = false
	e.strong--
	e.external--
}

// Head reports the cycle and key of the next queued engine event; ok is
// false when the queue is empty. External events are not considered.
func (e *Engine) Head() (at Cycle, key uint64, ok bool) {
	if m := e.q.Min(); m != nil {
		return m.At, m.Key, true
	}
	return 0, 0, false
}

// Pending reports the number of queued events, external ones included.
func (e *Engine) Pending() int { return e.q.Len() + e.external }

// PendingStrong reports the number of queued non-weak events — the
// simulation's real outstanding work.
func (e *Engine) PendingStrong() int { return e.strong }

// Step executes the single next event and returns true, or returns false
// if the queue is empty.
func (e *Engine) Step() bool { return e.StepWithin(^Cycle(0)) }

// StepWithin executes the single next event if its timestamp is within
// limit, returning false when the queue is empty or the next event lies
// beyond the bound. Together with LastWeak it lets an external driver
// reproduce Run/RunUntil semantics one event at a time.
func (e *Engine) StepWithin(limit Cycle) bool {
	if m := e.q.Min(); m == nil || m.At > limit {
		return false
	}
	ev := e.q.Pop()
	e.now = ev.At
	e.lastWeak = ev.Key&1 != 0
	if !e.lastWeak {
		e.strong--
	}
	ev.Val()
	return true
}

// LastWeak reports whether the most recently executed event was weak.
func (e *Engine) LastWeak() bool { return e.lastWeak }

// Run executes events until the queue drains. It returns the final
// cycle of strong work: trailing weak events (periodic audit ticks)
// execute but do not extend the reported run.
func (e *Engine) Run() Cycle { return e.RunUntil(^Cycle(0)) }

// RunUntil executes events with timestamps <= limit. Events scheduled
// beyond limit remain queued. It returns the final strong cycle,
// ignoring weak events like Run: at most limit, unless the clock was
// already past limit on entry — then nothing runs and RunUntil returns
// Now, because the clock never moves backwards.
func (e *Engine) RunUntil(limit Cycle) Cycle {
	last := e.now
	for e.StepWithin(limit) {
		if !e.lastWeak {
			last = e.now
		}
	}
	return last
}

// EngineState is the restorable scalar state of an Engine at a quiescent
// boundary (between events). The queue itself is not part of it: queued
// closures capture live model pointers and cannot be serialized, so a
// snapshot holds no engine events and records each thread's
// continuation instead, re-counted through ReserveRaw on restore.
type EngineState struct {
	Now       Cycle
	Seq       uint64
	Seed      int64
	RandDraws uint64
	RandBuilt bool
}

// State captures the engine's scalar state.
func (e *Engine) State() EngineState {
	return EngineState{
		Now:       e.now,
		Seq:       e.seq,
		Seed:      e.seed,
		RandDraws: e.RandDraws(),
		RandBuilt: e.rng != nil,
	}
}

// RestoreState resets the engine to st with an empty queue: clock and
// sequence counter as captured, the random source reseeded and
// fast-forwarded to the captured draw count.
func (e *Engine) RestoreState(st EngineState) {
	e.q.Clear()
	e.now, e.seq, e.strong, e.external = st.Now, st.Seq, 0, 0
	e.lastWeak = false
	e.seed = st.Seed
	if !st.RandBuilt {
		e.rng, e.src = nil, nil
		return
	}
	if e.rng == nil {
		e.src = NewCountingSource(st.Seed)
		e.rng = rand.New(e.src)
	} else {
		e.rng.Seed(st.Seed)
	}
	e.src.Skip(st.RandDraws)
}
