// Package sim provides the deterministic discrete-event simulation engine
// that drives the CMP model: a cycle clock, an ordered event queue with
// deterministic tie-breaking, and a seeded random source.
//
// All model components schedule closures at absolute or relative cycle
// times; the engine executes them in (cycle, insertion-sequence) order so a
// run is a pure function of its configuration and seed.
//
// The queue has two tiers. Events due within wheelSpan cycles of the
// clock go into a calendar wheel: one FIFO slot per cycle, found through
// a bitmap of non-empty slots, so a near insert is an append and the next
// event is a bit scan. Events due further out wait in an index-based
// 4-ary min-heap, and Step takes the smaller of the wheel head and the
// heap root. Both tiers keep events by value in pooled arrays, so
// Schedule and Step are zero-allocation in steady state (the arrays grow
// to the high-water mark of outstanding events and are reused
// thereafter). Execution order depends only on the total order
// (cycle, sequence), never on which tier holds an event, so the queue
// layout cannot change simulated behavior. The clock never moves
// backwards — the wheel's window relies on it.
//
// A model may hold some of its strong events in a queue of its own (the
// core engine's NACK-retry lane): Reserve gives such an event its key
// from the same sequence counter, Head reports the engine's next event,
// and Advance runs an external event whose (cycle, key) comes first. The
// two queues then execute in the one (cycle, sequence) order, and
// Pending and PendingStrong count the external events too.
package sim

import (
	"math/bits"
	"math/rand"
)

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

// event is a scheduled closure, stored by value in the queue. Weak
// events (observability snapshots) never extend a run: Run and RunUntil
// report the cycle of the last strong event, so instrumentation cannot
// change measured cycle counts.
//
// key packs the insertion sequence (high 63 bits) and the weak flag (low
// bit): sequence order is preserved under the shift, and the packing
// keeps the event at 32 bytes so heap sifts and wheel entries move one
// word less.
type event struct {
	at  Cycle
	key uint64 // seq<<1 | weak
	fn  func()
}

func (ev *event) weak() bool { return ev.key&1 != 0 }

// before reports whether a must execute before b: (cycle, sequence) order.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.key < b.key
}

// The calendar wheel's horizon: an event due fewer than wheelSpan cycles
// after the clock goes into the wheel, a later one into the heap. 128
// cycles catch 99.8% of the inserts of NACK-retry-bound runs (a retry
// re-arms 20-27 cycles out), 93% of short-transaction runs and 73% of
// lock-mode runs, whose compute and memory delays reach ~30k cycles; 64
// cycles drop the last two to 84% and 53%, and the far tail needs a
// wheel hundreds of words wide for a few more percent.
const (
	wheelSpan  = 128
	wheelMask  = wheelSpan - 1
	wheelWords = wheelSpan / 64
)

// wheelNode is one pooled wheel entry; next links the slot's FIFO (and
// the free list) by 1-based index into Engine.nodes, 0 ending the list.
type wheelNode struct {
	ev   event
	next int32
}

// wheelSlot is the FIFO of events due in one cycle, as 1-based indices
// into Engine.nodes (0 = empty), so the zero value is an empty slot.
type wheelSlot struct{ head, tail int32 }

// Engine is a discrete-event simulator. The zero value is not usable;
// construct with NewEngine.
type Engine struct {
	now  Cycle
	seq  uint64
	heap []event // far events: 4-ary min-heap by (at, seq); index 0 is the root
	// The wheel holds every event with now <= at < now+wheelSpan at the
	// time it was queued. The clock only moves forward and never passes
	// a queued event, so all wheel events stay inside [now, now+wheelSpan):
	// slot at&wheelMask holds events of exactly one cycle, in key order.
	slots    [wheelSpan]wheelSlot
	occ      [wheelWords]uint64 // bit i set iff slots[i] is non-empty
	nodes    []wheelNode        // pooled wheel entries
	free     int32              // free list of nodes (1-based, 0 = empty)
	nwheel   int                // events in the wheel
	seed     int64
	rng      *rand.Rand      // lazily seeded from seed on first Rand call
	src      *CountingSource // the source behind rng; draw count = RNG state
	halted   bool
	strong   int  // queued non-weak events, external ones included
	external int  // strong events an external queue holds (see Reserve)
	lastWeak bool // the most recently executed event was weak
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
	e.clearQueue()
	e.now, e.seq, e.strong, e.external = 0, 0, 0, 0
	e.halted, e.lastWeak = false, false
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

// clearQueue empties both tiers, keeping their backing arrays and
// dropping the closures they retain.
func (e *Engine) clearQueue() {
	clear(e.heap)
	e.heap = e.heap[:0]
	clear(e.nodes)
	e.nodes = e.nodes[:0]
	e.slots = [wheelSpan]wheelSlot{}
	e.occ = [wheelWords]uint64{}
	e.free, e.nwheel = 0, 0
}

// insert queues ev on the wheel when it is due within the horizon and on
// the heap otherwise. ev.at must not be before the clock.
func (e *Engine) insert(ev event) {
	if ev.at-e.now < wheelSpan {
		e.wheelPush(ev)
	} else {
		e.push(ev)
	}
}

// wheelPush appends ev to its cycle's slot. Schedule's keys only grow, so
// the append keeps the slot in key order; a ScheduleRaw rebuild queues
// recorded keys in any order and walks the slot to its place.
func (e *Engine) wheelPush(ev event) {
	n := e.free
	if n != 0 {
		e.free = e.nodes[n-1].next
		e.nodes[n-1] = wheelNode{ev: ev}
	} else {
		e.nodes = append(e.nodes, wheelNode{ev: ev})
		n = int32(len(e.nodes))
	}
	i := int(ev.at & wheelMask)
	sl := &e.slots[i]
	e.nwheel++
	switch {
	case sl.head == 0:
		sl.head, sl.tail = n, n
		e.occ[i>>6] |= 1 << (i & 63)
	case e.nodes[sl.tail-1].ev.key < ev.key:
		e.nodes[sl.tail-1].next = n
		sl.tail = n
	default: // a smaller key than the tail's: link it in before the first larger one
		link := &sl.head
		for e.nodes[*link-1].ev.key < ev.key {
			link = &e.nodes[*link-1].next
		}
		e.nodes[n-1].next = *link
		*link = n
	}
}

// wheelAfter returns the first non-empty slot in the words after slot
// s's, wrapping around to the low bits of s's own word (its bits from s
// up are known empty). The wheel must not be empty.
func (e *Engine) wheelAfter(s int) int {
	w := s >> 6
	for k := 1; k <= wheelWords; k++ {
		j := (w + k) % wheelWords
		if x := e.occ[j]; x != 0 {
			return j<<6 + bits.TrailingZeros64(x)
		}
	}
	panic("sim: wheel bitmap empty")
}

// head returns the next event and its wheel slot (-1 for the heap root),
// or nil when the queue is empty. The next event is the wheel head — the
// first event of the first non-empty slot at or after the clock's —
// unless the heap root is earlier.
func (e *Engine) head() (*event, int) {
	var next *event
	slot := -1
	if e.nwheel != 0 {
		i := int(e.now & wheelMask)
		if x := e.occ[i>>6] >> (i & 63); x != 0 {
			i += bits.TrailingZeros64(x)
		} else {
			i = e.wheelAfter(i)
		}
		next, slot = &e.nodes[e.slots[i].head-1].ev, i
	}
	if len(e.heap) != 0 && (next == nil || e.heap[0].before(next)) {
		next, slot = &e.heap[0], -1
	}
	return next, slot
}

// wheelPop removes and returns the first event of slot i.
func (e *Engine) wheelPop(i int) event {
	sl := &e.slots[i]
	n := sl.head
	nd := &e.nodes[n-1]
	ev := nd.ev
	sl.head = nd.next
	if sl.head == 0 {
		sl.tail = 0
		e.occ[i>>6] &^= 1 << (i & 63)
	}
	*nd = wheelNode{next: e.free} // drop the closure
	e.free = n
	e.nwheel--
	return ev
}

// push inserts ev, sifting parents down rather than swapping so each
// level moves one 32-byte event instead of three.
func (e *Engine) push(ev event) {
	h := append(e.heap, event{})
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if h[p].before(&ev) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	e.heap = h
}

// pop removes and returns the root. The vacated tail slot is zeroed so
// the array does not retain the closure.
func (e *Engine) pop() event {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{}
	h = h[:n]
	e.heap = h
	// Sift last down from the root.
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		m := c
		for j := c + 1; j < end; j++ {
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

// Schedule runs fn after delay cycles (delay 0 runs later in the current
// cycle, after all previously scheduled work for this cycle). It returns
// the event's absolute cycle and ordering key; callers that track
// pending events for snapshots record them, everyone else ignores them.
func (e *Engine) Schedule(delay Cycle, fn func()) (Cycle, uint64) {
	e.seq++
	e.strong++
	at, key := e.now+delay, e.seq<<1
	e.insert(event{at: at, key: key, fn: fn})
	return at, key
}

// ScheduleWeak runs fn after delay cycles like Schedule, but marks the
// event weak: it rides along with the simulation without extending it.
// Run/RunUntil report the last strong cycle, and PendingStrong ignores
// weak events, so a self-rearming weak event (the metrics snapshotter)
// cannot keep a run alive or change its measured length.
func (e *Engine) ScheduleWeak(delay Cycle, fn func()) {
	e.seq++
	e.insert(event{at: e.now + delay, key: e.seq<<1 | 1, fn: fn})
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

// ScheduleAt runs fn at absolute cycle at. If at is in the past the event
// fires at the current cycle. Like Schedule it returns the event's
// (cycle, key) pair for snapshot bookkeeping.
func (e *Engine) ScheduleAt(at Cycle, fn func()) (Cycle, uint64) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.strong++
	key := e.seq << 1
	e.insert(event{at: at, key: key, fn: fn})
	return at, key
}

// ScheduleRaw re-queues a strong event with an explicit absolute cycle
// and ordering key. Snapshot restore uses it to rebuild the event queue:
// the recorded keys preserve the original insertion order among the
// re-queued events, so execution order — and with it every downstream
// RNG draw and statistic — is identical to the run the snapshot was
// taken from. key must be even (strong) and no greater than the engine's
// restored sequence counter, and at must not be before the clock;
// ScheduleRaw panics otherwise rather than silently corrupting
// determinism.
func (e *Engine) ScheduleRaw(at Cycle, key uint64, fn func()) {
	if key&1 != 0 || key > e.seq<<1 {
		panic("sim: ScheduleRaw key out of range")
	}
	if at < e.now {
		panic("sim: ScheduleRaw cycle before the clock")
	}
	e.strong++
	e.insert(event{at: at, key: key, fn: fn})
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

// ReserveRaw re-counts an external event with a recorded cycle and key,
// as ScheduleRaw re-queues an engine event on snapshot restore, and
// panics on the same out-of-range keys and past cycles.
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
	next, _ := e.head()
	if next == nil {
		return 0, 0, false
	}
	return next.at, next.key, true
}

// Pending reports the number of queued events, external ones included.
func (e *Engine) Pending() int { return len(e.heap) + e.nwheel + e.external }

// PendingStrong reports the number of queued non-weak events — the
// simulation's real outstanding work.
func (e *Engine) PendingStrong() int { return e.strong }

// Halt stops Run/RunUntil after the current event returns.
func (e *Engine) Halt() { e.halted = true }

// Step executes the single next event and returns true, or returns false
// if the queue is empty.
func (e *Engine) Step() bool { return e.StepWithin(^Cycle(0)) }

// StepWithin executes the single next event if its timestamp is within
// limit, returning false when the queue is empty or the next event lies
// beyond the bound. Together with Halted and LastWeak it lets an external
// driver reproduce Run/RunUntil semantics one event at a time.
func (e *Engine) StepWithin(limit Cycle) bool {
	next, slot := e.head()
	if next == nil || next.at > limit {
		return false
	}
	var ev event
	if slot < 0 {
		ev = e.pop()
	} else {
		ev = e.wheelPop(slot)
	}
	e.now = ev.at
	e.lastWeak = ev.weak()
	if !e.lastWeak {
		e.strong--
	}
	ev.fn()
	return true
}

// Halted reports whether Halt has been called since the last ClearHalt.
func (e *Engine) Halted() bool { return e.halted }

// ClearHalt re-arms the engine after a Halt (Run and RunUntil do this on
// entry; external drivers must too).
func (e *Engine) ClearHalt() { e.halted = false }

// LastWeak reports whether the most recently executed event was weak.
func (e *Engine) LastWeak() bool { return e.lastWeak }

// Run executes events until the queue drains or Halt is called.
// It returns the final cycle of strong work: trailing weak events
// (metrics snapshots) execute but do not extend the reported run.
func (e *Engine) Run() Cycle {
	e.halted = false
	last := e.now
	for !e.halted && e.Step() {
		if !e.lastWeak {
			last = e.now
		}
	}
	return last
}

// RunUntil executes events with timestamps <= limit. Events scheduled
// beyond limit remain queued. It returns the final strong cycle,
// ignoring weak events like Run: at most limit, unless the clock was
// already past limit on entry — then nothing runs and RunUntil returns
// Now, because the clock never moves backwards.
func (e *Engine) RunUntil(limit Cycle) Cycle {
	e.halted = false
	last := e.now
	for !e.halted && e.StepWithin(limit) {
		if !e.lastWeak {
			last = e.now
		}
	}
	return last
}

// EngineState is the restorable scalar state of an Engine at a quiescent
// boundary (between events). The queue itself is not part of it: queued
// closures capture live model pointers and cannot be serialized, so the
// snapshot layer records per-thread pending-event descriptors and
// rebuilds the queue through ScheduleRaw.
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
// fast-forwarded to the captured draw count. The caller then rebuilds
// the queue with ScheduleRaw.
func (e *Engine) RestoreState(st EngineState) {
	e.clearQueue()
	e.now, e.seq, e.strong, e.external = st.Now, st.Seq, 0, 0
	e.halted, e.lastWeak = false, false
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
