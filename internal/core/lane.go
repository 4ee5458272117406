package core

import (
	"math/bits"

	"logtmse/internal/sim"
)

// The continuation lane. A LogTM-SE requester has one outstanding
// request per hardware thread and stalls and retries on a NACK (§2), so
// each simulated thread has exactly one continuation in flight: its
// start, the completion of its request, a NACK retry or a
// summary-conflict backoff (Thread.pendKind says which). Every one of
// them queues here rather than in the engine: the lane holds the
// threads, each at the (cycle, key) its continuation would have had in
// the engine (sim.Engine.Reserve draws the key from the engine's own
// sequence counter). stepBounded merges the lane with the engine's
// queue on that order, so event execution order, every Stats counter
// and every RNG draw are the same as with one queue. The engine keeps
// only the rare events: the OS model's quanta, page relocation and the
// weak ticks of metrics, fault injection and the checker.
//
// Each thread owns one cell holding its continuation's (cycle, key). A
// continuation due fewer than laneSpan cycles after the clock goes into
// a calendar wheel — one FIFO per cycle, found through a one-word
// bitmap — and a later one into far, a heap with the (cycle, key)
// inline. The cells sit in one small array, so ordering the lane never
// touches the threads themselves.
const (
	laneSpan = 64 // a retry re-arms StallRetryLat (20) + 0-7 jitter cycles out
	laneMask = laneSpan - 1
)

// laneCell is a link in a slot's FIFO. Cell 0 is unused (a next of 0
// ends a FIFO), cell 1+i anchors slot i (its next is the slot's first
// entry, its key 0 orders before every real key), and cell
// laneAnchors+id is thread id's entry.
type laneCell struct {
	at   sim.Cycle
	key  uint64
	next int32
}

const laneAnchors = 1 + laneSpan

type contLane struct {
	cells []laneCell
	// tail[i] is the last cell of slot i's FIFO — its anchor when the
	// slot is empty — so an append never asks whether the slot was.
	tail [laneSpan]int32
	occ  uint64 // bit i set iff slot i is non-empty
	// far holds the cells of continuations queued laneSpan or more
	// cycles ahead.
	far sim.Heap[int32]
}

// thread returns the ID of the thread whose entry is cell c.
func (l *contLane) thread(c int32) int { return int(c) - laneAnchors }

// push queues t's continuation at (t.pendAt, t.pendKey); now is the
// clock. Reserve's keys only grow, so an append keeps a slot in key
// order; a snapshot restore queues recorded keys in any order and walks
// the slot to the entry's place.
func (l *contLane) push(t *Thread, now sim.Cycle) {
	c := int32(laneAnchors + t.ID)
	if int(c) >= len(l.cells) {
		l.grow(int(c) + 1)
	}
	l.cells[c] = laneCell{at: t.pendAt, key: t.pendKey}
	if t.pendAt-now >= laneSpan {
		l.far.Push(t.pendAt, t.pendKey, c)
		return
	}
	i := t.pendAt & laneMask
	l.occ |= 1 << i
	if tail := l.tail[i]; l.cells[tail].key < t.pendKey {
		l.cells[tail].next = c
		l.tail[i] = c
		return
	}
	link := &l.cells[i+1].next
	for l.cells[*link].key < t.pendKey {
		link = &l.cells[*link].next
	}
	l.cells[c].next = *link
	*link = c
}

// grow extends cells to n, anchoring the slots on first use.
func (l *contLane) grow(n int) {
	if len(l.cells) == 0 {
		l.cells = make([]laneCell, laneAnchors, n)
		l.clear()
	}
	l.cells = append(l.cells, make([]laneCell, n-len(l.cells))...)
}

// first returns the earliest queued entry's cell, or 0. Every wheel
// entry lies in [now, now+laneSpan) — the clock never passes a queued
// event — so the first occupied slot at or after the clock's holds it.
func (l *contLane) first(now sim.Cycle) int32 {
	var c int32
	if l.occ != 0 {
		s := int(now & laneMask)
		c = l.cells[1+(s+bits.TrailingZeros64(bits.RotateLeft64(l.occ, -s)))&laneMask].next
	}
	if m := l.far.Min(); m != nil && (c == 0 || m.At < l.cells[c].at || m.At == l.cells[c].at && m.Key < l.cells[c].key) {
		c = m.Val
	}
	return c
}

// pop removes cell c, which first just returned.
func (l *contLane) pop(c int32) {
	if m := l.far.Min(); m != nil && m.Val == c {
		l.far.Pop()
		return
	}
	i := l.cells[c].at & laneMask
	next := l.cells[c].next
	l.cells[i+1].next = next
	// Whether the slot empties is a coin toss at retry-storm occupancy,
	// so the update is written to compile without a branch.
	tail, bit := l.tail[i], uint64(0)
	if next == 0 {
		tail, bit = int32(i+1), 1<<i
	}
	l.tail[i] = tail
	l.occ &^= bit
}

// clear empties the lane, keeping its arrays.
func (l *contLane) clear() {
	clear(l.cells)
	for i := range l.tail {
		l.tail[i] = int32(i + 1)
	}
	l.occ = 0
	l.far.Clear()
}

// laneArm queues t's continuation of the given kind on the lane, delay
// cycles from now.
func (s *System) laneArm(t *Thread, delay sim.Cycle, kind uint8) {
	t.pendAt, t.pendKey = s.Engine.Reserve(delay)
	t.pendKind = kind
	s.lane.push(t, s.Engine.Now())
}

// runCont runs t's queued continuation, the lane's event, and reports
// whether it was a clean replay of a NACK retry (see retry). Every other
// step advances replayGen, as an engine event does.
func (s *System) runCont(t *Thread) bool {
	kind := t.pendKind
	t.pendKind = pendNone
	if kind == pendRetry {
		return s.retry(t)
	}
	s.replayGen++
	switch kind {
	case pendStart:
		s.start(t)
	case pendFinish:
		s.complete(t)
	default: // pendBackoff: always walks; a backoff never replays a verdict
		t.checkRetryEpoch(t.retryEpoch)
		s.access(t, &t.retryReq, t.retryOp)
	}
	return false
}

// stepBounded executes the next event within the active bound — the
// lane's first continuation or the engine's next event, whichever comes
// first in (cycle, key) order — tracking the last strong cycle. Every
// engine owner (drive, pump, pumpExit) steps through it so Run/RunUntil
// semantics hold regardless of which goroutine drives.
//
// A retry that replays cleanly (see retry) queues nothing on the
// engine and readies no thread, so one call runs the lane on against
// the engine head it read first, until a step does something else or
// the engine's next event (or the bound) comes first.
func (s *System) stepBounded() bool {
	e := s.Engine
	if c := s.lane.first(e.Now()); c != 0 && s.lane.cells[c].at <= s.runLimit {
		// The lane runs while its head orders before (at, key): the
		// engine's head, or past the last key of the bound's cycle.
		at, key := s.runLimit, ^uint64(0)
		if hat, hkey, ok := e.Head(); ok && (hat < at || hat == at && hkey < key) {
			at, key = hat, hkey
		}
		for {
			next := &s.lane.cells[c]
			if next.at > at || next.at == at && next.key > key {
				break
			}
			s.lane.pop(c)
			e.Advance(next.at)
			s.runLast = next.at
			if !s.laneStep(s.threads[s.lane.thread(c)]) {
				return true
			}
			if c = s.lane.first(e.Now()); c == 0 {
				return true
			}
		}
	}
	s.replayGen++
	if !e.StepWithin(s.runLimit) {
		return false
	}
	if !e.LastWeak() {
		s.runLast = e.Now()
	}
	return true
}
