package core

import (
	"math/bits"

	"logtmse/internal/sim"
)

// The retry lane. A stalled thread's NACK retry is the simulation's most
// frequent event by far — 95% of Raytrace's and 85% of BerkeleyDB's at
// scale 0.05 — so retries bypass the engine's closure queue: the lane
// queues the stalled threads, each at the (cycle, key) its retry would
// have had in the engine (sim.Engine.Reserve draws the key from the
// engine's own sequence counter). stepBounded merges the two queues on
// that order, so event execution order, every Stats counter and every
// RNG draw are the same as with one queue.
//
// The layout copies the engine's calendar wheel for a smaller horizon.
// Each thread owns one entry holding its retry's (cycle, key): a thread
// has at most one retry in flight. A retry due fewer than laneSpan
// cycles after the clock goes into the wheel — one FIFO per cycle,
// found through a one-word bitmap — and a later one into far, a short
// list sorted by (cycle, key). The entries sit in one small array, so
// ordering the lane never touches the threads themselves.
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

type retryLane struct {
	cells []laneCell
	// tail[i] is the last cell of slot i's FIFO — its anchor when the
	// slot is empty — so an append never asks whether the slot was.
	tail [laneSpan]int32
	occ  uint64 // bit i set iff slot i is non-empty
	// far holds the retries queued laneSpan or more cycles ahead, latest
	// first, so the earliest is last.
	far []int32
}

// before reports whether cell a runs before cell b: (cycle, key) order.
func (l *retryLane) before(a, b int32) bool {
	x, y := &l.cells[a], &l.cells[b]
	return x.at < y.at || x.at == y.at && x.key < y.key
}

// thread returns the ID of the thread whose entry is cell c.
func (l *retryLane) thread(c int32) int { return int(c) - laneAnchors }

// push queues t's retry at (t.pendAt, t.pendKey); now is the clock.
// Reserve's keys only grow, so an append keeps a slot in key order; a
// snapshot restore queues recorded keys in any order and walks the slot
// (or far) to the entry's place.
func (l *retryLane) push(t *Thread, now sim.Cycle) {
	c := int32(laneAnchors + t.ID)
	if int(c) >= len(l.cells) {
		l.grow(int(c) + 1)
	}
	l.cells[c] = laneCell{at: t.pendAt, key: t.pendKey}
	if t.pendAt-now >= laneSpan {
		i := len(l.far)
		l.far = append(l.far, c)
		for ; i > 0 && l.before(l.far[i-1], c); i-- {
			l.far[i] = l.far[i-1]
		}
		l.far[i] = c
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
func (l *retryLane) grow(n int) {
	if len(l.cells) == 0 {
		l.cells = make([]laneCell, laneAnchors, n)
		l.clear()
	}
	l.cells = append(l.cells, make([]laneCell, n-len(l.cells))...)
}

// first returns the earliest queued entry's cell, or 0. Every wheel
// entry lies in [now, now+laneSpan) — the clock never passes a queued
// event — so the first occupied slot at or after the clock's holds it.
func (l *retryLane) first(now sim.Cycle) int32 {
	var c int32
	if l.occ != 0 {
		s := int(now & laneMask)
		c = l.cells[1+(s+bits.TrailingZeros64(bits.RotateLeft64(l.occ, -s)))&laneMask].next
	}
	if k := len(l.far); k != 0 && (c == 0 || l.before(l.far[k-1], c)) {
		c = l.far[k-1]
	}
	return c
}

// pop removes cell c, which first just returned.
func (l *retryLane) pop(c int32) {
	if k := len(l.far); k != 0 && l.far[k-1] == c {
		l.far = l.far[:k-1]
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
func (l *retryLane) clear() {
	clear(l.cells)
	for i := range l.tail {
		l.tail[i] = int32(i + 1)
	}
	l.occ = 0
	l.far = l.far[:0]
}

// laneArm queues t's retry on the lane, delay cycles from now.
func (s *System) laneArm(t *Thread, delay sim.Cycle) {
	t.pendAt, t.pendKey = s.Engine.Reserve(delay)
	t.pendKind = pendRetry
	s.lane.push(t, s.Engine.Now())
}

// stepBounded executes the next event within the active bound — the
// lane's first retry or the engine's next event, whichever comes first
// in (cycle, key) order — tracking the last strong cycle. Every engine
// owner (drive, pump, pumpExit) steps through it so Run/RunUntil
// semantics hold regardless of which goroutine drives.
//
// A retry that replays cleanly (see retry) queues nothing on the
// engine, readies no thread and cannot halt, so one call runs the lane
// on against the engine head it read first, until a retry does
// something else or the engine's next event (or the bound) comes first.
func (s *System) stepBounded() bool {
	e := s.Engine
	if e.Halted() {
		return false
	}
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
