package core

import (
	"math/bits"

	"logtmse/internal/coherence"
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
// weak ticks of fault injection and the checker.
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
// laneAnchors+id is thread id's entry. gen marks an entry that is the
// retry of a clean replay: System.replayGen+1 as of the replay, 0 on
// every other entry (see System.stormStep).
type laneCell struct {
	at   sim.Cycle
	key  uint64
	gen  uint64
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

// push queues cell c at (at, key), marked gen; now is the clock.
// Reserve's keys only grow, so an append keeps a slot in key order; a
// snapshot restore queues recorded keys in any order and walks the slot
// to the entry's place.
func (l *contLane) push(c int32, at sim.Cycle, key, gen uint64, now sim.Cycle) {
	l.cells[c] = laneCell{at: at, key: key, gen: gen}
	if at-now >= laneSpan {
		l.far.Push(at, key, c)
		return
	}
	i := at & laneMask
	l.occ |= 1 << i
	if tail := l.tail[i]; l.cells[tail].key < key {
		l.cells[tail].next = c
		l.tail[i] = c
		return
	}
	link := &l.cells[i+1].next
	for l.cells[*link].key < key {
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
	if n > len(l.cells) {
		l.cells = append(l.cells, make([]laneCell, n-len(l.cells))...)
	}
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
	s.lane.push(int32(laneAnchors+t.ID), t.pendAt, t.pendKey, 0, s.Engine.Now())
}

// runCont runs t's queued continuation, the lane's event, and reports
// whether it was a clean replay of a NACK retry (see retry). Every other
// step advances replayGen, as an engine event does.
func (s *System) runCont(t *Thread) bool {
	kind := t.pendKind
	t.pendKind = pendNone
	if kind == pendRetry {
		t.checkRetryEpoch(t.retryEpoch)
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

// stormSlot holds a thread's deferred storm-step charges: k storm steps
// since the last flush, the storm steps its starvation budget has left,
// and its verdict's coherence charge, whose LRU touch each step applies
// at once.
type stormSlot struct {
	k, left uint64
	charge  coherence.NACKCharge
}

// stormStep runs the retry in lane cell c, marked gen by a clean
// replay whose verdict nothing has moved since (see mark), and reports
// whether it did; it counts the skipped re-validation either way, and
// declines, changing nothing else, once the thread's starvation budget
// is spent. A storm step is replay without the thread: it applies the
// charge's LRU touch on the spot, counts the step in the thread's storm
// slot, draws the jitter (and the fault injector's delay) and re-queues
// the cell, still marked. The rest of the charge is deferred to
// flushStorm.
func (s *System) stormStep(c int32, gen uint64) bool {
	s.replaySkips++
	id := s.lane.thread(c)
	st := &s.storm[id]
	if st.k == st.left {
		return false
	}
	if st.k == 0 {
		s.stormDirty = append(s.stormDirty, int32(id))
	}
	st.k++
	st.charge.Touch()
	d := s.P.StallRetryLat + s.jitter()
	if s.Fault != nil {
		d += s.Fault.NackRetryDelay(id)
	}
	at, key := s.Engine.Reserve(d)
	s.lane.push(c, at, key, gen, s.Engine.Now())
	return true
}

// flushStorm applies the charges storm steps deferred: for a thread's k
// storm steps, k times what replay counts for its verdict — the
// coherence charge or the SMT conflict; the stall or the
// non-transactional retry; the starvation count — and the thread's
// queue position. Nothing reads any of it between the steps and the
// flush, which runs before any other step and before stepBounded
// returns.
func (s *System) flushStorm() {
	for _, id := range s.stormDirty {
		st, t := &s.storm[id], s.threads[id]
		k := st.k
		st.k, st.left = 0, st.left-k
		v := &t.verdict
		if v.smt {
			s.stats.SMTConflicts += k
		} else {
			st.charge.Add(k)
		}
		if t.InTx() && !t.escaped {
			s.stats.Stalls += k
			t.Stalls += k
			if v.class.allFalse {
				s.stats.FalsePositiveStalls += k
			}
		} else {
			s.stats.NonTxRetries += k
		}
		if s.P.StarvationRetryLimit > 0 && t.InTx() {
			t.stallRetries += int(k)
		}
		s.verdictReplays += k
		s.stormSteps += k
		cell := &s.lane.cells[laneAnchors+id]
		t.pendAt, t.pendKey = cell.at, cell.key
	}
	s.stormDirty = s.stormDirty[:0]
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
// the engine's next event (or the bound) comes first. A retry whose
// cell still carries the current mark runs as a storm step; any other
// lane step first flushes the storms' deferred charges.
func (s *System) stepBounded() bool {
	e := s.Engine
	if c := s.lane.first(e.Now()); c != 0 && s.lane.cells[c].at <= s.runLimit {
		// The lane runs while its head orders before (at, key): the
		// engine's head, or past the last key of the bound's cycle.
		at, key := s.runLimit, ^uint64(0)
		if hat, hkey, ok := e.Head(); ok && (hat < at || hat == at && hkey < key) {
			at, key = hat, hkey
		}
		gen := s.replayGen + 1
		for {
			next := &s.lane.cells[c]
			if next.at > at || next.at == at && next.key > key {
				break
			}
			s.lane.pop(c)
			e.Advance(next.at)
			s.runLast = next.at
			if next.gen != gen || !s.stormStep(c, gen) {
				if len(s.stormDirty) != 0 {
					s.flushStorm()
				}
				var clean bool
				if t := s.threads[s.lane.thread(c)]; s.laneStep != nil {
					clean = s.laneStep(t)
				} else {
					clean = s.runCont(t)
				}
				if !clean {
					return true
				}
			}
			if c = s.lane.first(e.Now()); c == 0 {
				break
			}
		}
		if len(s.stormDirty) != 0 {
			s.flushStorm()
		}
		if c == 0 {
			return true
		}
	}
	if !e.StepWithin(s.runLimit) {
		return false
	}
	s.replayGen++ // before the next lane step: the event may have changed anything
	if !e.LastWeak() {
		s.runLast = e.Now()
	}
	return true
}
