package core

import (
	"math/rand"
	"testing"

	"logtmse/internal/sim"
)

// The merged-order oracle. A lane program is a byte string that drives a
// System's two queues — retries armed on the lane by stand-in threads,
// strong, weak and ScheduleAt events on the engine, events of either
// queue that queue more as they run, engine events that Halt, RunUntil
// bounds, Run, and a snapshot-style rebuild that re-queues both in
// shuffled order — while a reference keeps every queued event as
// (cycle, key). Each executed event must be the reference's minimum, and
// the counts, the returned cycles and the clock must agree with it.
// TestLaneMatchesReferenceOrder runs long random programs and
// FuzzLaneOrder runs the fuzzer's.

// laneRef is one queued event as the reference sees it: a lane retry of
// thread tid, or engine event id.
type laneRef struct {
	at   sim.Cycle
	key  uint64
	tid  int // -1 for an engine event
	id   int
	halt bool
}

type laneOracle struct {
	t     testing.TB
	s     *System
	prog  []byte
	pc    int
	q     []laneRef
	ids   int
	fired int       // id of the last engine event, or -1-tid of the last retry
	last  sim.Cycle // last strong cycle executed since the bound began
	ran   [2]int    // retries and engine events executed
	far   int       // retries armed past the lane's wheel
}

const laneOracleThreads = 12

func newLaneOracle(t testing.TB, prog []byte) *laneOracle {
	p := smallParams()
	s, err := NewSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	o := &laneOracle{t: t, s: s, prog: prog}
	for i := 0; i < laneOracleThreads; i++ {
		s.threads = append(s.threads, &Thread{ID: i, Name: "stand-in"})
	}
	s.laneStep = o.retry
	return o
}

func (o *laneOracle) next() byte {
	if o.pc >= len(o.prog) {
		return 1
	}
	b := o.prog[o.pc]
	o.pc++
	return b
}

// delay draws a delay: within a few cycles, straddling the lane's
// wheel, the retry band, straddling the engine's wheel, or far out.
func (o *laneOracle) delay() sim.Cycle {
	b := o.next()
	switch b % 5 {
	case 0:
		return sim.Cycle(b >> 3 & 7)
	case 1:
		return laneSpan - 8 + sim.Cycle(b>>3&15)
	case 2:
		return 20 + sim.Cycle(b>>3&7)
	case 3:
		return 120 + sim.Cycle(b>>3&15)
	default:
		return sim.Cycle(uint16(o.next())<<8|uint16(o.next())) % 5_001
	}
}

// pop checks that the event just run is the reference's minimum and
// removes it.
func (o *laneOracle) pop(tid, id int) laneRef {
	if len(o.q) == 0 {
		o.t.Fatalf("event (tid %d, id %d) ran at cycle %d with the reference empty", tid, id, o.s.Engine.Now())
	}
	m := 0
	for i := range o.q {
		if r := o.q[i]; r.at < o.q[m].at || r.at == o.q[m].at && r.key < o.q[m].key {
			m = i
		}
	}
	want := o.q[m]
	if want.tid != tid || want.tid < 0 && want.id != id {
		o.t.Fatalf("(tid %d, id %d) ran at cycle %d; the reference's next is %+v (of %d)", tid, id, o.s.Engine.Now(), want, len(o.q))
	}
	if o.s.Engine.Now() != want.at || o.s.Engine.Now() > o.s.runLimit {
		o.t.Fatalf("(tid %d, id %d) ran at cycle %d, want %d (bound %d)", tid, id, o.s.Engine.Now(), want.at, o.s.runLimit)
	}
	o.q = append(o.q[:m], o.q[m+1:]...)
	if want.key&1 == 0 {
		o.last = want.at
	}
	if tid >= 0 {
		o.ran[0]++
	} else {
		o.ran[1]++
	}
	return want
}

// idle returns a stand-in thread with no retry queued, or nil.
func (o *laneOracle) idle() *Thread {
	start := int(o.next())
	for k := 0; k < laneOracleThreads; k++ {
		if t := o.s.threads[(start+k)%laneOracleThreads]; t.pendKind != pendRetry {
			return t
		}
	}
	return nil
}

func (o *laneOracle) arm(t *Thread, d sim.Cycle) {
	if d >= laneSpan {
		o.far++
	}
	o.s.laneArm(t, d)
	o.q = append(o.q, laneRef{at: t.pendAt, key: t.pendKey, tid: t.ID})
}

// retry stands in for System.retry. It re-arms its own thread on the
// lane, or queues an engine event or another thread's retry and
// reports the step unclean, as a walk would.
func (o *laneOracle) retry(t *Thread) bool {
	t.pendKind = pendNone
	o.pop(t.ID, 0)
	o.fired = -1 - t.ID
	switch o.next() % 4 {
	case 0:
		o.arm(t, o.delay())
		return true
	case 1:
		return true // finished: nothing queued
	case 2:
		o.schedule(o.delay(), false)
	default:
		if u := o.idle(); u != nil {
			o.arm(u, o.delay())
		}
	}
	return false
}

// event builds engine event id's closure.
func (o *laneOracle) event(id int) func() {
	return func() {
		r := o.pop(-1, id)
		o.fired = id
		if r.halt {
			o.s.Engine.Halt()
		}
		switch o.next() % 4 {
		case 0:
			o.schedule(o.delay(), false)
		case 1:
			if t := o.idle(); t != nil {
				o.arm(t, o.delay())
			}
		}
	}
}

func (o *laneOracle) schedule(d sim.Cycle, halt bool) int {
	o.ids++
	at, key := o.s.Engine.Schedule(d, o.event(o.ids))
	o.q = append(o.q, laneRef{at: at, key: key, tid: -1, id: o.ids, halt: halt})
	return o.ids
}

func (o *laneOracle) check(op string) {
	strong, lane := 0, 0
	for _, r := range o.q {
		if r.key&1 == 0 {
			strong++
		}
		if r.tid >= 0 {
			lane++
		}
	}
	e := o.s.Engine
	if e.Pending() != len(o.q) || e.PendingStrong() != strong {
		o.t.Fatalf("after %s: Pending=%d PendingStrong=%d, reference has %d (%d strong)", op, e.Pending(), e.PendingStrong(), len(o.q), strong)
	}
	if wheel, far, retrying := LaneState(o.s); wheel+far != lane || retrying != lane {
		o.t.Fatalf("after %s: lane holds %d+%d, %d threads retrying; reference has %d", op, wheel, far, retrying, lane)
	}
}

func (o *laneOracle) due(limit sim.Cycle) bool {
	for _, r := range o.q {
		if r.at <= limit {
			return true
		}
	}
	return false
}

// rebuild restores the engine's scalar state over both queues and
// re-queues the strong events and lane retries in shuffled order, as
// snapshot restore does; weak events are dropped.
func (o *laneOracle) rebuild() {
	s, e := o.s, o.s.Engine
	var keep []laneRef
	for _, r := range o.q {
		if r.key&1 == 0 {
			keep = append(keep, r)
		}
	}
	for i := len(keep) - 1; i > 0; i-- {
		j := int(o.next()) % (i + 1)
		keep[i], keep[j] = keep[j], keep[i]
	}
	e.RestoreState(e.State())
	s.lane.clear()
	o.q = o.q[:0]
	for _, r := range keep {
		if r.tid < 0 {
			e.ScheduleRaw(r.at, r.key, o.event(r.id))
		} else {
			e.ReserveRaw(r.at, r.key)
			s.lane.push(s.threads[r.tid], e.Now())
		}
		o.q = append(o.q, r)
	}
}

func runLaneProgram(t testing.TB, prog []byte) *laneOracle {
	o := newLaneOracle(t, prog)
	s, e := o.s, o.s.Engine
	for o.pc < len(o.prog) {
		switch op := o.next() % 9; op {
		case 0, 1:
			if t := o.idle(); t != nil {
				o.arm(t, o.delay())
			}
		case 2:
			o.schedule(o.delay(), false)
		case 3:
			d := o.delay()
			o.ids++
			e.ScheduleWeak(d, o.event(o.ids))
			o.q = append(o.q, laneRef{at: e.Now() + d, key: e.State().Seq<<1 | 1, tid: -1, id: o.ids})
		case 4:
			o.ids++
			at, key := e.ScheduleAt(e.Now()+o.delay(), o.event(o.ids))
			o.q = append(o.q, laneRef{at: at, key: key, tid: -1, id: o.ids})
		case 5, 6: // RunUntil, sometimes with a bound behind the clock
			now := e.Now()
			limit := now + o.delay()
			if b := o.next(); b&3 == 0 && now >= sim.Cycle(b) {
				limit = now - sim.Cycle(b)
			}
			o.last = now
			got := s.RunUntil(limit)
			if limit < now && (e.Now() != now || got != now) {
				t.Fatalf("RunUntil(%d) at clock %d: clock %d, returned %d", limit, now, e.Now(), got)
			}
			if got != o.last {
				t.Fatalf("RunUntil(%d) returned %d, want last strong cycle %d", limit, got, o.last)
			}
			if !e.Halted() && o.due(limit) {
				t.Fatalf("RunUntil(%d) left events due by the bound", limit)
			}
		case 7: // an engine event that halts stops Run right after it
			id := o.schedule(o.delay(), true)
			o.last = e.Now()
			s.Run()
			if !e.Halted() || o.fired != id {
				t.Fatalf("Run stopped after %d, want the halting event %d", o.fired, id)
			}
		case 8:
			o.rebuild()
		}
		o.check("op")
	}
	o.last = e.Now()
	if got := s.Run(); got != o.last {
		t.Fatalf("final Run returned %d, want last strong cycle %d", got, o.last)
	}
	if len(o.q) != 0 || e.Pending() != 0 {
		t.Fatalf("drained system left %d queued (reference %d)", e.Pending(), len(o.q))
	}
	return o
}

// TestLaneMatchesReferenceOrder drives the merged lane and engine
// queues against the sorted reference on long random programs.
func TestLaneMatchesReferenceOrder(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := make([]byte, 20_000)
		rng.Read(prog)
		if o := runLaneProgram(t, prog); o.ran[0] < 1000 || o.ran[1] < 1000 || o.far < 100 {
			t.Fatalf("seed %d ran %d retries (%d armed far) and %d engine events; the programs do not interleave",
				seed, o.ran[0], o.far, o.ran[1])
		}
	}
}

// FuzzLaneOrder runs fuzzer-built lane programs against the reference.
func FuzzLaneOrder(f *testing.F) {
	f.Add([]byte{0, 2, 1, 9, 2, 3, 0, 200, 5, 7, 8, 0, 1, 3, 5, 255, 4, 17, 7, 1, 6, 7})
	f.Add([]byte{1, 1, 0, 2, 6, 3, 40, 0, 8, 7, 1, 5, 4, 9, 0, 0, 3, 3})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 4096 {
			prog = prog[:4096]
		}
		runLaneProgram(t, prog)
	})
}
