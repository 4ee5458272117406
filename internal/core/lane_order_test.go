package core

import (
	"math/rand"
	"testing"

	"logtmse/internal/sim"
)

// The merged-order oracle. A lane program is a byte string that drives
// a System's two queues — start, completion, retry and backoff
// continuations armed on the lane by stand-in threads, strong and weak
// events on the engine, continuations and events that queue more as
// they run, near and far delays, RunUntil bounds, Run, and a
// snapshot-style restore that re-queues the lane in shuffled order —
// while a reference keeps every queued event as (cycle, key). Each
// executed event must be the reference's minimum, a continuation must
// run as the kind it was armed as, and the counts, the returned cycles
// and the clock must agree with the reference.
// TestLaneMatchesReferenceOrder runs long random programs and
// FuzzLaneOrder runs the fuzzer's.

// laneRef is one queued event as the reference sees it: thread tid's
// continuation of the given kind, or engine event id.
type laneRef struct {
	at   sim.Cycle
	key  uint64
	tid  int // -1 for an engine event
	id   int
	kind uint8
}

type laneOracle struct {
	t    testing.TB
	s    *System
	prog []byte
	pc   int
	q    []laneRef
	ids  int
	last sim.Cycle // last strong cycle executed since the bound began
	// ran counts executed continuations by kind, and engine events at
	// index pendNone; far counts continuations armed past the wheel.
	ran [pendBackoff + 1]int
	far int
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
	s.reserveThreads(laneOracleThreads)
	s.laneStep = o.step
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
// wheel, the retry band, the summary backoff band, or far out.
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
		return 160 + sim.Cycle(b>>3&7)
	default:
		return sim.Cycle(uint16(o.next())<<8|uint16(o.next())) % 5_001
	}
}

// kind draws a continuation kind, retries the likeliest.
func (o *laneOracle) kind() uint8 {
	if k := o.next() % 6; k < pendBackoff {
		return k + 1
	}
	return pendRetry
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
	o.ran[want.kind]++
	return want
}

// idle returns a stand-in thread with no continuation queued, or nil.
func (o *laneOracle) idle() *Thread {
	start := int(o.next())
	for k := 0; k < laneOracleThreads; k++ {
		if t := o.s.threads[(start+k)%laneOracleThreads]; t.pendKind == pendNone {
			return t
		}
	}
	return nil
}

func (o *laneOracle) arm(t *Thread, kind uint8, d sim.Cycle) {
	if d >= laneSpan {
		o.far++
	}
	o.s.laneArm(t, d, kind)
	o.q = append(o.q, laneRef{at: t.pendAt, key: t.pendKey, tid: t.ID, kind: kind})
}

// step stands in for System.runCont. It re-arms its own thread, queues
// an engine event or another thread's continuation, or finishes. Like
// runCont it reports a clean step only for a retry that queued nothing
// on the engine.
func (o *laneOracle) step(t *Thread) bool {
	kind := t.pendKind
	t.pendKind = pendNone
	if r := o.pop(t.ID, 0); r.kind != kind {
		o.t.Fatalf("thread %d's continuation ran as kind %d, armed as %d", t.ID, kind, r.kind)
	}
	switch o.next() % 4 {
	case 0:
		o.arm(t, o.kind(), o.delay())
	case 1: // finished: nothing queued
	case 2:
		o.schedule(o.delay())
		return false
	default:
		if u := o.idle(); u != nil {
			o.arm(u, o.kind(), o.delay())
		}
	}
	return kind == pendRetry
}

// event builds engine event id's closure.
func (o *laneOracle) event(id int) func() {
	return func() {
		o.pop(-1, id)
		switch o.next() % 4 {
		case 0:
			o.schedule(o.delay())
		case 1:
			if t := o.idle(); t != nil {
				o.arm(t, o.kind(), o.delay())
			}
		}
	}
}

func (o *laneOracle) schedule(d sim.Cycle) {
	o.ids++
	o.s.Engine.Schedule(d, o.event(o.ids))
	o.q = append(o.q, laneRef{at: o.s.Engine.Now() + d, key: o.s.Engine.State().Seq << 1, tid: -1, id: o.ids})
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
	if wheel, far, pending, _ := LaneState(o.s); wheel+far != lane || pending != lane {
		o.t.Fatalf("after %s: lane holds %d+%d, %d threads pending; reference has %d", op, wheel, far, pending, lane)
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

// restore restores the engine's scalar state, which empties its queue,
// and re-queues the lane's continuations in shuffled order from their
// recorded descriptors, as snapshot restore does. Engine events are
// lost, as they would be to a snapshot (which refuses to capture them).
func (o *laneOracle) restore() {
	s, e := o.s, o.s.Engine
	var keep []laneRef
	for _, r := range o.q {
		if r.tid >= 0 {
			keep = append(keep, r)
		}
	}
	for i := len(keep) - 1; i > 0; i-- {
		j := int(o.next()) % (i + 1)
		keep[i], keep[j] = keep[j], keep[i]
	}
	e.RestoreState(e.State())
	s.lane.clear()
	for _, t := range s.threads {
		t.pendKind, t.pendAt, t.pendKey = pendNone, 0, 0
	}
	for _, r := range keep {
		t := s.threads[r.tid]
		t.pendKind, t.pendAt, t.pendKey = r.kind, r.at, r.key
		e.ReserveRaw(r.at, r.key)
		s.lane.push(int32(laneAnchors+t.ID), r.at, r.key, 0, e.Now())
	}
	o.q = keep
}

func runLaneProgram(t testing.TB, prog []byte) *laneOracle {
	o := newLaneOracle(t, prog)
	s, e := o.s, o.s.Engine
	for o.pc < len(o.prog) {
		switch op := o.next() % 8; op {
		case 0, 1:
			if t := o.idle(); t != nil {
				o.arm(t, o.kind(), o.delay())
			}
		case 2:
			o.schedule(o.delay())
		case 3:
			d := o.delay()
			o.ids++
			e.ScheduleWeak(d, o.event(o.ids))
			o.q = append(o.q, laneRef{at: e.Now() + d, key: e.State().Seq<<1 | 1, tid: -1, id: o.ids})
		case 4, 5: // RunUntil, sometimes with a bound behind the clock
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
			if o.due(limit) {
				t.Fatalf("RunUntil(%d) left events due by the bound", limit)
			}
		case 6: // a bound at the clock runs what is due in this cycle
			o.last = e.Now()
			if got := s.RunUntil(e.Now()); got != o.last || o.due(e.Now()) {
				t.Fatalf("RunUntil(now) returned %d, want %d, or left events due", got, o.last)
			}
		case 7:
			o.restore()
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
		o := runLaneProgram(t, prog)
		for k, n := range o.ran {
			if n < 300 {
				t.Fatalf("seed %d ran %v (engine events, then by continuation kind); kind %d ran %d times: the programs do not interleave", seed, o.ran, k, n)
			}
		}
		if o.far < 100 {
			t.Fatalf("seed %d armed %d continuations past the lane's wheel", seed, o.far)
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

// BenchmarkLaneRetryShape is the queue shape of a NACK-retry storm: 32
// threads (one per hardware thread context), each with one continuation
// on the lane. A thread re-arms 20-27 cycles out (the retry latency plus
// jitter), and one re-arm in four goes 1,024-2,047 cycles out (a compute
// or memory delay). One op is one executed and re-armed continuation.
func BenchmarkLaneRetryShape(b *testing.B) {
	p := DefaultParams()
	s, err := NewSystem(p)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		s.threads = append(s.threads, &Thread{ID: i})
	}
	x := uint64(0x9E3779B97F4A7C15)
	s.laneStep = func(t *Thread) bool {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		d := 20 + sim.Cycle(x&7)
		if x>>3&3 == 0 {
			d = 1024 + sim.Cycle(x>>5&1023)
		}
		s.laneArm(t, d, pendRetry)
		return false
	}
	for _, t := range s.threads {
		s.laneArm(t, sim.Cycle(t.ID), pendRetry)
	}
	s.runLimit = ^sim.Cycle(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.stepBounded()
	}
}
