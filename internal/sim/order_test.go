package sim

import (
	"math/rand"
	"testing"
)

// The queue-order oracle. An order program is a byte string that drives
// an Engine through every way an event enters or leaves the queue —
// near and far delays, weak events, events that schedule more events as
// they run, Step, StepWithin, RunUntil (bounds ahead of and behind the
// clock) and external events merged through Reserve, Head and Advance —
// while a reference keeps every queued event as (cycle, key). Each
// executed event must be the reference's minimum, and the clock must
// never move backwards. TestHeapMatchesReferenceOrder runs long random
// programs and FuzzEngineOrder runs the fuzzer's.

// refEvent is one queued event as the reference sees it.
type refEvent struct {
	at  Cycle
	key uint64
	id  int
}

type orderOracle struct {
	t     testing.TB
	e     *Engine
	prog  []byte
	pc    int
	q     []refEvent // queued events, unordered
	ids   int
	last  Cycle // last strong cycle executed since the run began
	limit Cycle // no event may run after this cycle
}

// next consumes one program byte; an exhausted program reads as 1, so
// events that run after it schedule no children and the final Run ends.
func (o *orderOracle) next() byte {
	if o.pc >= len(o.prog) {
		return 1
	}
	b := o.prog[o.pc]
	o.pc++
	return b
}

// delay draws a delay from one of three classes: within a few cycles,
// the retry band, or far out (up to 30,000 cycles, the lock-mode
// compute and memory delays).
func (o *orderOracle) delay() Cycle {
	b := o.next()
	switch b % 3 {
	case 0:
		return Cycle(b >> 2 & 7)
	case 1:
		return 20 + Cycle(b>>2&7)
	default:
		return Cycle(uint16(o.next())<<8|uint16(o.next())) % 30_001
	}
}

// pop checks that event id is the reference's minimum, due now, and
// removes it.
func (o *orderOracle) pop(id int) {
	e := o.e
	if len(o.q) == 0 {
		o.t.Fatalf("event %d ran at cycle %d with the reference queue empty", id, e.Now())
	}
	m := 0
	for i := range o.q {
		if r := o.q[i]; r.at < o.q[m].at || r.at == o.q[m].at && r.key < o.q[m].key {
			m = i
		}
	}
	want := o.q[m]
	if want.id != id {
		o.t.Fatalf("event %d ran at cycle %d; the reference's next is %+v (of %d queued)", id, e.Now(), want, len(o.q))
	}
	o.q = append(o.q[:m], o.q[m+1:]...)
	if e.Now() != want.at || e.Now() > o.limit {
		o.t.Fatalf("event %d ran at cycle %d, want %d (bound %d)", id, e.Now(), want.at, o.limit)
	}
	if want.key&1 == 0 {
		o.last = want.at
	}
}

// fn builds event id's closure: it checks the event against the
// reference minimum, and may schedule a child as it runs.
func (o *orderOracle) fn(id int) func() {
	return func() {
		o.pop(id)
		if o.next()&3 == 0 {
			o.schedule(o.delay())
		}
	}
}

func (o *orderOracle) newID() int { o.ids++; return o.ids }

func (o *orderOracle) schedule(d Cycle) int {
	id := o.newID()
	o.e.Schedule(d, o.fn(id))
	o.q = append(o.q, refEvent{o.e.Now() + d, o.e.seq << 1, id})
	return id
}

// check compares the engine's queue counts with the reference.
func (o *orderOracle) check(op string) {
	strong := 0
	for _, r := range o.q {
		if r.key&1 == 0 {
			strong++
		}
	}
	if o.e.Pending() != len(o.q) || o.e.PendingStrong() != strong {
		o.t.Fatalf("after %s: Pending=%d PendingStrong=%d, reference has %d (%d strong)",
			op, o.e.Pending(), o.e.PendingStrong(), len(o.q), strong)
	}
}

// due reports whether the reference holds an event at or before limit.
func (o *orderOracle) due(limit Cycle) bool {
	for _, r := range o.q {
		if r.at <= limit {
			return true
		}
	}
	return false
}

// external queues an external event the way the core's lane does:
// Reserve takes its key, the engine runs every event Head reports
// before it, and Advance runs it.
func (o *orderOracle) external(d Cycle) {
	e := o.e
	at, key := e.Reserve(d)
	o.q = append(o.q, refEvent{at, key, 0})
	o.check("Reserve")
	for {
		hat, hkey, ok := e.Head()
		if !ok || hat > at || hat == at && hkey > key {
			break
		}
		e.Step()
	}
	e.Advance(at)
	if e.LastWeak() {
		o.t.Fatalf("LastWeak after Advance")
	}
	o.pop(0)
}

// runOrderProgram executes prog against a fresh engine and the reference.
func runOrderProgram(t testing.TB, prog []byte) {
	e := NewEngine(1)
	o := &orderOracle{t: t, e: e, prog: prog, limit: ^Cycle(0)}
	for o.pc < len(o.prog) {
		switch op := o.next() % 8; op {
		case 0, 1, 2:
			o.schedule(o.delay())
		case 3:
			d := o.delay()
			id := o.newID()
			e.ScheduleWeak(d, o.fn(id))
			o.q = append(o.q, refEvent{e.Now() + d, e.seq<<1 | 1, id})
		case 4:
			for k := o.next() & 7; k > 0; k-- {
				if want := len(o.q) > 0; e.Step() != want {
					t.Fatalf("Step disagrees with the reference (%d queued)", len(o.q))
				}
			}
		case 5:
			limit := e.Now() + o.delay()
			o.limit = limit
			want := o.due(limit)
			if e.StepWithin(limit) != want {
				t.Fatalf("StepWithin(%d) disagrees with the reference", limit)
			}
			o.limit = ^Cycle(0)
		case 6: // RunUntil, sometimes with a bound behind the clock
			now := e.Now()
			limit := now + o.delay()
			if b := o.next(); b&3 == 0 && now >= Cycle(b) {
				limit = now - Cycle(b)
			}
			o.limit, o.last = limit, now
			got := e.RunUntil(limit)
			o.limit = ^Cycle(0)
			if limit < now && (e.Now() != now || got != now) {
				t.Fatalf("RunUntil(%d) at clock %d: clock %d, returned %d; want both %d", limit, now, e.Now(), got, now)
			}
			if got != o.last {
				t.Fatalf("RunUntil(%d) returned %d, want last strong cycle %d", limit, got, o.last)
			}
			if o.due(limit) {
				t.Fatalf("RunUntil(%d) left events due by the bound", limit)
			}
		case 7:
			o.external(o.delay())
		}
		o.check("op")
	}
	o.last = e.Now()
	if got := e.Run(); got != o.last {
		t.Fatalf("final Run returned %d, want last strong cycle %d", got, o.last)
	}
	if len(o.q) != 0 || e.Pending() != 0 {
		t.Fatalf("drained engine left %d queued (reference %d)", e.Pending(), len(o.q))
	}
}

// TestHeapMatchesReferenceOrder drives the engine's heap, merged with
// external events, against the sorted reference on long random order
// programs — the determinism gate for the queue.
func TestHeapMatchesReferenceOrder(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := make([]byte, 20_000)
		rng.Read(prog)
		runOrderProgram(t, prog)
	}
}

// FuzzEngineOrder runs fuzzer-built order programs against the
// reference.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0, 5, 1, 9, 2, 3, 0, 200, 6, 7, 8, 0, 7, 3, 6, 255, 4, 17, 7, 1, 6, 7})
	f.Add([]byte{2, 3, 1, 2, 3, 3, 40, 0, 7, 7, 1, 6, 4, 9, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 4096 {
			prog = prog[:4096]
		}
		runOrderProgram(t, prog)
	})
}
