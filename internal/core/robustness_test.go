package core

import (
	"fmt"
	"strings"
	"testing"

	"logtmse/internal/addr"
	"logtmse/internal/obs"
	"logtmse/internal/sim"
)

// TestBackoffWindowSaturation pins the bounded-exponential backoff
// arithmetic: the shift grows with consecutive aborts, saturates at
// the cap shift, is hard-clamped at 32 even for absurd caps, and the
// overflow defense never lets the window wrap below the base.
func TestBackoffWindowSaturation(t *testing.T) {
	cases := []struct {
		base     sim.Cycle
		aborts   int
		capShift uint
		want     sim.Cycle
	}{
		{100, 0, 6, 100},           // no aborts: bare base
		{100, 3, 6, 800},           // growing region: base << 3
		{100, 6, 6, 6400},          // exactly at the cap
		{100, 50, 6, 6400},         // saturated at the cap
		{100, 50, 64, 100 << 32},   // cap beyond 32 clamps to 32
		{1 << 40, 50, 64, 1 << 40}, // base<<32 overflows: clamp to base
		{7, 1, 0, 7},               // zero cap: never grows
		{100, 32, 40, 100 << 32},   // aborts below an over-32 cap still clamp
	}
	for _, c := range cases {
		if got := backoffWindow(c.base, c.aborts, c.capShift); got != c.want {
			t.Errorf("backoffWindow(%d, %d, %d) = %d, want %d",
				c.base, c.aborts, c.capShift, got, c.want)
		}
	}
}

// TestAbortWhileStalled is the stale-retry regression for injected
// aborts: a thread sitting in a NACK-retry loop gets its transaction
// killed asynchronously. The abort must be delivered at a continuation
// boundary, the epoch guard must not see a retry from the dead
// transaction fire against its successor (it panics if one does), and
// the retried transaction must still produce the right final state.
func TestAbortWhileStalled(t *testing.T) {
	p := smallParams()
	var rec obs.Recorder
	s := newSys(t, p)
	s.AttachSink(&rec)
	pt := s.NewPageTable(1)
	X := addr.VAddr(0xd000)
	if _, err := s.SpawnOn(0, 0, "holder", 1, pt, func(a *API) {
		a.Transaction(func() {
			a.Store(X, a.Load(X)+1)
			a.Compute(6000) // hold the conflict long enough for the injection
		})
	}); err != nil {
		t.Fatal(err)
	}
	victim, err := s.SpawnOn(1, 0, "victim", 1, pt, func(a *API) {
		a.Compute(200) // start second so the holder owns X first
		a.Transaction(func() {
			a.Store(X, a.Load(X)+10)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	// By cycle 2000 the victim is deep in its stall-retry loop; kill its
	// transaction out from under the pending retries.
	injected := false
	s.Engine.Schedule(2000, func() {
		injected = s.InjectAbort(victim)
	})
	mustRun(t, s)
	if !injected {
		t.Fatalf("victim was not in a transaction at injection time")
	}
	if got := s.Mem.ReadWord(pt.Translate(X)); got != 11 {
		t.Errorf("X = %d, want 11 (both transactions must still apply)", got)
	}
	seen := false
	for _, e := range rec.Events {
		if e.Kind == obs.KindTxAbort && e.Cause == obs.CauseInjected {
			seen = true
		}
	}
	if !seen {
		t.Errorf("no TxAbort event with the injected cause was emitted")
	}
	if !victim.stalling && victim.stallRetries != 0 {
		t.Errorf("victim left with dangling stall state: retries=%d", victim.stallRetries)
	}
}

// TestStallAbortPossibleCycleThreeCores drives LogTM's possible_cycle
// rule through a genuine three-party deadlock, one transaction per core:
// t0 holds A and wants B, t1 holds B and wants C, t2 holds C and wants A.
// Pure timestamp pairs never see a two-party cycle here, so only the
// possible_cycle flag (set when NACKing an older requester) can break the
// loop under ResolveStallAbort. The run must complete with at least one
// abort and fully serialized updates.
func TestStallAbortPossibleCycleThreeCores(t *testing.T) {
	p := smallParams()
	p.Resolution = ResolveStallAbort
	s := newSys(t, p)
	pt := s.NewPageTable(1)
	A, B, C := addr.VAddr(0xa000), addr.VAddr(0xb000), addr.VAddr(0xc000)
	spin := func(first, second addr.VAddr) func(a *API) {
		return func(a *API) {
			for i := 0; i < 3; i++ {
				a.Transaction(func() {
					a.Store(first, a.Load(first)+1)
					a.Compute(2500) // overlap all three holders
					a.Store(second, a.Load(second)+1)
				})
				a.Compute(50)
			}
		}
	}
	for i, fn := range []func(a *API){spin(A, B), spin(B, C), spin(C, A)} {
		if _, err := s.SpawnOn(i, 0, "t", 1, pt, fn); err != nil {
			t.Fatal(err)
		}
	}
	mustRun(t, s)
	st := s.Stats()
	if st.Commits != 9 {
		t.Errorf("commits = %d, want 9", st.Commits)
	}
	if st.Aborts == 0 {
		t.Errorf("three-way cycle completed without a single abort; " +
			"possible_cycle resolution cannot have fired")
	}
	for name, va := range map[string]addr.VAddr{"A": A, "B": B, "C": C} {
		if got := s.Mem.ReadWord(pt.Translate(va)); got != 6 {
			t.Errorf("%s = %d, want 6", name, got)
		}
	}
}

// TestStarvationRetryLimitEscalates pins the bounded-retry escalation:
// with the limit armed, a requester that keeps losing NACK retries sheds
// its transaction with a starvation abort instead of spinning, and the
// run still converges to the serialized result.
func TestStarvationRetryLimitEscalates(t *testing.T) {
	p := smallParams()
	p.StarvationRetryLimit = 4
	var rec obs.Recorder
	s := newSys(t, p)
	s.AttachSink(&rec)
	pt := s.NewPageTable(1)
	X := addr.VAddr(0xe000)
	if _, err := s.SpawnOn(0, 0, "hog", 1, pt, func(a *API) {
		a.Transaction(func() {
			a.Store(X, a.Load(X)+1)
			a.Compute(8000)
		})
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SpawnOn(1, 0, "loser", 1, pt, func(a *API) {
		a.Compute(100)
		a.Transaction(func() {
			a.Store(X, a.Load(X)+10)
		})
	}); err != nil {
		t.Fatal(err)
	}
	mustRun(t, s)
	starved := false
	for _, e := range rec.Events {
		if e.Kind == obs.KindTxAbort && e.Cause == obs.CauseStarvation {
			starved = true
		}
	}
	if !starved {
		t.Errorf("no starvation abort despite StarvationRetryLimit=4 and an 8000-cycle hog")
	}
	if got := s.Mem.ReadWord(pt.Translate(X)); got != 11 {
		t.Errorf("X = %d, want 11", got)
	}
}

// TestThreadPanicReachesRunCaller pins the goroutine API's panic relay:
// a thread closure that panics on the engine owner's stack must surface
// as a panic on Run's caller, named "thread <name>: <value>", where a
// cell runner's recover can turn it into an error. The machine is then
// wedged (the panicking thread never finished), so Reset must refuse it.
func TestThreadPanicReachesRunCaller(t *testing.T) {
	s := newSys(t, smallParams())
	pt := s.NewPageTable(1)
	if _, err := s.SpawnOn(0, 0, "boom", 1, pt, func(a *API) {
		a.Store(0x1000, 1)
		a.Compute(50)
		panic("kaboom")
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SpawnOn(1, 0, "peer", 1, pt, func(a *API) {
		a.Store(0x2000, 1)
		a.Compute(100_000)
	}); err != nil {
		t.Fatal(err)
	}
	got := func() (r any) {
		defer func() { r = recover() }()
		s.Run()
		return nil
	}()
	if got == nil {
		t.Fatal("Run returned normally; the thread's panic was lost")
	}
	if msg := fmt.Sprint(got); !strings.HasPrefix(msg, "thread boom: kaboom") {
		t.Fatalf("Run panicked with %q, want prefix %q", msg, "thread boom: kaboom")
	}
	if err := s.Reset(2); err == nil || !strings.Contains(err.Error(), "live thread boom") {
		t.Fatalf("Reset after a thread panic = %v, want a live-thread refusal", err)
	}
}
