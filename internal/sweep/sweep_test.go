package sweep

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestJobs(t *testing.T) {
	if got := Jobs(4); got != 4 {
		t.Errorf("Jobs(4) = %d", got)
	}
	want := runtime.GOMAXPROCS(0)
	if got := Jobs(0); got != want {
		t.Errorf("Jobs(0) = %d, want %d", got, want)
	}
	if got := Jobs(-3); got != want {
		t.Errorf("Jobs(-3) = %d, want %d", got, want)
	}
}

// cell is a deterministic pure function of its index — a stand-in for a
// share-nothing simulation cell.
func cell(i int) uint64 {
	x := uint64(i)*0x9E3779B97F4A7C15 + 1
	for k := 0; k < 100; k++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// TestMapDeterministicAcrossJ is the sweep-level determinism pin: the
// result slice must be identical for every worker count.
func TestMapDeterministicAcrossJ(t *testing.T) {
	const n = 257
	ctx := context.Background()
	ref, err := Map(ctx, n, 1, cell)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []int{2, 3, 8, 64, n + 5} {
		got, err := Map(ctx, n, j, cell)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("Map with j=%d differs from j=1", j)
		}
	}
}

func TestMapRunsEveryIndexExactlyOnce(t *testing.T) {
	const n = 1000
	var calls [n]atomic.Int32
	if _, err := Map(context.Background(), n, 8, func(i int) int {
		calls[i].Add(1)
		return i
	}); err != nil {
		t.Fatal(err)
	}
	for i := range calls {
		if c := calls[i].Load(); c != 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
	}
}

func TestMapEdgeCases(t *testing.T) {
	ctx := context.Background()
	if got, _ := Map(ctx, 0, 8, cell); got != nil {
		t.Errorf("Map(0) = %v, want nil", got)
	}
	if got, _ := Map(ctx, -5, 8, cell); got != nil {
		t.Errorf("Map(-5) = %v, want nil", got)
	}
	if got, _ := Map(ctx, 1, 8, cell); len(got) != 1 || got[0] != cell(0) {
		t.Errorf("Map(1) = %v", got)
	}
}

// TestMapCancellation: once the context is cancelled, workers stop
// claiming cells (cells already running finish), Map returns ctx.Err(),
// and no goroutine is left behind.
func TestMapCancellation(t *testing.T) {
	const n = 10_000
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	release := make(chan struct{})
	var once sync.Once
	outs, err := Map(ctx, n, 4, func(i int) int {
		started.Add(1)
		once.Do(func() {
			cancel()
			close(release)
		})
		<-release
		return i + 1
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(outs) != n {
		t.Fatalf("len(outs) = %d, want %d (partial slice)", len(outs), n)
	}
	// At most one cell per worker can have been claimed before the
	// cancellation was observed.
	if s := started.Load(); int(s) >= n {
		t.Fatalf("cancellation did not stop the sweep: %d cells ran", s)
	}
}

// TestMapSerialCancellation covers the j=1 in-line path.
func TestMapSerialCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ran := 0
	_, err := Map(ctx, 100, 1, func(i int) int {
		ran++
		if i == 3 {
			cancel()
		}
		return i
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran != 4 {
		t.Fatalf("ran %d cells after cancel at i=3, want 4", ran)
	}
}

// TestTrap: a panicking cell becomes that cell's error — with the panic
// value and a stack trace — instead of killing the process.
func TestTrap(t *testing.T) {
	err := Trap(func() error { panic("boom at cell 7") })
	if err == nil {
		t.Fatal("Trap swallowed the panic")
	}
	if !strings.Contains(err.Error(), "boom at cell 7") {
		t.Fatalf("error lost the panic value: %v", err)
	}
	if !strings.Contains(err.Error(), "sweep_test.go") {
		t.Fatalf("error lost the stack trace: %v", err)
	}
	if err := Trap(func() error { return nil }); err != nil {
		t.Fatalf("Trap(nil-returning fn) = %v", err)
	}
	want := errors.New("ordinary failure")
	if err := Trap(func() error { return want }); err != want {
		t.Fatalf("Trap passed through %v, want %v", err, want)
	}
}

// TestTrapInsideMap: one panicking cell fails that cell only; the
// campaign — the surrounding Map — completes every other cell.
func TestTrapInsideMap(t *testing.T) {
	const n = 64
	type out struct {
		v   uint64
		err error
	}
	outs, err := Map(context.Background(), n, 8, func(i int) out {
		var v uint64
		err := Trap(func() error {
			if i == 13 {
				panic("unlucky")
			}
			v = cell(i)
			return nil
		})
		return out{v: v, err: err}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if i == 13 {
			if o.err == nil || !strings.Contains(o.err.Error(), "unlucky") {
				t.Fatalf("cell 13 err = %v, want trapped panic", o.err)
			}
			continue
		}
		if o.err != nil || o.v != cell(i) {
			t.Fatalf("cell %d = (%d, %v), want (%d, nil)", i, o.v, o.err, cell(i))
		}
	}
}
