// Package sweep runs independent simulation cells in parallel with
// deterministic, submission-ordered result aggregation.
//
// A "cell" is one self-contained RunOne invocation: it builds its own
// engine, memory system and workload, shares nothing with its neighbors,
// and returns a value. Because cells are share-nothing, running them
// concurrently cannot perturb any cell's execution — and because results
// are written into a slice indexed by submission order, the aggregate
// output is bit-identical regardless of the worker count. -j only changes
// wall-clock time, never results.
//
// Map threads a context.Context: when it is cancelled (SIGINT,
// SIGTERM), workers stop claiming new cells, the cells already running
// finish — a half-simulated cell is worthless, a finished one reaches
// the result cache — and Map returns ctx.Err() with the partial
// results. Cancellation never orphans worker goroutines: Map only
// returns after every worker has exited.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Jobs normalizes a -j flag value: j > 0 is taken as-is; j <= 0 means
// "one worker per available CPU" (GOMAXPROCS).
func Jobs(j int) int {
	if j > 0 {
		return j
	}
	return runtime.GOMAXPROCS(0)
}

// Map evaluates fn(0..n-1) on up to j workers and returns the results in
// index order. fn must be safe to call concurrently for distinct indices
// (share-nothing cells satisfy this trivially). With j <= 1 the cells run
// serially on the calling goroutine, in index order.
//
// If ctx is cancelled mid-sweep, Map returns ctx.Err() along with the
// partial result slice: cells that never ran are left at the zero value,
// so a caller must treat a non-nil error as "do not aggregate".
func Map[T any](ctx context.Context, n, j int, fn func(i int) T) ([]T, error) {
	if n <= 0 {
		return nil, ctx.Err()
	}
	out := make([]T, n)
	j = Jobs(j)
	if j > n {
		j = n
	}
	if j <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return out, err
			}
			out[i] = fn(i)
		}
		return out, ctx.Err()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < j; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return out, ctx.Err()
}

// Trap invokes fn and converts a panic into an ordinary error carrying
// the panic value and stack. Campaign runners wrap each cell in Trap so
// one panicking cell fails that cell, reported like any other cell
// error, instead of killing the whole campaign process and losing every
// in-flight result.
func Trap(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("cell panicked: %v\n%s", r, debug.Stack())
		}
	}()
	return fn()
}
