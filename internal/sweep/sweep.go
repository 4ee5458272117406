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
// Every runner threads a context.Context: when it is cancelled (SIGINT,
// SIGTERM, a dying coordinator), workers stop claiming new cells, the
// cells already running finish — a half-simulated cell is worthless, a
// finished one is journalable — and the runner returns ctx.Err() with
// the partial results. Cancellation never orphans worker goroutines:
// the runner only returns after every worker has exited.
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
	return MapWorker(ctx, n, j, func(_, i int) T { return fn(i) })
}

// MapWorker is Map with the worker's identity passed to fn: worker is in
// [0, effective-j) and stable for the goroutine evaluating that cell, so
// fn can keep per-worker scratch state (a pooled simulation machine, a
// reusable buffer) in a slice indexed by worker with no locking. Cell
// results are still written in index order, so the aggregate output
// stays bit-identical for every worker count; only state keyed by
// worker may differ, and such state must never influence results.
func MapWorker[T any](ctx context.Context, n, j int, fn func(worker, i int) T) ([]T, error) {
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
			out[i] = fn(0, i)
		}
		return out, ctx.Err()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < j; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = fn(worker, i)
			}
		}(w)
	}
	wg.Wait()
	return out, ctx.Err()
}

// MapNotify is Map with begin/end hooks around each cell, for live
// campaign telemetry: begin(i) fires just before cell i starts, end(i)
// just after it finishes, on the worker's goroutine. The hooks must be
// safe for concurrent calls and must never influence results — they
// observe scheduling, which (unlike results) depends on j.
func MapNotify[T any](ctx context.Context, n, j int, begin, end func(i int), fn func(i int) T) ([]T, error) {
	return MapWorker(ctx, n, j, func(_, i int) T {
		if begin != nil {
			begin(i)
		}
		v := fn(i)
		if end != nil {
			end(i)
		}
		return v
	})
}

// Each is Map for cells that produce no value.
func Each(ctx context.Context, n, j int, fn func(i int)) error {
	_, err := Map(ctx, n, j, func(i int) struct{} {
		fn(i)
		return struct{}{}
	})
	return err
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
