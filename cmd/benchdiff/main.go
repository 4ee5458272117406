// Command benchdiff compares two benchmark snapshots written by
// scripts/bench.sh and enforces the performance gate: no guarded cell
// may regress past -max-regress, the Engine.Schedule hot path must stay
// at zero allocations per operation, and the Figure-4 geomean speedup
// versus the base snapshot is reported.
//
// Both snapshots must come from the same host: ns/op measures the
// machine as much as the code. CI's bench-smoke job benchmarks the base
// revision beside the change on one runner and compares the two.
//
// Usage:
//
//	go run ./cmd/benchdiff -base BENCH_base.json -new BENCH_abc1234.json
//	go run ./cmd/benchdiff -base BENCH_base.json -new BENCH_ci.json -max-regress 0.10
//	go run ./cmd/benchdiff -base BENCH_base.json -new BENCH_ci.json -max-geomean 0.02
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

type cell struct {
	Name     string             `json:"name"`
	NsOp     float64            `json:"ns_op"`
	AllocsOp float64            `json:"allocs_op"`
	BytesOp  float64            `json:"bytes_op"`
	Metrics  map[string]float64 `json:"metrics,omitempty"`
}

type snapshot struct {
	Rev        string `json:"rev"`
	Short      bool   `json:"short"`
	Benchmarks []cell `json:"benchmarks"`
}

func load(path string) (snapshot, error) {
	var s snapshot
	buf, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(buf, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

func main() {
	base := flag.String("base", "BENCH_baseline.json", "baseline snapshot")
	neu := flag.String("new", "", "candidate snapshot (required)")
	maxRegress := flag.Float64("max-regress", 0.10, "fail when a guarded cell's ns/op grows by more than this fraction")
	maxGeomean := flag.Float64("max-geomean", math.Inf(1), "fail when the Figure-4 geomean ratio grows by more than this fraction (per-cell noise averages out, so this gate can be much tighter than -max-regress)")
	flag.Parse()
	if *neu == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -new is required")
		os.Exit(2)
	}
	os.Exit(run(os.Stdout, os.Stderr, *base, *neu, *maxRegress, *maxGeomean))
}

// run performs the comparison and returns the process exit code: 0 on a
// clean gate, 1 on a regression or alloc-gate failure, 2 on bad inputs.
func run(w, errw io.Writer, base, neu string, maxRegress, maxGeomean float64) int {
	b, err := load(base)
	if err != nil {
		fmt.Fprintln(errw, "benchdiff:", err)
		return 2
	}
	n, err := load(neu)
	if err != nil {
		fmt.Fprintln(errw, "benchdiff:", err)
		return 2
	}
	baseBy := map[string]cell{}
	for _, c := range b.Benchmarks {
		baseBy[c.Name] = c
	}

	fmt.Fprintf(w, "benchdiff: %s (%s) -> %s (%s)\n", base, b.Rev, neu, n.Rev)
	fmt.Fprintf(w, "%-34s %14s %14s %8s\n", "cell", "base ns/op", "new ns/op", "ratio")
	failed := false
	var logSum float64
	var logN int
	for _, c := range n.Benchmarks {
		bc, ok := baseBy[c.Name]
		if !ok || bc.NsOp <= 0 {
			fmt.Fprintf(w, "%-34s %14s %14.0f %8s\n", c.Name, "-", c.NsOp, "new")
			continue
		}
		ratio := c.NsOp / bc.NsOp
		mark := ""
		// The cache-hit cell runs in microseconds; scheduler noise swamps
		// the gate there, and a "regression" in cache-hit latency is not a
		// simulation regression. The cold and pooled cells stay guarded.
		guarded := c.Name != "SweepCell/cached"
		if guarded && ratio > 1+maxRegress {
			mark = "  REGRESSION"
			failed = true
		}
		fmt.Fprintf(w, "%-34s %14.0f %14.0f %8.3f%s\n", c.Name, bc.NsOp, c.NsOp, ratio, mark)
		if strings.HasPrefix(c.Name, "Figure4/") {
			logSum += math.Log(ratio)
			logN++
		}
	}
	if logN > 0 {
		geo := math.Exp(logSum / float64(logN))
		fmt.Fprintf(w, "\nFigure4 geomean ratio: %.3f (%.2fx %s)\n",
			geo, math.Max(geo, 1/geo), map[bool]string{true: "slower", false: "faster"}[geo > 1])
		if geo > 1+maxGeomean {
			fmt.Fprintf(w, "GEOMEAN GATE: ratio %.3f exceeds 1+%.2f\n", geo, maxGeomean)
			failed = true
		}
	}
	// Sweep-strategy summary: how much the pooled fast path and the
	// result cache buy over cold construction, within this snapshot.
	newBy := map[string]cell{}
	for _, c := range n.Benchmarks {
		newBy[c.Name] = c
	}
	if cold, ok := newBy["SweepCell/cold"]; ok && cold.NsOp > 0 {
		if p, ok := newBy["SweepCell/pooled"]; ok && p.NsOp > 0 {
			fmt.Fprintf(w, "SweepCell pooled/cold: %.3f (%.0f -> %.0f B/op)\n",
				p.NsOp/cold.NsOp, cold.BytesOp, p.BytesOp)
		}
		if h, ok := newBy["SweepCell/cached"]; ok && h.NsOp > 0 {
			fmt.Fprintf(w, "SweepCell cached/cold: %.4f (%.0fx speedup on a cache hit)\n",
				h.NsOp/cold.NsOp, cold.NsOp/h.NsOp)
		}
	}
	// The zero-alloc gate: the event-engine hot path must not allocate.
	for _, c := range n.Benchmarks {
		if strings.HasPrefix(c.Name, "EngineSchedule") && c.AllocsOp != 0 {
			fmt.Fprintf(w, "ALLOC GATE: %s allocates %.1f/op, want 0\n", c.Name, c.AllocsOp)
			failed = true
		}
	}
	if failed {
		fmt.Fprintln(w, "benchdiff: FAIL")
		return 1
	}
	fmt.Fprintln(w, "benchdiff: ok")
	return 0
}
