package main

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"time"

	"logtmse"
	"logtmse/internal/core"
	"logtmse/internal/snap"
)

// Span is one timed call into a layer: name, start and end in
// nanoseconds since the run began, the index of the span that caused it
// (-1 for none) and the cell it belongs to (-1 for none).
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Cell   int    `json:"cell"`
}

// Tracer keeps spans in memory until the run writes them out. A nil
// *Tracer records nothing, so untraced code paths call it freely.
type Tracer struct {
	t0    time.Time
	Spans []Span
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Begin opens a span and returns its index.
func (t *Tracer) Begin(name string, parent, cell int) int {
	if t == nil {
		return -1
	}
	t.Spans = append(t.Spans, Span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Cell: cell})
	return len(t.Spans) - 1
}

// End closes span i.
func (t *Tracer) End(i int) {
	if t == nil || i < 0 {
		return
	}
	t.Spans[i].End = int64(time.Since(t.t0))
}

// Durations returns the durations in nanoseconds of every span named
// name.
func (t *Tracer) Durations(name string) []float64 {
	var out []float64
	for _, s := range t.Spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// machinePool mirrors the product's pooled path for the decomposed run:
// the first cell of a machine configuration constructs it, later cells
// of that configuration Reset it.
type machinePool map[logtmse.Params]*logtmse.System

// runDecomposed runs one cell through the public calls RunOne makes —
// core.NewSystem or System.Reset, Workload.Spawn, System.Run,
// Instance.Verify — with a span around each.
func runDecomposed(c Cell, pool machinePool, tr *Tracer) (logtmse.RunResult, error) {
	cell := tr.Begin("cell", -1, c.ID)
	defer tr.End(cell)
	p := c.Params()
	key := p
	key.Seed = 0
	sys := pool[key]
	delete(pool, key)
	if sys != nil {
		sp := tr.Begin("core.reset", cell, c.ID)
		err := sys.Reset(c.Seed)
		tr.End(sp)
		if err != nil {
			return logtmse.RunResult{}, err
		}
	} else {
		sp := tr.Begin("core.new_system", cell, c.ID)
		var err error
		sys, err = core.NewSystem(p)
		tr.End(sp)
		if err != nil {
			return logtmse.RunResult{}, err
		}
	}
	sp := tr.Begin("workload.spawn", cell, c.ID)
	inst, err := c.Spawn(sys)
	tr.End(sp)
	if err != nil {
		return logtmse.RunResult{}, err
	}
	sp = tr.Begin("core.run", cell, c.ID)
	end := sys.Run()
	tr.End(sp)
	if !sys.AllDone() {
		return logtmse.RunResult{}, fmt.Errorf("threads stuck: %v", sys.Stuck())
	}
	sp = tr.Begin("workload.verify", cell, c.ID)
	err = inst.Verify(sys)
	tr.End(sp)
	if err != nil {
		return logtmse.RunResult{}, err
	}
	st := sys.Stats()
	if st.WorkUnits == 0 {
		return logtmse.RunResult{}, fmt.Errorf("no work units")
	}
	pool[key] = sys
	return runResult(c.Seed, end, st), nil
}

// runResult is the RunResult RunOne reports for a finished run.
func runResult(seed int64, end logtmse.Cycle, st logtmse.Stats) logtmse.RunResult {
	return logtmse.RunResult{
		Seed:          seed,
		Cycles:        end,
		WorkUnits:     st.WorkUnits,
		CyclesPerUnit: float64(end) / float64(st.WorkUnits),
		Stats:         st,
	}
}

// memoProbe times the memo layer off the default path: Fingerprint of
// every cell, and a warm ResultCache hit served through RunOne (the
// stored payload is the cell's own result, so the hit must return it
// unchanged).
func memoProbe(cells []Cell, results map[int]logtmse.RunResult, tr *Tracer, reps int) error {
	cache := logtmse.NewResultCache("", 0)
	for _, c := range cells {
		want := results[c.ID]
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(want); err != nil {
			return fmt.Errorf("%s: encode result: %w", c, err)
		}
		rc := c.Config()
		for i := 0; i < reps; i++ {
			sp := tr.Begin("memo.fingerprint", -1, c.ID)
			key, err := logtmse.Fingerprint(rc, c.Seed)
			tr.End(sp)
			if err != nil {
				return fmt.Errorf("%s: fingerprint: %w", c, err)
			}
			if i == 0 {
				cache.Put(key, buf.Bytes())
			}
			cached := rc
			cached.Cache = cache
			hits := cache.Stats().Hits
			sp = tr.Begin("memo.hit", -1, c.ID)
			got, err := logtmse.RunOne(cached, c.Seed)
			tr.End(sp)
			if err != nil {
				return fmt.Errorf("%s: cached run: %w", c, err)
			}
			if cache.Stats().Hits != hits+1 {
				return fmt.Errorf("%s: warm cache lookup missed", c)
			}
			if counterLine(c, got) != counterLine(c, want) {
				return fmt.Errorf("%s: cache hit returned different counters", c)
			}
		}
	}
	return nil
}

// snapProbe times snap.Capture and snap.Restore on the first capturable
// cell: run it to half its cycles, capture, restore onto a fresh spawn,
// finish the fork and return its result (the caller gates it against
// the cell's own counters).
func snapProbe(cells []Cell, results map[int]logtmse.RunResult, tr *Tracer) (Cell, logtmse.RunResult, error) {
	for _, c := range cells {
		sys, err := core.NewSystem(c.Params())
		if err != nil {
			return c, logtmse.RunResult{}, err
		}
		inst, err := c.Spawn(sys)
		if err != nil {
			return c, logtmse.RunResult{}, err
		}
		sys.RunUntil(results[c.ID].Cycles / 2)
		sp := tr.Begin("snap.capture", -1, c.ID)
		s, err := snap.Capture(sys, inst)
		tr.End(sp)
		// Finish the original run either way: an interpreted cell's
		// thread goroutines exit only when it completes.
		sys.Run()
		if errors.Is(err, core.ErrNotCapturable) {
			continue
		}
		if err != nil {
			return c, logtmse.RunResult{}, err
		}
		fork, err := core.NewSystem(c.Params())
		if err != nil {
			return c, logtmse.RunResult{}, err
		}
		finst, err := c.Spawn(fork)
		if err != nil {
			return c, logtmse.RunResult{}, err
		}
		sp = tr.Begin("snap.restore", -1, c.ID)
		err = snap.Restore(fork, finst, s)
		tr.End(sp)
		if err != nil {
			return c, logtmse.RunResult{}, err
		}
		end := fork.Run()
		if err := finst.Verify(fork); err != nil {
			return c, logtmse.RunResult{}, fmt.Errorf("%s: restored run: %w", c, err)
		}
		return c, runResult(c.Seed, end, fork.Stats()), nil
	}
	return Cell{}, logtmse.RunResult{}, fmt.Errorf("no capturable cell")
}

// shareLayers are the packages whose host share the traced run reports;
// every other sampled leaf counts as "other".
var shareLayers = []string{"sim", "core", "coherence", "sig", "cache", "network", "ptable", "mem", "txlog", "txvm", "workload"}

// layerOf maps a package path to its host-share bucket.
func layerOf(pkg string) string {
	if rest, ok := strings.CutPrefix(pkg, "logtmse/internal/"); ok && slices.Contains(shareLayers, rest) {
		return rest
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// leafPackage returns the package path of a pprof function name such as
// "logtmse/internal/ptable.(*Table[...]).Get" or "runtime.mallocgc".
func leafPackage(fn string) string {
	fn = strings.TrimSuffix(fn, " (inline)")
	if i := strings.IndexAny(fn, "(["); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// parseTop sums the flat% column of `go tool pprof -top` output by
// host-share bucket, as fractions of the samples pprof kept.
func parseTop(out []byte) (map[string]float64, error) {
	shares := map[string]float64{"runtime": 0, "other": 0}
	for _, l := range shareLayers {
		shares[l] = 0
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	inTable := false
	total := 0.0
	for sc.Scan() {
		line := sc.Text()
		fields := strings.Fields(line)
		if !inTable {
			inTable = len(fields) >= 5 && fields[0] == "flat" && fields[1] == "flat%"
			continue
		}
		if len(fields) < 6 {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(fields[1], "%"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof line %q: %w", line, err)
		}
		shares[layerOf(leafPackage(strings.Join(fields[5:], " ")))] += pct
		total += pct
	}
	if total == 0 {
		return nil, fmt.Errorf("pprof printed no samples")
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}

// profileShares reads a CPU profile with the toolchain's pprof, leaving
// out the reference-loop samples (see refLabels).
func profileShares(profile string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0",
		"-edgefraction=0", "-tagignore=bench=ref", profile)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, stderr.String())
	}
	return parseTop(out)
}
