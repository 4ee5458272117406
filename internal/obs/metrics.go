package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"

	"logtmse/internal/sim"
)

// Counter is a monotonically increasing value read through a function —
// the registry binds directly to the engine's existing counters instead
// of double-bookkeeping, so registered counters can never drift from
// core.Stats.
type Counter struct {
	Name string
	Read func() uint64
}

// Gauge is an instantaneous value sampled at snapshot time.
type Gauge struct {
	Name string
	Read func() float64
}

// histBuckets is one bucket per power of two: bucket i holds values v
// with bits.Len64(v) == i, i.e. [2^(i-1), 2^i). Bucket 0 holds zero.
const histBuckets = 65

// Histogram is a log-scale (power-of-two bucket) histogram of a
// nonnegative integer quantity: stall durations, transaction lengths,
// set sizes. Observe is allocation-free.
type Histogram struct {
	Name    string
	buckets [histBuckets]uint64
	count   uint64
	sum     uint64
	max     uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.buckets[bits.Len64(v)]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Count reports the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum reports the sum of observations.
func (h *Histogram) Sum() uint64 { return h.sum }

// Max reports the largest observation (0 when empty).
func (h *Histogram) Max() uint64 { return h.max }

// Mean reports the average observation (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile estimates the q-quantile (0 <= q <= 1) by geometric
// interpolation within the containing power-of-two bucket. Empty
// histograms report 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.count)
	cum := 0.0
	for i, b := range h.buckets {
		if b == 0 {
			continue
		}
		next := cum + float64(b)
		if rank <= next || i == histBuckets-1 {
			if i == 0 {
				return 0
			}
			lo := math.Exp2(float64(i - 1)) // bucket i covers [2^(i-1), 2^i)
			frac := (rank - cum) / float64(b)
			if frac < 0 {
				frac = 0
			}
			v := lo * math.Exp2(frac) // geometric interpolation
			if m := float64(h.max); v > m {
				v = m
			}
			return v
		}
		cum = next
	}
	return float64(h.max)
}

// Buckets returns the non-empty (lowerBound, count) pairs, lowest first.
func (h *Histogram) Buckets() []BucketCount {
	var out []BucketCount
	for i, b := range h.buckets {
		if b == 0 {
			continue
		}
		lo := uint64(0)
		if i > 0 {
			lo = 1 << uint(i-1)
		}
		out = append(out, BucketCount{Lo: lo, N: b})
	}
	return out
}

// BucketCount is one non-empty histogram bucket.
type BucketCount struct {
	Lo uint64 // inclusive lower bound of the bucket
	N  uint64
}

// Snapshot is the registry's state at one instant: one value per column
// (see Registry.Header for the column names).
type Snapshot struct {
	Cycle  sim.Cycle
	Values []float64
}

// Registry holds the run's metrics and their periodic snapshots.
type Registry struct {
	counters []*Counter
	gauges   []*Gauge
	hists    []*Histogram
	snaps    []Snapshot
	// vals backs the snapshots' Values: each is a full-capacity window
	// of it, so a periodic sample allocates only when vals or snaps
	// grows.
	vals []float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// CounterFunc registers a function-backed counter. Re-registering a
// name rebinds the existing column (so re-attaching a registry across
// seeds of a run keeps the snapshot schema stable).
func (r *Registry) CounterFunc(name string, read func() uint64) *Counter {
	for _, c := range r.counters {
		if c.Name == name {
			c.Read = read
			return c
		}
	}
	c := &Counter{Name: name, Read: read}
	r.counters = append(r.counters, c)
	return c
}

// GaugeFunc registers a function-backed gauge, rebinding on re-use of a
// name like CounterFunc.
func (r *Registry) GaugeFunc(name string, read func() float64) *Gauge {
	for _, g := range r.gauges {
		if g.Name == name {
			g.Read = read
			return g
		}
	}
	g := &Gauge{Name: name, Read: read}
	r.gauges = append(r.gauges, g)
	return g
}

// Histogram registers (or returns the existing) histogram with the name.
func (r *Registry) Histogram(name string) *Histogram {
	for _, h := range r.hists {
		if h.Name == name {
			return h
		}
	}
	h := &Histogram{Name: name}
	r.hists = append(r.hists, h)
	return h
}

// Histograms lists the registered histograms in registration order.
func (r *Registry) Histograms() []*Histogram { return r.hists }

// Header returns the snapshot column names: "cycle", each counter, each
// gauge, then count/mean/p50/p99/max per histogram.
func (r *Registry) Header() []string {
	cols := []string{"cycle"}
	for _, c := range r.counters {
		cols = append(cols, c.Name)
	}
	for _, g := range r.gauges {
		cols = append(cols, g.Name)
	}
	for _, h := range r.hists {
		cols = append(cols,
			h.Name+".count", h.Name+".mean", h.Name+".p50", h.Name+".p99", h.Name+".max")
	}
	return cols
}

// Snapshot appends one interval sample of every metric.
func (r *Registry) Snapshot(cycle sim.Cycle) {
	vals := r.vals
	start := len(vals)
	for _, c := range r.counters {
		vals = append(vals, float64(c.Read()))
	}
	for _, g := range r.gauges {
		vals = append(vals, g.Read())
	}
	for _, h := range r.hists {
		vals = append(vals,
			float64(h.count), h.Mean(), h.Quantile(0.50), h.Quantile(0.99), float64(h.max))
	}
	r.vals = vals
	r.snaps = append(r.snaps, Snapshot{Cycle: cycle, Values: vals[start:len(vals):len(vals)]})
}

// Snapshots returns the recorded time series.
func (r *Registry) Snapshots() []Snapshot { return r.snaps }

// WriteCSV writes the snapshot time series as CSV: a header row, then
// one row per snapshot. Values that are whole numbers print without a
// decimal point so counter columns stay exact.
func (r *Registry) WriteCSV(w io.Writer) error {
	cols := r.Header()
	for i, c := range cols {
		if i > 0 {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, c); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(w, "\n"); err != nil {
		return err
	}
	for _, s := range r.snaps {
		if _, err := fmt.Fprintf(w, "%d", uint64(s.Cycle)); err != nil {
			return err
		}
		if len(s.Values) != len(cols)-1 {
			return fmt.Errorf("obs: snapshot at cycle %d has %d values for %d columns (metrics registered after first snapshot?)",
				s.Cycle, len(s.Values), len(cols)-1)
		}
		for _, v := range s.Values {
			if v == math.Trunc(v) && math.Abs(v) < 1e15 {
				if _, err := fmt.Fprintf(w, ",%d", int64(v)); err != nil {
					return err
				}
			} else if _, err := fmt.Fprintf(w, ",%g", v); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	return nil
}

// CoreMetrics bundles the engine-side histograms with the registry they
// live in. The engine feeds the histograms directly (nil-guarded) and
// binds its counters into Reg at attach time.
type CoreMetrics struct {
	Reg *Registry
	// TxCycles is outermost-transaction duration, begin to commit.
	TxCycles *Histogram
	// AbortedTxCycles is begin-to-abort duration of aborted attempts.
	AbortedTxCycles *Histogram
	// StallCycles is stall-episode duration (first NACK to grant/abort).
	StallCycles *Histogram
	// Backoff is the randomized post-abort backoff delay.
	Backoff *Histogram
	// LogWalk is undo records restored per abort handler invocation.
	LogWalk *Histogram
	// ReadSet / WriteSet are committed set sizes in blocks.
	ReadSet  *Histogram
	WriteSet *Histogram
}

// NewCoreMetrics registers the engine's histograms in reg.
func NewCoreMetrics(reg *Registry) *CoreMetrics {
	return &CoreMetrics{
		Reg:             reg,
		TxCycles:        reg.Histogram("tx.cycles"),
		AbortedTxCycles: reg.Histogram("tx.aborted_cycles"),
		StallCycles:     reg.Histogram("stall.cycles"),
		Backoff:         reg.Histogram("abort.backoff_cycles"),
		LogWalk:         reg.Histogram("abort.log_records"),
		ReadSet:         reg.Histogram("tx.read_set"),
		WriteSet:        reg.Histogram("tx.write_set"),
	}
}

// Percentiles is a convenience for exact percentiles over raw samples
// (the txviz summarizer uses it on decoded trace durations; the
// simulator itself uses Histogram to stay allocation-free).
func Percentiles(samples []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(samples) == 0 {
		return out
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	for i, q := range qs {
		if q < 0 {
			q = 0
		}
		if q > 1 {
			q = 1
		}
		idx := int(math.Ceil(q*float64(len(s)))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(s) {
			idx = len(s) - 1
		}
		out[i] = s[idx]
	}
	return out
}
