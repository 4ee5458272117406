package logtmse

import (
	"context"
	"io"

	"logtmse/internal/stats"
	"logtmse/internal/sweep"
)

// An Experiment is one of the paper's evaluations as data: an ordered
// list of sections, run and written one at a time (see paper.go for the
// seven that cmd/reproduce regenerates).
type Experiment []Section

// Section is one streamed block of an experiment's report. Head is
// written before the cells run, so a reader sees what is computing.
// Cells then run as one parallel sweep, each cell over its Seeds, and
// Write renders their Aggregates in Cells order. A section without
// cells is static text or, for Table 4, a scripted scenario that Write
// runs itself.
type Section struct {
	Head  string
	Cells []RunConfig
	Write func(w io.Writer, aggs []Aggregate) error
}

// Run runs the sections in order and writes each one to w as soon as
// its cells finish, so a long campaign prints row by row. Every cell
// is served through cache (nil simulates everything) and reported to
// camp (nil: no telemetry). The output is byte-identical for every
// jobs and cache state. On cancellation the cells in flight finish and
// Run returns the context's error.
func (e Experiment) Run(ctx context.Context, w io.Writer, jobs int, cache *ResultCache, camp *Campaign) error {
	for _, s := range e {
		if _, err := io.WriteString(w, s.Head); err != nil {
			return err
		}
		aggs, err := runCells(ctx, s.Cells, jobs, cache, camp)
		if err != nil {
			return err
		}
		if s.Write != nil {
			if err := s.Write(w, aggs); err != nil {
				return err
			}
		}
	}
	return nil
}

// Runs counts the simulations the experiment asks for: every cell's
// seeds, before any cache dedup.
func (e Experiment) Runs() int {
	n := 0
	for _, s := range e {
		for _, c := range s.Cells {
			n += len(c.withDefaults().Seeds)
		}
	}
	return n
}

// seedOut pairs one seed's result with its error for ordered collection.
type seedOut struct {
	r   RunResult
	err error
}

// runCells simulates every (cell, seed) pair as one sweep on up to jobs
// workers and aggregates each cell's seeds in seed-list order, so the
// result is bit-identical for every worker count. A non-nil cache
// replaces the cells' own.
func runCells(ctx context.Context, cells []RunConfig, jobs int, cache *ResultCache, camp *Campaign) ([]Aggregate, error) {
	type pair struct{ cell, seed int }
	var pairs []pair
	cfgs := make([]RunConfig, len(cells))
	for i, c := range cells {
		c = c.withDefaults()
		if cache != nil {
			c.Cache = cache
		}
		cfgs[i] = c
		for s := range c.Seeds {
			pairs = append(pairs, pair{i, s})
		}
	}
	var begin, end func(i int)
	if camp != nil {
		begin, end = camp.Hooks()
	}
	outs, err := sweep.MapNotify(ctx, len(pairs), jobs, begin, end, func(i int) seedOut {
		c := cfgs[pairs[i].cell]
		r, err := RunOne(c, c.Seeds[pairs[i].seed])
		if camp != nil {
			camp.RecordRun(r.Stats.Commits, r.Stats.Aborts, r.Stats.Stalls)
			if err != nil {
				camp.FailCell()
			}
		}
		return seedOut{r: r, err: err}
	})
	if err != nil {
		return nil, err
	}
	aggs := make([]Aggregate, len(cfgs))
	for i, p := range pairs {
		o, agg := outs[i], &aggs[p.cell]
		if o.err != nil {
			return nil, o.err
		}
		agg.Workload, agg.Variant = cfgs[p.cell].Workload, cfgs[p.cell].Variant
		agg.Runs = append(agg.Runs, o.r)
		agg.CPU.Add(o.r.CyclesPerUnit)
	}
	return aggs, nil
}

// Figure4Row holds one benchmark's bars: speedups of each variant
// normalized to Lock (the paper's Figure 4 y-axis).
type Figure4Row struct {
	Workload string
	Speedup  map[string]float64 // variant name -> speedup vs Lock
	CI       map[string]float64 // 95% CI of the speedup
	Lock     Aggregate
	Cells    map[string]Aggregate
}

// Figure4 regenerates one row of Figure 4: rc's workload under every
// Figure4Variants bar (rc.Variant is ignored), each over rc.Seeds, on
// up to rc.Jobs workers and through rc.Cache. The lock baseline is one
// cell per seed, shared by every bar's speedup. camp, if set, receives
// live telemetry. The row is bit-identical for every worker count and
// cache state.
func Figure4(ctx context.Context, rc RunConfig, camp *Campaign) (Figure4Row, error) {
	aggs, err := runCells(ctx, figure4Cells(rc), rc.Jobs, nil, camp)
	if err != nil {
		return Figure4Row{Workload: rc.Workload}, err
	}
	return figure4Row(rc.Workload, aggs), nil
}

// figure4Cells is rc under each Figure 4 bar, Lock first.
func figure4Cells(rc RunConfig) []RunConfig {
	var cells []RunConfig
	for _, v := range Figure4Variants() {
		rc.Variant = v
		cells = append(cells, rc)
	}
	return cells
}

// figure4Row normalizes figure4Cells' aggregates to the Lock bar.
func figure4Row(workload string, aggs []Aggregate) Figure4Row {
	lock := aggs[0]
	row := Figure4Row{
		Workload: workload,
		Speedup:  make(map[string]float64),
		CI:       make(map[string]float64),
		Lock:     lock,
		Cells:    make(map[string]Aggregate),
	}
	for _, a := range aggs {
		row.Cells[a.Variant.Name] = a
		row.Speedup[a.Variant.Name] = stats.Speedup(lock.CPU, a.CPU)
		row.CI[a.Variant.Name] = stats.SpeedupCI(lock.CPU, a.CPU)
	}
	return row
}
