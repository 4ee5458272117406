// Command txlens runs a campaign with the conflict-attribution profiler
// attached and explains where the contention went: which blocks and
// pages cause NACKs, stalls and aborts (split by requester/responder
// core, transaction phase and request type), how the signature
// positives partition into true conflicts / Bloom aliases / sticky-set
// carryover / summary-signature hits, who blocks whom (blame graph,
// detected deadlock cycles, critical-path stall chains), and how much
// work each abort cause discarded.
//
// Every attributed counter is reconciled against the engine's own
// Stats before the report is written; any mismatch is a bug and fails
// the run. The report is byte-identical across -j values and re-runs:
// per-cell profilers merge in submission order and every table sorts
// deterministically.
//
//	txlens                                  # BerkeleyDB / BS, 3 seeds
//	txlens -workload all -variant all       # full Figure-4 sweep
//	txlens -variant BS_64 -top 20           # aliasing-prone signature
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"logtmse"
	"logtmse/internal/sweep"
)

// cell is one (workload, variant, seed) simulation in the campaign.
type cell struct {
	workload string
	variant  logtmse.Variant
	seed     int64
}

// cellOut carries a cell's result and its attribution.
type cellOut struct {
	res  logtmse.RunResult
	prof *logtmse.Profiler
	err  error
}

// combo is the (workload, variant) aggregation of a report section.
type combo struct {
	workload string
	variant  string
}

func main() {
	os.Exit(run())
}

func run() int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	workloadName := flag.String("workload", "BerkeleyDB", "benchmark (Table 2) or \"all\"")
	variantName := flag.String("variant", "BS", "signature variant (Figure 4 TM bars) or \"all\"")
	scale := flag.Float64("scale", 0.1, "input scale")
	threads := flag.Int("threads", 0, "worker threads (0 = all contexts)")
	seeds := flag.Int("seeds", 3, "seeds per (workload, variant) cell")
	seedBase := flag.Int64("seed-base", 1, "first seed")
	maxCycles := flag.Int64("max-cycles", 0, "hang backstop per run (cycles; 0 = unbounded)")
	top := flag.Int("top", 10, "rows per report table")
	out := flag.String("out", "", "write the report here (default stdout)")
	jobs := flag.Int("j", 0, "parallel cells (0 = GOMAXPROCS); the report is byte-identical for any -j")
	verbose := flag.Bool("v", false, "print one line per cell to stderr")
	flag.Parse()

	workloads, err := workloadList(*workloadName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	variants, err := variantList(*variantName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	var cells []cell
	for _, w := range workloads {
		for _, v := range variants {
			for s := 0; s < *seeds; s++ {
				cells = append(cells, cell{workload: w, variant: v, seed: *seedBase + int64(s)})
			}
		}
	}

	// Each cell gets its own Profiler (sinks are single-goroutine);
	// results land in submission order, so the merge below — and the
	// report — is byte-identical for any -j.
	outs, err := sweep.Map(ctx, len(cells), *jobs, func(i int) cellOut {
		c := cells[i]
		p := logtmse.NewProfiler()
		res, err := logtmse.RunOne(logtmse.RunConfig{
			Workload:  c.workload,
			Variant:   c.variant,
			Scale:     *scale,
			Threads:   *threads,
			MaxCycles: logtmse.Cycle(*maxCycles),
			Sink:      p,
		}, c.seed)
		return cellOut{res: res, prof: p, err: err}
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "txlens:", err)
		if errors.Is(err, context.Canceled) {
			return 130
		}
		return 1
	}

	// Aggregate per (workload, variant): merge profilers and sum Stats
	// in submission order.
	merged := make(map[combo]*logtmse.Profiler)
	stats := make(map[combo]*logtmse.Stats)
	var order []combo
	bad := 0
	for i, o := range outs {
		c := cells[i]
		if *verbose {
			status := "ok"
			if o.err != nil {
				status = "FAIL: " + o.err.Error()
			}
			fmt.Fprintf(os.Stderr, "%-12s %-8s seed %3d  %10d cycles  %s\n",
				c.workload, c.variant.Name, c.seed, uint64(o.res.Cycles), status)
		}
		if o.err != nil {
			fmt.Fprintf(os.Stderr, "txlens: %s/%s seed %d: %v\n", c.workload, c.variant.Name, c.seed, o.err)
			bad++
			continue
		}
		k := combo{workload: c.workload, variant: c.variant.Name}
		if merged[k] == nil {
			merged[k] = logtmse.NewProfiler()
			stats[k] = &logtmse.Stats{}
			order = append(order, k)
		}
		merged[k].Merge(o.prof)
		stats[k].Add(o.res.Stats)
	}

	var sb strings.Builder
	for _, k := range order {
		p, s := merged[k], stats[k]
		fmt.Fprintf(&sb, "=== %s / %s (scale %g, %d seeds) ===\n", k.workload, k.variant, *scale, *seeds)
		fmt.Fprintf(&sb, "engine: commits=%d aborts=%d stalls=%d fp-stalls=%d summary=%d possible-cycle-aborts=%d\n",
			s.Commits, s.Aborts, s.Stalls, s.FalsePositiveStalls, s.SummaryConflicts, s.PossibleCycleAborts)
		if err := reconcile(p, s); err != nil {
			fmt.Fprintf(os.Stderr, "txlens: %s/%s: attribution mismatch: %v\n", k.workload, k.variant, err)
			bad++
		}
		fmt.Fprintf(&sb, "reconciled: true+alias+sticky=%d == stalls; alias+sticky=%d == fp-stalls; summary=%d; conflict-aborts=%d == possible-cycle\n",
			p.Attr.TotalNacks(), p.Attr.FalsePositives(), p.Attr.Summary, p.ConflictAborts)
		p.Report(&sb, *top)
		sb.WriteString("\n")
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		defer f.Close()
		w = f
	}
	io.WriteString(w, sb.String())
	if bad > 0 {
		return 1
	}
	return 0
}

// workloadList resolves -workload.
func workloadList(name string) ([]string, error) {
	if name == "all" {
		var out []string
		for _, w := range logtmse.Workloads() {
			out = append(out, w.Name)
		}
		return out, nil
	}
	if _, ok := logtmse.WorkloadByName(name); !ok {
		return nil, fmt.Errorf("txlens: unknown workload %q", name)
	}
	return []string{name}, nil
}

// variantList resolves -variant to TM variants (attribution needs
// transactions; the Lock baseline has none).
func variantList(name string) ([]logtmse.Variant, error) {
	if name == "all" {
		var out []logtmse.Variant
		for _, v := range logtmse.Figure4Variants() {
			if v.Name != "Lock" {
				out = append(out, v)
			}
		}
		return out, nil
	}
	v, ok := logtmse.VariantByName(name)
	if !ok || v.Name == "Lock" {
		return nil, fmt.Errorf("txlens: unknown or non-TM variant %q", name)
	}
	return []logtmse.Variant{v}, nil
}

// reconcile cross-checks the attribution against the engine's own
// counters; any violation means the profiler lost or misclassified
// events and fails the run.
func reconcile(p *logtmse.Profiler, s *logtmse.Stats) error {
	if got, want := p.Attr.TotalNacks(), s.Stalls; got != want {
		return fmt.Errorf("true+alias+sticky = %d, engine stalls = %d", got, want)
	}
	if got, want := p.Attr.FalsePositives(), s.FalsePositiveStalls; got != want {
		return fmt.Errorf("alias+sticky = %d, engine false-positive stalls = %d", got, want)
	}
	if got, want := p.Attr.Summary, s.SummaryConflicts; got != want {
		return fmt.Errorf("summary hits = %d, engine summary conflicts = %d", got, want)
	}
	if got, want := p.ConflictAborts, s.PossibleCycleAborts; got != want {
		return fmt.Errorf("conflict aborts = %d, engine possible-cycle aborts = %d", got, want)
	}
	if p.CycleAborts > p.ConflictAborts {
		return fmt.Errorf("cycle aborts %d exceed conflict aborts %d", p.CycleAborts, p.ConflictAborts)
	}
	return nil
}
