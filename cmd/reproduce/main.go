// Command reproduce regenerates the paper's evaluation. Bare, it runs
// Tables 2 and 3, Figure 4 and Result 4 and writes one markdown report
// of measured values next to the paper's reference numbers; with a
// campaign name it prints that one artifact as text:
//
//	reproduce [flags]           markdown report (-scale 0.25)
//	reproduce figure4 [flags]   Figure 4: speedup vs locks
//	reproduce table2 [flags]    Table 2: benchmarks and set sizes
//	reproduce table3 [flags]    Table 3: conflict detection vs signature
//	reproduce victims [flags]   Result 4: transactional victimization
//	reproduce vtable [-seed N]  Table 4: virtualization events
//	reproduce ablation [flags]  §7/§8 design-choice studies (-scale 0.5)
//
// Each campaign reads only some flags; setting another exits 2. Output
// is byte-identical for any -j and with or without -cache-dir. The
// first SIGINT or SIGTERM lets the cells in flight finish (and reach
// -cache-dir, so a re-run resumes) and exits 130; a second one kills
// the process at once. A failed cell exits 1, and so does vtable when
// a virtualization event goes unexercised.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"

	"logtmse"
	"logtmse/internal/obs"
)

// options are the parsed flags a campaign builds its experiment from.
type options struct {
	scale     float64
	seeds     []int64
	seed      int64
	threads   int
	workloads []string
}

// campaign is one artifact: its default -scale, the flags it reads,
// and its experiment.
type campaign struct {
	scale float64
	reads string
	build func(o options) logtmse.Experiment
}

// sweepFlags are read by every campaign that runs simulation cells.
const sweepFlags = " j cache-dir cache-metrics serve"

var campaigns = map[string]campaign{
	"": {0.25, "scale seeds out" + sweepFlags, func(o options) logtmse.Experiment {
		return logtmse.ReportExperiment(o.scale, o.seeds)
	}},
	"figure4": {1, "scale seeds threads workloads" + sweepFlags, func(o options) logtmse.Experiment {
		return logtmse.Figure4Experiment(o.scale, o.seeds, o.threads, o.workloads)
	}},
	"table2": {1, "scale seed" + sweepFlags, func(o options) logtmse.Experiment {
		return logtmse.Table2Experiment(o.scale, o.seed)
	}},
	"table3": {1, "scale seed" + sweepFlags, func(o options) logtmse.Experiment {
		return logtmse.Table3Experiment(o.scale, o.seed)
	}},
	"victims": {1, "scale seed" + sweepFlags, func(o options) logtmse.Experiment {
		return logtmse.VictimsExperiment(o.scale, o.seed)
	}},
	"vtable": {0, "seed", func(o options) logtmse.Experiment {
		return logtmse.VTableExperiment(o.seed)
	}},
	"ablation": {0.5, "scale seeds" + sweepFlags, func(o options) logtmse.Experiment {
		return logtmse.AblationExperiment(o.scale, o.seeds)
	}},
}

func main() {
	ctx, stop := interruptContext()
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// interruptContext is cancelled by the first SIGINT or SIGTERM, which
// lets the cells in flight finish and reach the disk cache. Default
// handling is restored before the cancellation, so a second signal
// kills the process even while a cell never returns.
func interruptContext() (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case <-sigs:
		case <-ctx.Done():
		}
		signal.Stop(sigs)
		cancel()
	}()
	return ctx, cancel
}

// run is the whole command; it returns the exit status.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	name := ""
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		name, args = args[0], args[1:]
	}
	c, ok := campaigns[name]
	if !ok {
		fmt.Fprintf(stderr, "reproduce: unknown campaign %q (figure4, table2, table3, victims, vtable, ablation, or none for the report)\n", name)
		return 2
	}
	fs := flag.NewFlagSet(strings.TrimSpace("reproduce "+name), flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Float64("scale", c.scale, "input scale (1.0 = the paper's Table 2 inputs)")
	seeds := fs.Int("seeds", 3, "seeds per cell (95% confidence intervals)")
	seed := fs.Int64("seed", 1, "perturbation seed of a single-seed table")
	threads := fs.Int("threads", 0, "worker threads (0 = all 32 contexts)")
	workloads := fs.String("workloads", "all", "comma-separated benchmark names or 'all'")
	jobs := fs.Int("j", 0, "parallel simulation cells (0 = GOMAXPROCS); output is identical for any -j")
	cacheDir := fs.String("cache-dir", "", "persist cell results in this directory, so an interrupted campaign resumes (output is identical either way)")
	cacheMetrics := fs.String("cache-metrics", "", "write the result-cache counters as a metrics CSV here (summarize with txviz -metrics)")
	serve := fs.String("serve", "", "serve live /metrics and /progress on this address during the sweep")
	out := fs.String("out", "", "write the report here instead of standard output")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "%s: unexpected argument %q\n", fs.Name(), fs.Arg(0))
		return 2
	}
	unread := ""
	fs.Visit(func(f *flag.Flag) {
		if !slices.Contains(strings.Fields(c.reads), f.Name) {
			unread = f.Name
		}
	})
	if unread != "" {
		fmt.Fprintf(stderr, "%s: -%s does not apply (it reads -%s)\n",
			fs.Name(), unread, strings.Join(strings.Fields(c.reads), ", -"))
		return 2
	}

	o := options{scale: *scale, seed: *seed, threads: *threads}
	for i := 1; i <= *seeds; i++ {
		o.seeds = append(o.seeds, int64(i))
	}
	if *workloads == "all" {
		for _, w := range logtmse.Workloads() {
			o.workloads = append(o.workloads, w.Name)
		}
	} else {
		o.workloads = strings.Split(*workloads, ",")
	}
	exp := c.build(o)
	// In-memory memoization is always on: it dedups the cells campaigns
	// share (ablation's Perfect references, the report's seed-1 cells).
	cache := logtmse.NewResultCache(*cacheDir, 0)
	var camp *logtmse.Campaign
	if *serve != "" {
		camp = logtmse.NewCampaign(fs.Name(), exp.Runs())
		camp.CacheStats = func() (hits, misses uint64) {
			s := cache.Stats()
			return s.Hits, s.Misses
		}
		bound, stopServe, err := logtmse.ServeCampaign(*serve, camp)
		if err != nil {
			fmt.Fprintf(stderr, "%s: -serve: %v\n", fs.Name(), err)
			return 2
		}
		defer stopServe()
		fmt.Fprintf(stderr, "serving /metrics and /progress on http://%s\n", bound)
	}
	w := stdout
	var f *os.File
	if *out != "" {
		var err error
		if f, err = os.Create(*out); err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", fs.Name(), err)
			return 1
		}
		w = f
	}

	err := exp.Run(ctx, w, *jobs, cache, camp)
	if f != nil {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if exp.Runs() > 0 {
		fmt.Fprintln(stderr, logtmse.CacheSummary(cache))
	}
	if err == nil && *cacheMetrics != "" {
		err = writeCacheMetrics(*cacheMetrics, cache)
	}
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", fs.Name(), err)
		if errors.Is(err, context.Canceled) {
			return 130 // interrupted, not failed
		}
		return 1
	}
	if *out != "" {
		fmt.Fprintf(stdout, "report written to %s\n", *out)
	}
	return 0
}

// writeCacheMetrics writes the cache's hit/miss/eviction counters as a
// one-snapshot metrics CSV.
func writeCacheMetrics(path string, cache *logtmse.ResultCache) error {
	reg := obs.NewRegistry()
	cache.Bind(reg)
	reg.Snapshot(0)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = reg.WriteCSV(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
