// Command figure4 regenerates Figure 4 of the paper: execution-time
// speedup of LogTM-SE variants (Perfect, BS, CBS, DBS at 2 Kb, BS_64)
// normalized to the lock-based baseline, for each of the five benchmarks.
//
// Usage:
//
//	figure4 [-scale 1.0] [-seeds 3] [-threads 32] [-workloads all] [-j N]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"logtmse"
	"logtmse/internal/obs"
)

func main() {
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	scale := flag.Float64("scale", 1.0, "input scale relative to the paper's (1.0 = Table 2 inputs)")
	seeds := flag.Int("seeds", 3, "number of pseudo-random perturbations per cell (95% CIs)")
	threads := flag.Int("threads", 0, "worker threads (0 = all 32 contexts)")
	names := flag.String("workloads", "all", "comma-separated benchmark names or 'all'")
	jobs := flag.Int("j", 0, "parallel simulation cells (0 = GOMAXPROCS); results are identical for any -j")
	useCache := flag.Bool("cache", false, "memoize cell results by fingerprint (in-memory; output is byte-identical either way)")
	cacheDir := flag.String("cache-dir", "", "persist cached cell results in this directory across invocations (implies -cache)")
	cacheMetrics := flag.String("cache-metrics", "", "write the cache hit/miss/eviction counters as a metrics CSV here (summarize with txviz -metrics)")
	serveAddr := flag.String("serve", "", "serve live /metrics and /progress on this address during the sweep")
	flag.Parse()
	cache := logtmse.CacheFromFlags(*useCache, *cacheDir)

	var sel []string
	if *names == "all" {
		for _, w := range logtmse.Workloads() {
			sel = append(sel, w.Name)
		}
	} else {
		sel = strings.Split(*names, ",")
	}
	seedList := make([]int64, *seeds)
	for i := range seedList {
		seedList[i] = int64(i + 1)
	}

	variants := logtmse.Figure4Variants()
	var camp *logtmse.Campaign
	if *serveAddr != "" {
		camp = logtmse.NewCampaign("figure4", len(sel)*len(variants)*len(seedList))
		if cache != nil {
			camp.CacheStats = func() (hits, misses uint64) {
				s := cache.Stats()
				return s.Hits, s.Misses
			}
		}
		bound, stop, err := logtmse.ServeCampaign(*serveAddr, camp)
		if err != nil {
			fmt.Fprintf(os.Stderr, "figure4: -serve: %v\n", err)
			os.Exit(2)
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "serving /metrics and /progress on http://%s\n", bound)
	}
	logtmse.WriteFigure4Header(os.Stdout, *scale, *seeds)
	for _, name := range sel {
		params := logtmse.DefaultParams()
		row, err := logtmse.Figure4Observed(ctx, name, *scale, seedList, &params, *threads, *jobs, cache, camp)
		if err != nil {
			fmt.Fprintf(os.Stderr, "figure4: %v\n", err)
			if errors.Is(err, context.Canceled) {
				os.Exit(130)
			}
			os.Exit(1)
		}
		logtmse.WriteFigure4Row(os.Stdout, row)
	}
	if cache != nil {
		fmt.Fprintln(os.Stderr, logtmse.CacheSummary(cache))
	}
	if *cacheMetrics != "" {
		if cache == nil {
			fmt.Fprintln(os.Stderr, "figure4: -cache-metrics needs -cache or -cache-dir")
			os.Exit(2)
		}
		reg := obs.NewRegistry()
		cache.Bind(reg)
		reg.Snapshot(0)
		f, err := os.Create(*cacheMetrics)
		if err == nil {
			err = reg.WriteCSV(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "figure4: cache-metrics: %v\n", err)
			os.Exit(1)
		}
	}
}
