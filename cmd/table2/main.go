// Command table2 regenerates Table 2 of the paper: benchmarks, inputs,
// units of work, measured transactions, and read-/write-set sizes
// (average and maximum, in 64-byte cache lines) under perfect signatures.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"logtmse"
	"logtmse/internal/sweep"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	scale := flag.Float64("scale", 1.0, "input scale (1.0 = paper inputs)")
	seed := flag.Int64("seed", 1, "perturbation seed")
	jobs := flag.Int("j", 0, "parallel simulation cells (0 = GOMAXPROCS); output is identical for any -j")
	useCache := flag.Bool("cache", false, "memoize cell results by fingerprint (output is byte-identical either way)")
	cacheDir := flag.String("cache-dir", "", "persist cached cell results in this directory across invocations (implies -cache)")
	flag.Parse()
	cache := logtmse.CacheFromFlags(*useCache, *cacheDir)

	v, _ := logtmse.VariantByName("Perfect")
	fmt.Println("Table 2: Benchmarks and Inputs (measured with perfect signatures)")
	fmt.Printf("%-12s %-22s %-18s %6s %12s %9s %9s %10s %10s\n",
		"Benchmark", "Input", "Unit of Work", "Units", "Transactions",
		"Read Avg", "Read Max", "Write Avg", "Write Max")
	type cell struct {
		res logtmse.RunResult
		err error
	}
	workloads := logtmse.Workloads()
	rows, err := sweep.Map(ctx, len(workloads), *jobs, func(i int) cell {
		res, err := logtmse.RunOne(logtmse.RunConfig{
			Workload: workloads[i].Name, Variant: v, Scale: *scale, Cache: cache,
		}, *seed)
		return cell{res: res, err: err}
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "table2: %v\n", err)
		if errors.Is(err, context.Canceled) {
			os.Exit(130)
		}
		os.Exit(1)
	}
	for i, w := range workloads {
		if rows[i].err != nil {
			fmt.Fprintf(os.Stderr, "table2: %v\n", rows[i].err)
			os.Exit(1)
		}
		res, st := rows[i].res, rows[i].res.Stats
		fmt.Printf("%-12s %-22s %-18s %6d %12d %9.1f %9d %10.1f %10d\n",
			w.Name, w.Input, w.UnitOfWork, res.WorkUnits, st.Commits,
			st.ReadSetAvg(), st.ReadSetMax, st.WriteSetAvg(), st.WriteSetMax)
	}
	if cache != nil {
		fmt.Fprintln(os.Stderr, logtmse.CacheSummary(cache))
	}
	fmt.Println("\nPaper reference (Table 2):")
	fmt.Println("  BerkeleyDB  128 units,  1,120 txns, read 8.1/30,  write 6.8/28")
	fmt.Println("  Cholesky      1 unit,     261 txns, read 4.0/4,   write 2.0/2")
	fmt.Println("  Radiosity   512 units, 11,172 txns, read 2.0/25,  write 1.5/45")
	fmt.Println("  Raytrace      1 unit,  47,781 txns, read 5.8/550, write 2.0/3")
	fmt.Println("  Mp3d        512 units, 17,733 txns, read 2.2/18,  write 1.7/10")
}
