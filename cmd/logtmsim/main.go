// Command logtmsim runs one benchmark on the simulated LogTM-SE machine
// and prints detailed statistics — the general-purpose inspection tool.
//
// Usage:
//
//	logtmsim -workload Raytrace -variant Perfect -scale 0.2 -seed 1
//	logtmsim -print-config          # Table 1 parameters
//	logtmsim -trace 40              # first 40 lifecycle events as text
//	logtmsim -trace-out run.json    # per-core timeline for chrome://tracing
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"logtmse"
)

func main() {
	os.Exit(run())
}

// run carries main's body and returns the exit code, so that deferred
// profile writers fire before the process exits.
func run() int {
	name := flag.String("workload", "BerkeleyDB", "benchmark name (Table 2)")
	variant := flag.String("variant", "Perfect", "Lock | Perfect | BS | CBS | DBS | BS_64")
	scale := flag.Float64("scale", 1.0, "input scale (1.0 = paper inputs)")
	seed := flag.Int64("seed", 1, "random perturbation seed")
	threads := flag.Int("threads", 0, "worker threads (0 = all contexts)")
	snoop := flag.Bool("snoop", false, "use the broadcast snooping protocol (§7) instead of the directory")
	chips := flag.Int("chips", 1, "build a multiple-CMP system (§7) with this many chips")
	trace := flag.Int("trace", 0, "print the first N lifecycle events, one text line each, ahead of the summary")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event (catapult) JSON timeline to this file (open in chrome://tracing or Perfetto; summarize with txviz)")
	snapEvery := flag.Uint64("snap-every", 0, "capture a full-state snapshot every N cycles and prove the layer on the spot: the last snapshot is restored onto a fresh machine and replayed, and the replay must match bit for bit (needs no -trace/-trace-out); exits 1 if the run ends before the first capture")
	asJSON := flag.Bool("json", false, "emit the result as JSON (for scripting)")
	printConfig := flag.Bool("print-config", false, "print the Table 1 system parameters and exit")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile here")
	memprofile := flag.String("memprofile", "", "write a heap profile here at exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "logtmsim: %v\n", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "logtmsim: %v\n", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "logtmsim: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "logtmsim: %v\n", err)
			}
		}()
	}

	params := logtmse.DefaultParams()
	if *snoop {
		params.Protocol = logtmse.ProtocolSnoop
	}
	if *chips > 1 {
		params.Chips = *chips
		params.GridW, params.GridH = 2, 2
	}
	if *printConfig {
		fmt.Println("System Model Settings (Table 1)")
		fmt.Printf("  Processor cores     %d x %d-way SMT (%d thread contexts)\n",
			params.Cores, params.ThreadsPerCore, params.Contexts())
		fmt.Printf("  L1 cache            %d KB %d-way, 64-byte blocks, %d-cycle latency\n",
			params.L1Bytes/1024, params.L1Ways, params.L1HitLat)
		fmt.Printf("  L2 cache            %d MB %d-way, %d banks, %d-cycle latency\n",
			params.L2Bytes/1024/1024, params.L2Ways, params.L2Banks, params.L2Lat)
		fmt.Printf("  Memory              %d-cycle latency\n", params.MemLat)
		fmt.Printf("  L2 directory        full bit-vector sharer list, %d-cycle latency\n", params.DirLat)
		fmt.Printf("  Interconnect        %dx%d grid, 64-byte links, %d-cycle link latency\n",
			params.GridW, params.GridH, params.LinkLat)
		fmt.Printf("  Protocol            %v\n", params.Protocol)
		return 0
	}

	v, ok := logtmse.VariantByName(*variant)
	if !ok {
		fmt.Fprintf(os.Stderr, "logtmsim: unknown variant %q\n", *variant)
		return 1
	}
	var sinks []logtmse.Sink
	if *trace > 0 {
		traced := 0
		sinks = append(sinks, logtmse.FuncSink(func(e logtmse.Event) {
			if traced++; traced <= *trace {
				fmt.Println(e)
			}
		}))
	}
	// The timeline streams to the file while the run goes; a run that
	// fails leaves no partial file behind.
	var traceFile *os.File
	var cw *logtmse.CatapultWriter
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "logtmsim: trace-out: %v\n", err)
			return 1
		}
		traceFile = f
		defer func() {
			// traceFile is cleared once the timeline is complete; any
			// earlier exit removes the partial file.
			if traceFile != nil {
				traceFile.Close()
				os.Remove(*traceOut)
			}
		}()
		cw = logtmse.NewCatapultWriter(f)
		sinks = append(sinks, cw)
	}
	rc := logtmse.RunConfig{
		Workload: *name,
		Variant:  v,
		Scale:    *scale,
		Threads:  *threads,
		Params:   &params,
		Sink:     logtmse.Tee(sinks...),
	}
	var res logtmse.RunResult
	var err error
	if *snapEvery > 0 {
		var sc logtmse.SnapSelfCheck
		res, sc, err = logtmse.RunWithSnapshots(rc, *seed, logtmse.Cycle(*snapEvery))
		if err != nil {
			fmt.Fprintf(os.Stderr, "logtmsim: %v\n", err)
			return 1
		}
		if !sc.Identical {
			fmt.Fprintf(os.Stderr, "logtmsim: no snapshot captured before the run ended at cycle %d; nothing replayed (lower -snap-every)\n",
				sc.EndCycle)
			return 1
		}
		fmt.Fprintf(os.Stderr, "logtmsim: %d snapshots; replay from cycle %d of %d bit-identical\n",
			sc.Snapshots, sc.ResumedFrom, sc.EndCycle)
	} else {
		res, err = logtmse.RunOne(rc, *seed)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "logtmsim: %v\n", err)
		return 1
	}
	if cw != nil {
		err := cw.Close()
		if cerr := traceFile.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "logtmsim: trace-out: %v\n", err)
			return 1
		}
		traceFile = nil
		fmt.Fprintf(os.Stderr, "logtmsim: wrote %d events to %s\n", cw.Events(), *traceOut)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Workload      string
			Variant       string
			Scale         float64
			Seed          int64
			Cycles        uint64
			WorkUnits     uint64
			CyclesPerUnit float64
			Stats         logtmse.Stats
		}{*name, v.Name, *scale, *seed, uint64(res.Cycles), res.WorkUnits, res.CyclesPerUnit, res.Stats}); err != nil {
			fmt.Fprintf(os.Stderr, "logtmsim: %v\n", err)
			return 1
		}
		return 0
	}
	st := res.Stats
	fmt.Printf("%s / %s  (scale %.2f, seed %d)\n", *name, v.Name, *scale, *seed)
	fmt.Printf("  cycles               %d\n", res.Cycles)
	fmt.Printf("  work units           %d\n", res.WorkUnits)
	fmt.Printf("  cycles/unit          %.1f\n", res.CyclesPerUnit)
	fmt.Printf("  commits              %d (nested %d, open %d)\n", st.Commits, st.NestedCommits, st.OpenCommits)
	fmt.Printf("  aborts               %d\n", st.Aborts)
	fmt.Printf("  stalls (tx NACKs)    %d (false-positive %.1f%%)\n", st.Stalls, st.FalsePositivePct())
	fmt.Printf("  non-tx retries       %d\n", st.NonTxRetries)
	fmt.Printf("  SMT conflicts        %d, summary conflicts %d\n", st.SMTConflicts, st.SummaryConflicts)
	fmt.Printf("  read set avg/max     %.1f / %d blocks\n", st.ReadSetAvg(), st.ReadSetMax)
	fmt.Printf("  write set avg/max    %.1f / %d blocks\n", st.WriteSetAvg(), st.WriteSetMax)
	fmt.Printf("  log records          %d (filter hits %d, peak log %d B)\n", st.LogRecords, st.LogFilterHits, st.MaxLogBytes)
	fmt.Printf("  loads/stores         %d / %d\n", st.Coh.Loads, st.Coh.Stores)
	fmt.Printf("  L1 hits/misses       %d / %d (upgrades %d)\n", st.Coh.L1Hits, st.Coh.L1Misses, st.Coh.Upgrades)
	fmt.Printf("  L2 misses            %d\n", st.Coh.L2Misses)
	fmt.Printf("  forwards/broadcasts  %d / %d\n", st.Coh.Forwards, st.Coh.Broadcasts)
	fmt.Printf("  protocol NACKs       %d\n", st.Coh.NACKs)
	fmt.Printf("  sticky evicts        %d\n", st.Coh.StickyEvicts)
	fmt.Printf("  tx victims L1/L2     %d / %d\n", st.Coh.L1TxVictims, st.Coh.L2TxVictims)
	fmt.Printf("  writebacks           %d\n", st.Coh.WritebacksToMem)
	return 0
}
