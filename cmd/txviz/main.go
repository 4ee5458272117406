// Command txviz summarizes a catapult trace produced by
// `logtmsim -trace-out`: transaction, set-size and stall distributions,
// abort causes, and the top-N conflict addresses.
//
// Usage:
//
//	logtmsim -workload BerkeleyDB -scale 0.1 -trace-out run.json
//	txviz run.json
//	txviz -top 20 run.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"logtmse/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run carries main's body and returns the exit code: 2 for a usage
// error, 1 for an unreadable trace.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("txviz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	top := fs.Int("top", 10, "conflict addresses to list (0 or more)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 || *top < 0 {
		fmt.Fprintf(stderr, "usage: txviz [-top N] <trace.json>  (N >= 0)\n")
		return 2
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "txviz: %v\n", err)
		return 1
	}
	defer f.Close()
	var doc obs.CatapultTrace
	if err := json.NewDecoder(f).Decode(&doc); err != nil {
		fmt.Fprintf(stderr, "txviz: %s: %v\n", fs.Arg(0), err)
		return 1
	}
	summarize(stdout, &doc, *top)
	return 0
}

// conflictStat accumulates per-address conflict activity.
type conflictStat struct {
	addr        string
	nacks       int
	summary     int
	sticky      int
	stallCycles float64
	stallCount  int
}

func (c conflictStat) total() int { return c.nacks + c.summary + c.sticky }

func summarize(w io.Writer, doc *obs.CatapultTrace, top int) {
	var txDur, readSet, writeSet, abortDur, stallDur, walkRecords []float64
	commits, aborts, unfinished := 0, 0, 0
	causes := map[string]int{}
	coreCauses := map[int]map[string]int{}
	conflicts := map[string]*conflictStat{}
	stat := func(addr string) *conflictStat {
		c := conflicts[addr]
		if c == nil {
			c = &conflictStat{addr: addr}
			conflicts[addr] = c
		}
		return c
	}
	argStr := func(args map[string]any, key string) string {
		s, _ := args[key].(string)
		return s
	}

	for _, e := range doc.TraceEvents {
		switch {
		case e.Ph == "X" && e.Name == obs.NameTx:
			commits++
			txDur = append(txDur, e.Dur)
			if r, ok := e.Args["reads"].(float64); ok {
				readSet = append(readSet, r)
			}
			if w, ok := e.Args["writes"].(float64); ok {
				writeSet = append(writeSet, w)
			}
		case e.Ph == "X" && e.Name == obs.NameTxAborted:
			aborts++
			abortDur = append(abortDur, e.Dur)
			if c := argStr(e.Args, "cause"); c != "" {
				causes[c]++
				if coreCauses[e.Pid] == nil {
					coreCauses[e.Pid] = map[string]int{}
				}
				coreCauses[e.Pid][c]++
			}
		case e.Ph == "X" && e.Name == obs.NameTxOpen:
			unfinished++
		case e.Ph == "X" && e.Name == obs.NameStall:
			stallDur = append(stallDur, e.Dur)
			if a := argStr(e.Args, "addr"); a != "" {
				c := stat(a)
				c.stallCycles += e.Dur
				c.stallCount++
			}
		case e.Ph == "X" && e.Name == obs.NameLogWalk:
			if r, ok := e.Args["records"].(float64); ok {
				walkRecords = append(walkRecords, r)
			}
		case e.Ph == "i" && e.Name == obs.NameNack:
			if a := argStr(e.Args, "addr"); a != "" {
				stat(a).nacks++
			}
		case e.Ph == "i" && e.Name == obs.NameSummaryHit:
			if a := argStr(e.Args, "addr"); a != "" {
				stat(a).summary++
			}
		case e.Ph == "i" && e.Name == obs.NameStickyFwd:
			if a := argStr(e.Args, "addr"); a != "" {
				stat(a).sticky++
			}
		}
	}

	fmt.Fprintf(w, "transactions: %d committed, %d aborted attempts", commits, aborts)
	if unfinished > 0 {
		fmt.Fprintf(w, ", %d unfinished", unfinished)
	}
	fmt.Fprintln(w)
	if len(causes) > 0 {
		names := make([]string, 0, len(causes))
		for n := range causes {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "abort causes:")
		for _, n := range names {
			fmt.Fprintf(w, " %s=%d", n, causes[n])
		}
		fmt.Fprintln(w)
		printCoreCauses(w, names, coreCauses)
	}
	printDist(w, "tx duration (cycles)", txDur)
	printDist(w, "read set per commit", readSet)
	printDist(w, "write set per commit", writeSet)
	printDist(w, "aborted attempt duration", abortDur)
	printDist(w, "stall duration (cycles)", stallDur)
	printDist(w, "undo records per abort", walkRecords)

	if len(conflicts) > 0 {
		list := make([]*conflictStat, 0, len(conflicts))
		for _, c := range conflicts {
			list = append(list, c)
		}
		sort.Slice(list, func(i, j int) bool {
			if list[i].total() != list[j].total() {
				return list[i].total() > list[j].total()
			}
			return list[i].addr < list[j].addr
		})
		if top > len(list) {
			top = len(list)
		}
		fmt.Fprintf(w, "top %d conflict addresses:\n", top)
		fmt.Fprintf(w, "  %-14s %8s %8s %8s %8s %12s\n",
			"addr", "events", "nacks", "summary", "sticky", "stall-cycles")
		for _, c := range list[:top] {
			fmt.Fprintf(w, "  %-14s %8d %8d %8d %8d %12.0f\n",
				c.addr, c.total(), c.nacks, c.summary, c.sticky, c.stallCycles)
		}
	}
}

// printCoreCauses prints the abort-cause x core breakdown: one row per
// core (the trace's pid), one column per cause, plus a total column.
func printCoreCauses(w io.Writer, names []string, coreCauses map[int]map[string]int) {
	if len(coreCauses) == 0 {
		return
	}
	cores := make([]int, 0, len(coreCauses))
	for c := range coreCauses {
		cores = append(cores, c)
	}
	sort.Ints(cores)
	fmt.Fprintf(w, "aborts by core:\n")
	fmt.Fprintf(w, "  %-6s", "core")
	for _, n := range names {
		fmt.Fprintf(w, " %10s", n)
	}
	fmt.Fprintf(w, " %10s\n", "total")
	for _, core := range cores {
		fmt.Fprintf(w, "  %-6d", core)
		total := 0
		for _, n := range names {
			fmt.Fprintf(w, " %10d", coreCauses[core][n])
			total += coreCauses[core][n]
		}
		fmt.Fprintf(w, " %10d\n", total)
	}
}

// printDist prints count / mean / p50 / p90 / p99 / max for a sample set.
func printDist(w io.Writer, label string, samples []float64) {
	if len(samples) == 0 {
		return
	}
	sum := 0.0
	max := samples[0]
	for _, s := range samples {
		sum += s
		if s > max {
			max = s
		}
	}
	qs := percentiles(samples, 0.50, 0.90, 0.99)
	fmt.Fprintf(w, "%-26s n=%-7d mean=%-9.1f p50=%-8.0f p90=%-8.0f p99=%-8.0f max=%.0f\n",
		label, len(samples), sum/float64(len(samples)), qs[0], qs[1], qs[2], max)
}

// percentiles returns exact nearest-rank percentiles of the decoded
// trace samples, one per q; the caller's slice is left unsorted.
func percentiles(samples []float64, qs ...float64) []float64 {
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
