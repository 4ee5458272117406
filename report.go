package logtmse

import (
	"fmt"
	"io"

	"logtmse/internal/stats"
)

// Figure 4 rendering for cmd/figure4: the report is a pure function of
// the rows, so a plain or cached sweep at any -j prints the same bytes.

// WriteFigure4Header writes the report preamble and column header.
func WriteFigure4Header(w io.Writer, scale float64, seeds int) {
	fmt.Fprintln(w, "Figure 4: Speedup normalized to locks (higher is better)")
	fmt.Fprintf(w, "scale=%.2f seeds=%d\n\n", scale, seeds)
	header := fmt.Sprintf("%-12s", "Benchmark")
	for _, v := range Figure4Variants() {
		header += fmt.Sprintf("%10s", v.Name)
	}
	fmt.Fprintln(w, header)
}

// WriteFigure4Row writes one benchmark's speedup line and ASCII bars.
func WriteFigure4Row(w io.Writer, row Figure4Row) {
	line := fmt.Sprintf("%-12s", row.Workload)
	for _, v := range Figure4Variants() {
		line += fmt.Sprintf("%7.2f±%-4.2f", row.Speedup[v.Name], row.CI[v.Name])
	}
	fmt.Fprintln(w, line)
	for _, v := range Figure4Variants() {
		fmt.Fprintf(w, "    %-8s |%s\n", v.Name, stats.Bar(row.Speedup[v.Name], 2.0, 48))
	}
	fmt.Fprintln(w)
}
