package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"logtmse"
	"logtmse/internal/workload"
)

// counterLine renders every simulated counter of one cell result. Two
// results with equal lines are bit-identical in Stats; the line is what
// the per-pass comparison and the workload digest hash.
func counterLine(c Cell, r logtmse.RunResult) string {
	return fmt.Sprintf("%s cycles=%d work=%d %+v", c, r.Cycles, r.WorkUnits, r.Stats)
}

// invariantViolation reports the first paper invariant the result breaks
// ("" when all hold). These hold for any seed:
//   - a Lock cell runs no transactions: zero begins, commits, aborts and
//     stalls;
//   - the Perfect signature never aliases: zero false-positive stalls;
//   - a commit needs a begin.
func invariantViolation(c Cell, st logtmse.Stats) string {
	if c.Variant.Mode == workload.Lock && st.Begins+st.Commits+st.Aborts+st.Stalls != 0 {
		return fmt.Sprintf("lock cell has transactional activity (begins %d, commits %d, aborts %d, stalls %d)",
			st.Begins, st.Commits, st.Aborts, st.Stalls)
	}
	if c.Variant.Name == "Perfect" && st.FalsePositiveStalls != 0 {
		return fmt.Sprintf("perfect signature has %d false-positive stalls", st.FalsePositiveStalls)
	}
	if st.Commits > st.Begins {
		return fmt.Sprintf("commits %d exceed begins %d", st.Commits, st.Begins)
	}
	return ""
}

// Gate applies the per-cell failure rules to every execution of a cell
// and counts failures against executions attempted. An execution fails
// when the run errors, breaks a paper invariant, or its counters differ
// from the first execution of the same cell in this process.
type Gate struct {
	Attempted int
	Failed    int
	// Failures holds the first few failure messages.
	Failures []string
	first    map[int]string
}

// maxFailureMessages bounds Gate.Failures; the count is always exact.
const maxFailureMessages = 8

// Check records one execution of c and reports whether it passed.
func (g *Gate) Check(c Cell, r logtmse.RunResult, err error) bool {
	g.Attempted++
	msg := ""
	switch {
	case err != nil:
		msg = err.Error()
	default:
		msg = invariantViolation(c, r.Stats)
	}
	if msg == "" {
		line := counterLine(c, r)
		if g.first == nil {
			g.first = make(map[int]string)
		}
		if prev, ok := g.first[c.ID]; !ok {
			g.first[c.ID] = line
		} else if prev != line {
			msg = "simulated counters differ between passes"
		}
	}
	if msg == "" {
		return true
	}
	g.Failed++
	if len(g.Failures) < maxFailureMessages {
		g.Failures = append(g.Failures, fmt.Sprintf("%s: %s", c, msg))
	}
	return false
}

// Digest returns the counter lines of the first passing execution of
// every cell, in cell order, and their SHA-256. A cell with no passing
// execution contributes a "missing" line, so a failure also changes the
// digest.
func (g *Gate) Digest(cells []Cell) (lines []string, sum string) {
	for _, c := range cells {
		line, ok := g.first[c.ID]
		if !ok {
			line = c.String() + " missing"
		}
		lines = append(lines, line)
	}
	h := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return lines, hex.EncodeToString(h[:])
}

// Ledger sums the deterministic work counts of one pass from Stats.
type Ledger struct {
	Cycles, WorkUnits                  uint64
	Begins, Commits, Aborts            uint64
	Stalls, Episodes                   uint64
	FPStalls, FPEpisodes               uint64
	Accesses, L1Hits, L1Misses         uint64
	L2Misses, NACKs, Forwards, Victims uint64
	LogRecords, FilterHits             uint64
}

// Add accumulates one cell's result.
func (l *Ledger) Add(r logtmse.RunResult) {
	st := r.Stats
	l.Cycles += uint64(r.Cycles)
	l.WorkUnits += st.WorkUnits
	l.Begins += st.Begins
	l.Commits += st.Commits
	l.Aborts += st.Aborts
	l.Stalls += st.Stalls
	l.Episodes += st.StallEpisodes
	l.FPStalls += st.FalsePositiveStalls
	l.FPEpisodes += st.FPEpisodes
	l.Accesses += st.Coh.Loads + st.Coh.Stores
	l.L1Hits += st.Coh.L1Hits
	l.L1Misses += st.Coh.L1Misses
	l.L2Misses += st.Coh.L2Misses
	l.NACKs += st.Coh.NACKs
	l.Forwards += st.Coh.Forwards
	l.Victims += st.Coh.L1TxVictims + st.Coh.L2TxVictims
	l.LogRecords += st.LogRecords
	l.FilterHits += st.LogFilterHits
}

// ratio is a/b, or 0 when b is 0 (a Lock pass has no begins, commits,
// stalls or episodes to divide by).
func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Metrics returns the per-layer work counts and their ratios.
func (l Ledger) Metrics() map[string]Metric {
	count := func(v uint64) Metric { return Metric{float64(v), "count"} }
	rat := func(a, b uint64) Metric { return Metric{ratio(a, b), "ratio"} }
	return map[string]Metric{
		"sim.cycles":               count(l.Cycles),
		"workload.work_units":      count(l.WorkUnits),
		"core.begins":              count(l.Begins),
		"core.commits":             count(l.Commits),
		"core.aborts":              count(l.Aborts),
		"core.commit_ratio":        rat(l.Commits, l.Begins),
		"core.stalls":              count(l.Stalls),
		"core.stall_episodes":      count(l.Episodes),
		"core.retries_per_episode": rat(l.Stalls, l.Episodes),
		"core.stalls_per_commit":   rat(l.Stalls, l.Commits),
		"coherence.accesses":       count(l.Accesses),
		"coherence.l1_miss_ratio":  rat(l.L1Misses, l.L1Hits+l.L1Misses),
		"coherence.l2_misses":      count(l.L2Misses),
		"coherence.nacks":          count(l.NACKs),
		"coherence.forwards":       count(l.Forwards),
		"coherence.tx_victims":     count(l.Victims),
		"sig.false_positive_share": rat(l.FPStalls, l.Stalls),
		"sig.fp_episode_share":     rat(l.FPEpisodes, l.Episodes),
		"txlog.records":            count(l.LogRecords),
		"txlog.filter_hits":        count(l.FilterHits),
	}
}
