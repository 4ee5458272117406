package core

import "logtmse/internal/coherence"
import "logtmse/internal/sim"

// Stats aggregates engine-level counters across all threads; the
// coherence-protocol counters are embedded.
type Stats struct {
	// Begins counts outermost transaction begins (including retries
	// after aborts); NestedBegins counts nested begins.
	Begins       uint64
	NestedBegins uint64
	// Commits counts outermost commits; NestedCommits inner commits
	// (closed and open).
	Commits       uint64
	NestedCommits uint64
	OpenCommits   uint64
	// Aborts counts abort events (each may unwind one or more frames).
	Aborts uint64
	// Stalls counts NACKs received by transactional requesters — the
	// paper's "transaction stalls" metric in Table 3.
	Stalls uint64
	// FalsePositiveStalls counts stalls where every NACKer matched only
	// by signature aliasing (no exact-set conflict).
	FalsePositiveStalls uint64
	// StallEpisodes counts distinct conflicting accesses (the first NACK
	// of each memory operation; retries of the same operation do not
	// recount). FPEpisodes counts episodes whose first NACK was purely
	// signature aliasing — the ratio matches Table 3's "False Positive %"
	// accounting more closely than the per-retry counters.
	StallEpisodes uint64
	FPEpisodes    uint64
	// NonTxRetries counts NACKs received by non-transactional requesters.
	NonTxRetries uint64
	// PossibleCycleAborts counts aborts taken by the ResolveStallAbort
	// policy's possible_cycle rule: NACKed by an older transaction while
	// the requester had itself NACKed an older one (LogTM's conservative
	// deadlock-avoidance trigger). A subset of Aborts.
	PossibleCycleAborts uint64
	// SummaryConflicts counts memory references that hit the summary
	// signature (conflicts with descheduled transactions).
	SummaryConflicts uint64
	// SMTConflicts counts same-core cross-thread signature conflicts.
	SMTConflicts uint64
	// FlashClears counts R/W-bit flash clears and OverflowNACKs counts
	// conservative NACKs from the overflow flag (CDCacheBits mode: the
	// original-LogTM baseline).
	FlashClears   uint64
	OverflowNACKs uint64
	// WorkUnits counts completed units of work (throughput metric).
	WorkUnits uint64
	// LogRecords counts undo records written; LogFilterHits counts
	// stores whose logging the log filter suppressed.
	LogRecords    uint64
	LogFilterHits uint64
	// MaxLogBytes is the largest per-thread undo-log footprint observed
	// (log pointer high-water mark): eager version management is
	// unbounded but cheap to account.
	MaxLogBytes int
	// Read/write set sizes in blocks, sampled at outermost commit.
	ReadSetSum  uint64
	WriteSetSum uint64
	ReadSetMax  int
	WriteSetMax int
	// Cycles is the final simulated cycle of the run.
	Cycles sim.Cycle
	// Coh embeds the memory-system counters.
	Coh coherence.Stats
}

// Add accumulates o into s: the counters and Cycles sum, and the
// high-water marks (ReadSetMax, WriteSetMax, MaxLogBytes) keep the
// larger value.
func (s *Stats) Add(o Stats) {
	s.Begins += o.Begins
	s.NestedBegins += o.NestedBegins
	s.Commits += o.Commits
	s.NestedCommits += o.NestedCommits
	s.OpenCommits += o.OpenCommits
	s.Aborts += o.Aborts
	s.Stalls += o.Stalls
	s.FalsePositiveStalls += o.FalsePositiveStalls
	s.StallEpisodes += o.StallEpisodes
	s.FPEpisodes += o.FPEpisodes
	s.NonTxRetries += o.NonTxRetries
	s.PossibleCycleAborts += o.PossibleCycleAborts
	s.SummaryConflicts += o.SummaryConflicts
	s.SMTConflicts += o.SMTConflicts
	s.FlashClears += o.FlashClears
	s.OverflowNACKs += o.OverflowNACKs
	s.WorkUnits += o.WorkUnits
	s.LogRecords += o.LogRecords
	s.LogFilterHits += o.LogFilterHits
	s.MaxLogBytes = max(s.MaxLogBytes, o.MaxLogBytes)
	s.ReadSetSum += o.ReadSetSum
	s.WriteSetSum += o.WriteSetSum
	s.ReadSetMax = max(s.ReadSetMax, o.ReadSetMax)
	s.WriteSetMax = max(s.WriteSetMax, o.WriteSetMax)
	s.Cycles += o.Cycles
	s.Coh.Add(o.Coh)
}

// ReadSetAvg returns the average committed read-set size in blocks.
func (s Stats) ReadSetAvg() float64 {
	if s.Commits == 0 {
		return 0
	}
	return float64(s.ReadSetSum) / float64(s.Commits)
}

// WriteSetAvg returns the average committed write-set size in blocks.
func (s Stats) WriteSetAvg() float64 {
	if s.Commits == 0 {
		return 0
	}
	return float64(s.WriteSetSum) / float64(s.Commits)
}

// FalsePositivePct returns the percentage of transaction stalls caused
// purely by signature aliasing, over all NACKs received.
func (s Stats) FalsePositivePct() float64 {
	if s.Stalls == 0 {
		return 0
	}
	return 100 * float64(s.FalsePositiveStalls) / float64(s.Stalls)
}

// FPEpisodePct returns the percentage of distinct conflicts caused purely
// by signature aliasing (Table 3's "False Positive %").
func (s Stats) FPEpisodePct() float64 {
	if s.StallEpisodes == 0 {
		return 0
	}
	return 100 * float64(s.FPEpisodes) / float64(s.StallEpisodes)
}
