// Package core implements the LogTM-SE transactional memory engine — the
// paper's primary contribution — on top of the simulated CMP substrates.
//
// Per thread context it provides: read/write signatures checked on
// coherence requests (eager conflict detection), a summary signature
// checked on every memory reference (virtualization of descheduled
// transactions), a log filter, and a per-thread virtually addressed undo
// log (eager version management). Commits are local; aborts trap to a
// software handler that walks the log LIFO. Conflict resolution follows
// LogTM: NACKed requesters stall and retry, aborting on a possible
// deadlock cycle detected with transaction timestamps and the
// possible_cycle flag.
//
// Software threads are expressed as ordinary Go functions over a blocking
// API (Load/Store/Transaction/...); each runs in its own goroutine but the
// simulation engine resumes exactly one at a time, so runs are
// deterministic for a given configuration and seed.
package core

import (
	"fmt"

	"logtmse/internal/coherence"
	"logtmse/internal/sig"
	"logtmse/internal/sim"
)

// Params configures a LogTM-SE system. DefaultParams returns the paper's
// Table 1 baseline.
type Params struct {
	// Cores is the number of cores; ThreadsPerCore the SMT width.
	Cores          int
	ThreadsPerCore int

	// CD selects the conflict-detection hardware: LogTM-SE signatures
	// (default) or the original LogTM's per-line R/W cache bits with a
	// conservative overflow flag — the less-virtualizable baseline the
	// paper compares against.
	CD ConflictDetection

	// Signature selects the per-context read/write signature hardware
	// (CDSignature mode).
	Signature sig.Config

	// Cache hierarchy (Table 1).
	L1Bytes, L1Ways          int
	L2Bytes, L2Ways, L2Banks int

	// Latencies in cycles (Table 1).
	L1HitLat sim.Cycle
	L2Lat    sim.Cycle
	MemLat   sim.Cycle
	DirLat   sim.Cycle
	CheckLat sim.Cycle
	LinkLat  sim.Cycle

	// Interconnect geometry (Table 1: 4x3 grid).
	GridW, GridH int

	// Protocol selects directory (§5) or snooping (§7) coherence.
	Protocol coherence.Protocol

	// Chips > 1 builds the §7 multiple-CMP system: Cores are split
	// evenly across chips, each with its own L2 and intra-chip
	// directory; inter-chip coherence runs through a full-map directory
	// at memory with sticky-M support.
	Chips int

	// Log filter geometry (TLB-like array of recently logged blocks).
	LogFilterSets, LogFilterWays int

	// Transactional overheads.
	LogWriteLat  sim.Cycle // per logged block (store old value to log)
	BeginLat     sim.Cycle // register checkpoint
	CommitLat    sim.Cycle // clear signature, reset log pointer
	AbortBaseLat sim.Cycle // trap to software handler
	AbortPerRec  sim.Cycle // per undo record restored

	// Conflict-resolution pacing.
	StallRetryLat sim.Cycle // base delay before retrying a NACKed request

	// StarvationRetryLimit, when nonzero, bounds how many consecutive
	// NACKed retries one stalled transactional access may issue before
	// the engine escalates and aborts the starving transaction
	// (obs.CauseStarvation), releasing its isolation so the system
	// degrades gracefully under livelock instead of spinning forever.
	// 0 (the default) keeps the paper's pure stall-and-retry behavior.
	StarvationRetryLimit int

	// Resolution selects the conflict-resolution policy. The paper's
	// base design stalls and aborts on possible deadlock cycles; it notes
	// future versions could trap to a contention manager, so alternative
	// policies are provided for the ablation study.
	Resolution Resolution

	// SigBackupCopies models the §3.2 optimization of extra per-context
	// backup signatures: nested begins (and open commits / partial
	// aborts) within the backed-up depth avoid the synchronous
	// signature save/restore latency. 0 reproduces the base design,
	// which copies the signature to the log frame header every time.
	SigBackupCopies int

	// Seed drives all randomness (retry jitter, workload generators).
	Seed int64
}

// ConflictDetection selects the conflict-detection mechanism.
type ConflictDetection int

// Conflict-detection mechanisms.
const (
	// CDSignature is LogTM-SE: per-context read/write signatures,
	// decoupled from the caches.
	CDSignature ConflictDetection = iota
	// CDCacheBits is the original LogTM: R/W bits on L1 lines, flash
	// cleared at commit/abort; evicting a marked line sets a per-context
	// overflow flag that conservatively NACKs every forwarded request
	// until the transaction ends. R/W bits cannot be saved or restored,
	// so thread switching/migration mid-transaction and open nesting are
	// unsupported (the virtualization gap LogTM-SE closes).
	CDCacheBits
)

func (c ConflictDetection) String() string {
	if c == CDCacheBits {
		return "cache-bits"
	}
	return "signature"
}

// Resolution is a conflict-resolution (contention-management) policy.
type Resolution int

// Policies.
const (
	// ResolveStallAbort is LogTM's base policy: NACKed requesters stall
	// and retry; a requester aborts when NACKed by an older transaction
	// while its own possible_cycle flag is set.
	ResolveStallAbort Resolution = iota
	// ResolveRequesterAborts aborts the requester on every transactional
	// NACK (no stalling) — the simple abort-always contention manager.
	ResolveRequesterAborts
	// ResolveYoungerAborts aborts the requester whenever any NACKer is
	// older (timestamp priority, no possible_cycle tracking); an older
	// requester stalls and retries.
	ResolveYoungerAborts
)

func (r Resolution) String() string {
	switch r {
	case ResolveStallAbort:
		return "stall-abort"
	case ResolveRequesterAborts:
		return "requester-aborts"
	case ResolveYoungerAborts:
		return "younger-aborts"
	default:
		return fmt.Sprintf("Resolution(%d)", int(r))
	}
}

// DefaultParams returns the Table 1 system: 16 two-way-SMT cores, 32 KB
// 4-way L1s, an 8 MB 8-way 16-bank shared L2, a MESI directory, and a 4x3
// grid with 3-cycle links; signatures default to perfect.
func DefaultParams() Params {
	return Params{
		Cores:          16,
		ThreadsPerCore: 2,
		Signature:      sig.Config{Kind: sig.KindPerfect},
		L1Bytes:        32 * 1024,
		L1Ways:         4,
		L2Bytes:        8 * 1024 * 1024,
		L2Ways:         8,
		L2Banks:        16,
		L1HitLat:       1,
		L2Lat:          34,
		MemLat:         500,
		DirLat:         6,
		CheckLat:       1,
		LinkLat:        3,
		GridW:          4,
		GridH:          3,
		Protocol:       coherence.Directory,
		LogFilterSets:  16,
		LogFilterWays:  2,
		LogWriteLat:    2,
		BeginLat:       2,
		CommitLat:      2,
		AbortBaseLat:   40,
		AbortPerRec:    10,
		StallRetryLat:  20,
		Seed:           1,
	}
}

// Validate reports configuration errors.
func (p Params) Validate() error {
	if p.Cores <= 0 || p.Cores > 64 {
		return fmt.Errorf("core: bad core count %d", p.Cores)
	}
	if p.ThreadsPerCore <= 0 || p.ThreadsPerCore > 8 {
		return fmt.Errorf("core: bad SMT width %d", p.ThreadsPerCore)
	}
	if p.Chips > 1 && p.Cores%p.Chips != 0 {
		return fmt.Errorf("core: %d cores do not divide over %d chips", p.Cores, p.Chips)
	}
	if p.GridW <= 0 || p.GridH <= 0 {
		return fmt.Errorf("core: bad grid %dx%d", p.GridW, p.GridH)
	}
	if p.LogFilterSets <= 0 || p.LogFilterWays <= 0 {
		return fmt.Errorf("core: bad log filter geometry")
	}
	if _, err := sig.NewSignature(p.Signature); err != nil {
		return err
	}
	return nil
}

// Contexts reports the number of hardware thread contexts.
func (p Params) Contexts() int { return p.Cores * p.ThreadsPerCore }
