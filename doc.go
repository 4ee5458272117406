// Package logtmse is a Go reproduction of "LogTM-SE: Decoupling Hardware
// Transactional Memory from Caches" (Yen et al., HPCA-13, 2007).
//
// It provides a deterministic discrete-event simulator of the paper's
// 16-core CMP (Table 1), the LogTM-SE hardware transactional memory —
// read/write-set signatures with eager conflict detection, a per-thread
// undo log with eager version management, local commit, sticky directory
// states, summary signatures, unbounded open/closed nesting, context
// switching/migration and paging — plus the lock-based baseline, the five
// evaluation workloads calibrated to Table 2, and a harness that
// regenerates every table and figure of the evaluation.
//
// Quick start:
//
//	params := logtmse.DefaultParams()
//	sys, _ := logtmse.NewSystem(params)
//	pt := sys.NewPageTable(1)
//	sys.SpawnOn(0, 0, "worker", 1, pt, func(a *logtmse.API) {
//	    a.Transaction(func() {
//	        v := a.Load(0x1000)
//	        a.Store(0x1000, v+1)
//	    })
//	})
//	sys.Run()
//
// The experiment harness (Run, RunOne, Figure4) and the paper's
// campaigns as Experiments (Figure4Experiment, Table2Experiment, ...;
// run by cmd/reproduce) reproduce the evaluation; see EXPERIMENTS.md
// for paper-vs-measured results.
package logtmse

import (
	"logtmse/internal/addr"
	"logtmse/internal/check"
	"logtmse/internal/coherence"
	"logtmse/internal/core"
	"logtmse/internal/fault"
	"logtmse/internal/sig"
	"logtmse/internal/sim"
)

// Re-exported simulator types: the library's public surface wraps the
// internal packages so downstream users never import logtmse/internal/...
type (
	// System is a simulated LogTM-SE machine.
	System = core.System
	// Params configures a machine (Table 1 defaults via DefaultParams).
	Params = core.Params
	// API is the blocking interface workload threads use.
	API = core.API
	// Thread is a software thread.
	Thread = core.Thread
	// Barrier synchronizes threads.
	Barrier = core.Barrier
	// Cycle is simulated time in processor cycles.
	Cycle = sim.Cycle
	// VAddr is a virtual byte address.
	VAddr = addr.VAddr
	// PAddr is a physical byte address.
	PAddr = addr.PAddr
	// ASID names an address space.
	ASID = addr.ASID
	// SigConfig selects a signature implementation and size.
	SigConfig = sig.Config
	// Stats aggregates run counters.
	Stats = core.Stats
	// Resolution is a conflict-resolution (contention-management) policy.
	Resolution = core.Resolution
	// TraceFunc receives the engine's transactional event stream.
	TraceFunc = core.TraceFunc
	// CheckConfig selects the runtime invariant oracles (RunConfig.Checks).
	CheckConfig = check.Config
	// Checker evaluates the invariant oracles against one system.
	Checker = check.Checker
	// CheckFailure is one recorded invariant violation.
	CheckFailure = check.Failure
	// FaultPlan configures the deterministic fault injector
	// (RunConfig.Fault); the zero value injects nothing.
	FaultPlan = fault.Plan
	// Sabotage arms a deliberate engine bug (RunConfig.Sabotage); the
	// zero value is a correct engine.
	Sabotage = core.Sabotage
	// Injector drives a FaultPlan against one system.
	Injector = fault.Injector
)

// AllChecks returns a CheckConfig with every oracle enabled and the
// given progress-watchdog window (0 disarms the watchdog).
func AllChecks(watchdogWindow Cycle) CheckConfig { return check.All(watchdogWindow) }

// FaultMixNames lists the named fault mixes of the chaos campaign.
func FaultMixNames() []string { return fault.MixNames() }

// FaultMix returns the FaultPlan for a named mix with the given seed.
func FaultMix(name string, seed int64) (FaultPlan, error) { return fault.MixPlan(name, seed) }

// Conflict-resolution policies.
const (
	ResolveStallAbort      = core.ResolveStallAbort
	ResolveRequesterAborts = core.ResolveRequesterAborts
	ResolveYoungerAborts   = core.ResolveYoungerAborts
)

// ConflictDetection selects the conflict-detection hardware.
type ConflictDetection = core.ConflictDetection

// Conflict-detection mechanisms: LogTM-SE signatures, or the original
// LogTM's R/W cache bits (the less-virtualizable baseline of §8).
const (
	CDSignature = core.CDSignature
	CDCacheBits = core.CDCacheBits
)

// Signature kinds (Figure 3 plus the idealized baseline).
const (
	SigPerfect         = sig.KindPerfect
	SigBitSelect       = sig.KindBitSelect
	SigDoubleBitSelect = sig.KindDoubleBitSelect
	SigCoarseBitSelect = sig.KindCoarseBitSelect
	// SigH3 is the k-hash Bloom extension (the "more creative
	// signatures" §5 anticipates for larger transactions).
	SigH3 = sig.KindH3
)

// Coherence protocols.
const (
	ProtocolDirectory = coherence.Directory
	ProtocolSnoop     = coherence.Snoop
)

// NewSystem builds a machine.
func NewSystem(p Params) (*System, error) { return core.NewSystem(p) }

// DefaultParams returns the paper's Table 1 system configuration.
func DefaultParams() Params { return core.DefaultParams() }

// NewBarrier returns a reusable n-thread barrier.
func NewBarrier(n int) *Barrier { return core.NewBarrier(n) }
