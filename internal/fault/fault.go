// Package fault implements a seeded, deterministic fault injector for
// the LogTM-SE model. Faults perturb timing and exercise the rare paths
// the paper's correctness argument depends on — sticky states, summary
// signatures, log unwinding, conflict resolution — without ever making a
// correct implementation incorrect:
//
//   - Delay faults stretch network traversals and NACK-response retries
//     (the interconnect makes no ordering promises, so any latency is
//     legal).
//   - Victimization storms force L1 evictions, driving transactional
//     blocks into sticky directory states (§3.1).
//   - Signature noise inserts spurious bits — false positives only;
//     signatures are conservative by design, so extra bits may cause
//     spurious conflicts but can never violate an oracle.
//   - Injected aborts deliver asynchronous aborts at the victim thread's
//     next continuation boundary (transactions must abort cleanly from
//     any point).
//   - Forced deschedules and page relocations (via the OS model) exercise
//     summary signatures and §4.2 signature re-insertion mid-transaction.
//
// Determinism: the injector owns a private rand.Rand seeded from
// Plan.Seed and never touches the engine's RNG, so a run with the same
// plan and seed replays bit-for-bit, and a run with injection disabled is
// bit-identical to an uninstrumented simulator. Injector ticks are weak
// events: they fire only while model work is pending and never extend a
// run.
package fault

import (
	"fmt"
	"math/rand"

	"logtmse/internal/addr"
	"logtmse/internal/coherence"
	"logtmse/internal/core"
	"logtmse/internal/obs"
	"logtmse/internal/osm"
	"logtmse/internal/sim"
)

// Class enumerates the fault classes (obs.KindFaultInject events carry
// one in Arg).
type Class uint8

// Fault classes.
const (
	ClassNetDelay Class = iota
	ClassNackDelay
	ClassVictim
	ClassSigNoise
	ClassAbort
	ClassDesched
	ClassRelocate
	classMax
)

var classNames = [...]string{
	ClassNetDelay:  "net-delay",
	ClassNackDelay: "nack-delay",
	ClassVictim:    "victim",
	ClassSigNoise:  "sig-noise",
	ClassAbort:     "abort",
	ClassDesched:   "desched",
	ClassRelocate:  "relocate",
}

func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// Plan configures the injector. The zero value injects nothing.
// Probabilities are percentages (0..100).
type Plan struct {
	// Seed drives the injector's private RNG; same plan + same seed
	// replays the same faults against the same execution.
	Seed int64

	// NetDelayPct stretches that share of network traversals by up to
	// NetDelayMax extra cycles (default 32).
	NetDelayPct int
	NetDelayMax sim.Cycle
	// NackDelayPct adds up to NackDelayMax extra cycles (default 64) to
	// that share of NACK-response retries.
	NackDelayPct int
	NackDelayMax sim.Cycle

	// TickEvery is the period of the injector's weak tick driving the
	// event-style faults below (default 500 cycles).
	TickEvery sim.Cycle
	// VictimPct is the per-tick chance of a victimization storm evicting
	// VictimBurst L1 lines (default burst 4) from one core.
	VictimPct   int
	VictimBurst int
	// SigNoisePct is the per-tick chance of inserting SigNoiseBits
	// (default 4) spurious blocks into one in-transaction context's
	// signature.
	SigNoisePct  int
	SigNoiseBits int
	// AbortPct is the per-tick chance of injecting an abort into one
	// active transaction.
	AbortPct int
	// DeschedPct is the per-tick chance of forcing a deschedule (and
	// possible migration) of one running thread; requires BindOS.
	DeschedPct int
	// RelocatePct is the per-tick chance of relocating one mapped page
	// of one process; requires BindOS.
	RelocatePct int
}

// Active reports whether the plan injects anything.
func (p Plan) Active() bool {
	return p.NetDelayPct > 0 || p.NackDelayPct > 0 || p.VictimPct > 0 ||
		p.SigNoisePct > 0 || p.AbortPct > 0 || p.DeschedPct > 0 || p.RelocatePct > 0
}

func (p Plan) withDefaults() Plan {
	if p.NetDelayMax == 0 {
		p.NetDelayMax = 32
	}
	if p.NackDelayMax == 0 {
		p.NackDelayMax = 64
	}
	if p.TickEvery == 0 {
		p.TickEvery = 500
	}
	if p.VictimBurst == 0 {
		p.VictimBurst = 4
	}
	if p.SigNoiseBits == 0 {
		p.SigNoiseBits = 4
	}
	return p
}

// Stats counts applied faults per class.
type Stats struct {
	Injected    [classMax]uint64
	ExtraCycles uint64 // total delay cycles added (net + nack)
}

// ByClass returns the per-class counts keyed by class name, for reports.
func (s Stats) ByClass() map[string]uint64 {
	out := make(map[string]uint64, int(classMax))
	for c := Class(0); c < classMax; c++ {
		if s.Injected[c] > 0 {
			out[c.String()] = s.Injected[c]
		}
	}
	return out
}

// Injector drives one Plan against one System. Construct with New, then
// optionally BindOS, then Arm before the run starts.
type Injector struct {
	plan  Plan
	sys   *core.System
	rng   *rand.Rand
	sched *osm.Scheduler
	procs []*osm.Process
	stats Stats
	armed bool
}

// New builds an injector for sys. The plan's latency faults hook into
// the network and the engine immediately; the tick-driven faults start
// when Arm is called.
func New(plan Plan, sys *core.System) *Injector {
	i := &Injector{
		plan: plan.withDefaults(),
		sys:  sys,
		rng:  rand.New(rand.NewSource(plan.Seed ^ 0x5eed_fa17)),
	}
	if i.plan.NetDelayPct > 0 {
		if coh, ok := sys.Coh.(*coherence.System); ok {
			coh.Grid().SetPerturb(i.perturbNet)
		}
	}
	// The injector is the engine's fault hook even without NACK delays
	// (it then adds none and draws nothing). NACK retry verdicts stay on
	// unless the network perturbation above is installed: the walk a
	// replay skips would draw from the injector's RNG once per message.
	// Every other fault changes state through a path that ends the
	// verdicts it affects (forced evictions, signature noise, aborts,
	// deschedules, page relocations).
	sys.Fault = i
	return i
}

// BindOS attaches the OS model so deschedule and page-relocation faults
// can fire; procs are the processes whose pages may be relocated.
func (i *Injector) BindOS(sched *osm.Scheduler, procs ...*osm.Process) {
	i.sched = sched
	i.procs = procs
}

// Stats returns the applied-fault counters.
func (i *Injector) Stats() Stats { return i.stats }

func (i *Injector) roll(pct int) bool {
	return pct > 0 && i.rng.Intn(100) < pct
}

// perturbNet implements the network latency hook.
func (i *Injector) perturbNet(lat sim.Cycle) sim.Cycle {
	if !i.roll(i.plan.NetDelayPct) {
		return lat
	}
	extra := sim.Cycle(i.rng.Int63n(int64(i.plan.NetDelayMax) + 1))
	i.stats.Injected[ClassNetDelay]++
	i.stats.ExtraCycles += uint64(extra)
	return lat + extra
}

// NackRetryDelay implements core.FaultHook: extra delay before a NACKed
// access retries.
func (i *Injector) NackRetryDelay(tid int) sim.Cycle {
	if !i.roll(i.plan.NackDelayPct) {
		return 0
	}
	extra := sim.Cycle(i.rng.Int63n(int64(i.plan.NackDelayMax) + 1))
	i.stats.Injected[ClassNackDelay]++
	i.stats.ExtraCycles += uint64(extra)
	i.emit(ClassNackDelay, 0, uint64(extra))
	return extra
}

var _ core.FaultHook = (*Injector)(nil)

// Arm starts the injector's weak periodic tick. Ticks fire only while
// the model has strong events pending, so injection never extends a run.
func (i *Injector) Arm() {
	if i.armed {
		return
	}
	i.armed = true
	if i.plan.VictimPct == 0 && i.plan.SigNoisePct == 0 && i.plan.AbortPct == 0 &&
		i.plan.DeschedPct == 0 && i.plan.RelocatePct == 0 {
		return
	}
	i.sys.Engine.ScheduleWeakEvery(i.plan.TickEvery, func() bool {
		i.tick()
		return true
	})
}

// tick rolls each armed event-style fault once. The roll order is fixed;
// every draw comes from the injector's private RNG.
func (i *Injector) tick() {
	if i.roll(i.plan.VictimPct) {
		i.victimStorm()
	}
	if i.roll(i.plan.SigNoisePct) {
		i.sigNoise()
	}
	if i.roll(i.plan.AbortPct) {
		i.injectAbort()
	}
	if i.sched != nil && i.roll(i.plan.DeschedPct) {
		i.desched()
	}
	if i.sched != nil && i.roll(i.plan.RelocatePct) {
		i.relocate()
	}
}

// victimStorm force-evicts a burst of L1 lines from one core, running
// the protocol's normal victim bookkeeping (so transactional lines take
// the sticky-state path).
func (i *Injector) victimStorm() {
	coh, ok := i.sys.Coh.(*coherence.System)
	if !ok {
		return
	}
	c := i.rng.Intn(i.sys.P.Cores)
	for n := 0; n < i.plan.VictimBurst; n++ {
		a, ok := coh.ForceEvict(c, i.rng.Intn(1<<20))
		if !ok {
			break
		}
		i.stats.Injected[ClassVictim]++
		i.emit(ClassVictim, a, uint64(c))
	}
}

// sigNoise inserts spurious (false-positive) blocks into one active
// transaction's signature.
func (i *Injector) sigNoise() {
	type slot struct{ core, thread int }
	var cands []slot
	for c := 0; c < i.sys.P.Cores; c++ {
		for th := 0; th < i.sys.P.ThreadsPerCore; th++ {
			ctx := i.sys.Ctx(c, th)
			if ctx.Cur != nil && ctx.Cur.InTx() {
				cands = append(cands, slot{c, th})
			}
		}
	}
	if len(cands) == 0 {
		return
	}
	pick := cands[i.rng.Intn(len(cands))]
	n := i.sys.InjectSigNoise(pick.core, pick.thread, i.plan.SigNoiseBits, i.rng.Uint64())
	if n > 0 {
		i.stats.Injected[ClassSigNoise] += uint64(n)
		i.emit(ClassSigNoise, 0, uint64(n))
	}
}

// injectAbort aborts one active transaction, chosen uniformly among the
// threads currently in a transaction (ID order makes the choice
// deterministic).
func (i *Injector) injectAbort() {
	var cands []*core.Thread
	for _, t := range i.sys.Threads() {
		if t.InTx() && !t.Done() {
			cands = append(cands, t)
		}
	}
	if len(cands) == 0 {
		return
	}
	t := cands[i.rng.Intn(len(cands))]
	if i.sys.InjectAbort(t) {
		i.stats.Injected[ClassAbort]++
		i.emit(ClassAbort, 0, uint64(t.ID))
	}
}

// desched forces one running, not-done thread to be descheduled (and
// possibly migrated by the scheduler's normal placement) at its next
// request boundary.
func (i *Injector) desched() {
	var cands []*core.Thread
	for _, t := range i.sys.Threads() {
		if !t.Done() && t.Context() != nil {
			cands = append(cands, t)
		}
	}
	if len(cands) == 0 {
		return
	}
	t := cands[i.rng.Intn(len(cands))]
	i.sched.ForceDeschedule(t)
	i.stats.Injected[ClassDesched]++
	i.emit(ClassDesched, 0, uint64(t.ID))
}

// relocate moves one mapped page of one bound process to a fresh
// physical page (§4.2 signature re-insertion runs as part of it).
func (i *Injector) relocate() {
	if len(i.procs) == 0 {
		return
	}
	p := i.procs[i.rng.Intn(len(i.procs))]
	pages := p.PT.MappedVPages()
	if len(pages) == 0 {
		return
	}
	va := pages[i.rng.Intn(len(pages))]
	if err := i.sched.RelocatePage(p, va); err != nil {
		return
	}
	i.stats.Injected[ClassRelocate]++
	i.emit(ClassRelocate, 0, uint64(va))
}

func (i *Injector) emit(c Class, a addr.PAddr, arg2 uint64) {
	if i.sys.Sink == nil {
		return
	}
	i.sys.Sink.Emit(obs.Event{
		Kind: obs.KindFaultInject, Cycle: i.sys.Engine.Now(),
		Core: -1, Thread: -1, TID: -1,
		Addr: a, Arg: uint64(c), Arg2: arg2,
	})
}

// MixNames lists the named fault mixes the chaos campaign rotates over.
func MixNames() []string {
	return []string{"delay", "victims", "signoise", "aborts", "sched", "storm"}
}

// MixPlan returns the plan for a named mix with the given seed. The
// "sched" and "storm" mixes include OS faults and only fire fully when
// the injector is bound to a scheduler.
func MixPlan(name string, seed int64) (Plan, error) {
	p := Plan{Seed: seed}
	switch name {
	case "delay":
		p.NetDelayPct, p.NetDelayMax = 30, 40
		p.NackDelayPct, p.NackDelayMax = 30, 60
	case "victims":
		p.VictimPct, p.VictimBurst = 60, 6
	case "signoise":
		p.SigNoisePct, p.SigNoiseBits = 40, 4
	case "aborts":
		p.AbortPct = 25
	case "sched":
		p.DeschedPct = 30
		p.RelocatePct = 20
	case "storm":
		p.NetDelayPct, p.NetDelayMax = 15, 24
		p.NackDelayPct, p.NackDelayMax = 15, 32
		p.VictimPct, p.VictimBurst = 25, 4
		p.SigNoisePct, p.SigNoiseBits = 20, 3
		p.AbortPct = 10
		p.DeschedPct = 10
		p.RelocatePct = 5
	default:
		return Plan{}, fmt.Errorf("fault: unknown mix %q (have %v)", name, MixNames())
	}
	return p, nil
}
