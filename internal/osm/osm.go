// Package osm models the operating-system mechanisms LogTM-SE relies on
// for virtualization (paper §4): a time-slice thread scheduler that
// supports more software threads than hardware contexts, context
// switching and migration that save/restore signatures through the log,
// per-process summary signatures pushed to every running context, and
// virtual-memory paging with signature re-insertion after relocation.
package osm

import (
	"fmt"

	"logtmse/internal/addr"
	"logtmse/internal/core"
	"logtmse/internal/mem"
	"logtmse/internal/sig"
	"logtmse/internal/sim"
	"logtmse/internal/txlog"
)

// Stats counts OS-level virtualization events.
type Stats struct {
	ContextSwitches uint64
	Migrations      uint64
	SummaryInstalls uint64
	SummaryCommits  uint64 // outer commits that trapped for a summary recompute
	PageRelocations uint64
	SigBlocksMoved  uint64 // signature blocks re-inserted by paging
}

// Process is an address space plus its threads and the software-maintained
// summary-signature state.
type Process struct {
	ASID addr.ASID
	Name string
	PT   *mem.PageTable

	threads []*core.Thread
	// savedSigs holds the saved signature of every descheduled
	// in-transaction thread; the summary signature for a context running
	// thread t is the union of all entries except t's own (§4.1).
	savedSigs map[*core.Thread]*sig.Signature
}

type threadState int

const (
	stateNew threadState = iota
	stateRunning
	stateReady // descheduled (parked) or not yet started, waiting for a context
	stateDone
)

type threadInfo struct {
	proc        *Process
	state       threadState
	scheduledAt sim.Cycle
	lastCore    int
}

// Scheduler multiplexes software threads onto the machine's hardware
// thread contexts with round-robin time slicing.
type Scheduler struct {
	sys     *core.System
	quantum sim.Cycle

	// DeferInTxFactor implements the paper's preemption control (§4.1):
	// a thread inside a transaction is not preempted at its quantum but
	// only after quantum*DeferInTxFactor cycles (0 disables deferral and
	// preempts transactions eagerly).
	DeferInTxFactor sim.Cycle

	procs  map[addr.ASID]*Process
	info   map[*core.Thread]*threadInfo
	runq   []*core.Thread
	free   [][2]int // idle contexts (core, thread)
	forced map[*core.Thread]bool
	stats  Stats

	nextASID addr.ASID
}

// New builds a scheduler over sys. quantum is the time slice; 0 disables
// preemption (threads run to completion, still supporting explicit
// deschedule/paging operations).
func New(sys *core.System, quantum sim.Cycle) *Scheduler {
	s := &Scheduler{
		sys:             sys,
		quantum:         quantum,
		DeferInTxFactor: 4,
		procs:           make(map[addr.ASID]*Process),
		info:            make(map[*core.Thread]*threadInfo),
		forced:          make(map[*core.Thread]bool),
		nextASID:        1,
	}
	for c := 0; c < sys.P.Cores; c++ {
		for th := 0; th < sys.P.ThreadsPerCore; th++ {
			s.free = append(s.free, [2]int{c, th})
		}
	}
	sys.PreemptCheck = s.preemptCheck
	sys.OnPreempt = s.onPreempt
	sys.OnOuterCommit = s.onOuterCommit
	sys.OnThreadDone = s.onThreadDone
	return s
}

// Stats returns the OS event counters.
func (s *Scheduler) Stats() Stats { return s.stats }

// NewProcess creates an address space.
func (s *Scheduler) NewProcess(name string) *Process {
	asid := s.nextASID
	s.nextASID++
	p := &Process{
		ASID:      asid,
		Name:      name,
		PT:        s.sys.NewPageTable(asid),
		savedSigs: make(map[*core.Thread]*sig.Signature),
	}
	s.procs[asid] = p
	return p
}

// Spawn creates a thread in process p; it becomes runnable and is placed
// on a context immediately if one is free.
func (s *Scheduler) Spawn(p *Process, name string, fn func(*core.API)) *core.Thread {
	t := s.sys.Spawn(fmt.Sprintf("%s/%s", p.Name, name), p.ASID, p.PT, fn)
	p.threads = append(p.threads, t)
	s.info[t] = &threadInfo{proc: p, state: stateNew, lastCore: -1}
	s.makeRunnable(t)
	return t
}

func (s *Scheduler) makeRunnable(t *core.Thread) {
	if len(s.free) > 0 {
		slot := s.free[0]
		s.free = s.free[1:]
		s.place(t, slot[0], slot[1])
		return
	}
	s.runq = append(s.runq, t)
}

func (s *Scheduler) place(t *core.Thread, c, th int) {
	ti := s.info[t]
	if ti.lastCore >= 0 && ti.lastCore != c {
		s.stats.Migrations++
	}
	wasNew := ti.state == stateNew
	if err := s.sys.ScheduleOn(t, c, th); err != nil {
		panic(err)
	}
	ti.state = stateRunning
	ti.scheduledAt = s.sys.Engine.Now()
	ti.lastCore = c
	s.installSummaries(ti.proc)
	if wasNew {
		s.sys.Start(t)
	} else {
		s.sys.Resume(t)
	}
}

func (s *Scheduler) preemptCheck(t *core.Thread) bool {
	if s.forced[t] {
		// Fault injection: preempt at the next request boundary
		// regardless of quantum or queue state. Under CDCacheBits a
		// transaction cannot be switched out (R/W bits are not software
		// accessible); the flag stays set and fires once the thread is
		// outside a transaction.
		if !t.InTx() || s.sys.P.CD != core.CDCacheBits {
			return true
		}
		return false
	}
	if s.quantum == 0 || len(s.runq) == 0 {
		return false
	}
	ti := s.info[t]
	ran := s.sys.Engine.Now() - ti.scheduledAt
	if ran < s.quantum {
		return false
	}
	if t.InTx() {
		// Original LogTM cannot save R/W cache bits at all: never
		// preempt a transaction under CDCacheBits.
		if s.sys.P.CD == core.CDCacheBits {
			return false
		}
		// Preemption control: defer switches inside a transaction
		// (saving and summarizing signatures is expensive), but only up
		// to a bound — long transactions must still be switchable.
		if s.DeferInTxFactor > 0 && ran < s.quantum*s.DeferInTxFactor {
			return false
		}
	}
	return true
}

// ForceDeschedule marks t for preemption at its next request boundary
// (fault injection: a forced mid-transaction context switch). The thread
// is descheduled with the usual signature save and summary update, then
// requeued; with an otherwise empty run queue it is rescheduled
// immediately, still exercising the full save/restore path.
func (s *Scheduler) ForceDeschedule(t *core.Thread) {
	if s.info[t] == nil || s.info[t].state == stateDone {
		return
	}
	s.forced[t] = true
}

func (s *Scheduler) onPreempt(t *core.Thread) {
	delete(s.forced, t)
	ti := s.info[t]
	ctx := t.Context()
	slot := [2]int{ctx.Core, ctx.Thread}
	s.sys.Deschedule(t)
	s.stats.ContextSwitches++
	// Save the signature (§4.1): merge into the process summary state.
	if t.SavedSig != nil {
		s.saveSignature(ti.proc, t)
		s.installSummaries(ti.proc)
	}
	ti.state = stateReady
	s.runq = append(s.runq, t)
	// Hand the context to the next runnable thread.
	next := s.runq[0]
	s.runq = s.runq[1:]
	s.place(next, slot[0], slot[1])
}

// saveSignature records a descheduled transaction's signature in the
// process summary state. A thread preempted more than once in the same
// transaction replaces its earlier snapshot rather than adding to it.
func (s *Scheduler) saveSignature(p *Process, t *core.Thread) {
	p.savedSigs[t] = t.SavedSig.Clone()
}

// onOuterCommit implements the commit trap: the committed transaction's
// saved signature leaves the summary, and fresh summaries are pushed to
// the process's running contexts.
func (s *Scheduler) onOuterCommit(t *core.Thread) {
	ti := s.info[t]
	delete(ti.proc.savedSigs, t)
	s.stats.SummaryCommits++
	s.installSummaries(ti.proc)
}

func (s *Scheduler) onThreadDone(t *core.Thread) {
	ti := s.info[t]
	ti.state = stateDone
	ctx := t.Context()
	if ctx == nil {
		return
	}
	slot := [2]int{ctx.Core, ctx.Thread}
	s.sys.Deschedule(t)
	if len(s.runq) > 0 {
		next := s.runq[0]
		s.runq = s.runq[1:]
		s.place(next, slot[0], slot[1])
		return
	}
	s.free = append(s.free, slot)
}

// installSummaries installs the summary signature on every context
// running a thread of process p: the union of the other threads' saved
// signatures, recomputed each time (the simulator charges no cycles for
// it). The summary for thread t excludes t's own saved signature, so a
// rescheduled thread does not conflict with its own read/write sets.
// Threads are visited in spawn order, never in map order, so a Perfect
// summary's slot layout is the same on every run.
func (s *Scheduler) installSummaries(p *Process) {
	for _, t := range p.threads {
		ctx := t.Context()
		if ctx == nil {
			continue
		}
		var sum *sig.Signature
		for _, u := range p.threads {
			saved, ok := p.savedSigs[u]
			if !ok || u == t {
				continue
			}
			if sum == nil {
				sum = saved.Clone()
			} else if err := sum.Union(saved); err != nil {
				panic(err)
			}
		}
		if sum != nil && sum.Empty() {
			sum = nil
		}
		s.sys.InstallSummary(ctx.Core, ctx.Thread, sum)
		s.stats.SummaryInstalls++
	}
}

// RelocatePage implements §4.2: move the virtual page containing va of
// process p to a fresh physical page, copy its contents, and re-insert
// every (possibly) covered block of the page into the signatures of the
// process's active and descheduled transactions under the new physical
// address.
func (s *Scheduler) RelocatePage(p *Process, va addr.VAddr) error {
	oldBase, newBase, err := p.PT.Relocate(va)
	if err != nil {
		return err
	}
	s.sys.Mem.CopyPage(oldBase, newBase)
	s.stats.PageRelocations++
	s.sys.InvalidateRetryVerdicts()
	if s.sys.Check != nil {
		// The invariant checker keys shadow state by physical address;
		// move it with the page before any post-relocation access.
		s.sys.Check.OnPageRelocate(oldBase, newBase)
	}
	// Active transactions: walk the hardware signatures, plus the
	// signature-save areas of nested frames in the log (§4.2 explicitly
	// includes "signatures in the log from nesting" — an inner abort
	// must restore a parent signature that covers the new addresses).
	for _, t := range p.threads {
		if ctx := t.Context(); ctx != nil && t.InTx() {
			r, w := ctx.Sig.RelocatePage(oldBase, newBase)
			s.stats.SigBlocksMoved += uint64(r + w)
			t.Log.ForEachFrame(func(f *txlog.Frame) {
				if f.SavedSig != nil {
					fr, fw := f.SavedSig.RelocatePage(oldBase, newBase)
					s.stats.SigBlocksMoved += uint64(fr + fw)
				}
			})
			// The exact sets mirror the signatures; move them too so
			// false-positive classification (and the membership oracle)
			// stay correct across the relocation.
			t.RelocatePage(oldBase, newBase)
			if s.sys.Check != nil {
				er, ew := t.ExactSets()
				s.sys.Check.SigCovers(t.ID, "page-relocation reinsert", ctx.Sig, er, ew)
			}
		} else if t.InTx() {
			// Descheduled mid-transaction: the signature ScheduleOn
			// will restore lives in t.SavedSig (savedSigs keeps its
			// own clone, updated below), and nested frames' save areas
			// ride in the log. Leaving either under the old physical
			// address would blind conflict detection after reschedule.
			if t.SavedSig != nil {
				r, w := t.SavedSig.RelocatePage(oldBase, newBase)
				s.stats.SigBlocksMoved += uint64(r + w)
			}
			t.Log.ForEachFrame(func(f *txlog.Frame) {
				if f.SavedSig != nil {
					fr, fw := f.SavedSig.RelocatePage(oldBase, newBase)
					s.stats.SigBlocksMoved += uint64(fr + fw)
				}
			})
			t.RelocatePage(oldBase, newBase)
		}
	}
	// Descheduled transactions: update their saved signatures (the paper
	// queues a signal to do this before they resume; updating the saved
	// copy now is equivalent) and refresh the summaries built from them.
	changed := false
	for _, saved := range p.savedSigs {
		r, w := saved.RelocatePage(oldBase, newBase)
		s.stats.SigBlocksMoved += uint64(r + w)
		if r+w > 0 {
			changed = true
		}
	}
	if changed {
		s.installSummaries(p)
	}
	return nil
}

// DeschedulePlusMigrate forcibly preempts a running thread at its next
// request boundary satisfying when (nil = the very next boundary) and
// reschedules it on the given context after delay cycles (used by the
// migration experiments and examples). Pass (*core.Thread).InTx as when
// to force a mid-transaction context switch.
func (s *Scheduler) DeschedulePlusMigrate(t *core.Thread, c, th int, delay sim.Cycle, when func(*core.Thread) bool) {
	fired := false
	prev := s.sys.PreemptCheck
	s.sys.PreemptCheck = func(u *core.Thread) bool {
		if u == t && !fired && (when == nil || when(u)) {
			return true
		}
		if prev != nil {
			return prev(u)
		}
		return false
	}
	prevPre := s.sys.OnPreempt
	s.sys.OnPreempt = func(u *core.Thread) {
		if u != t || fired {
			if prevPre != nil {
				prevPre(u)
			}
			return
		}
		fired = true
		ti := s.info[t]
		s.sys.Deschedule(t)
		s.stats.ContextSwitches++
		if t.SavedSig != nil {
			s.saveSignature(ti.proc, t)
			s.installSummaries(ti.proc)
		}
		ti.state = stateReady
		s.sys.PreemptCheck = prev
		s.sys.OnPreempt = prevPre
		s.sys.Engine.Schedule(delay, func() {
			s.place(t, c, th)
		})
	}
}
