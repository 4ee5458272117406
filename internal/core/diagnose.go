package core

import (
	"fmt"
	"sort"
	"strings"

	"logtmse/internal/addr"
	"logtmse/internal/check"
	"logtmse/internal/coherence"
	"logtmse/internal/mem"
	"logtmse/internal/sig"
	"logtmse/internal/txlog"
)

// AttachChecker binds the runtime invariant oracles to the system: the
// shadow memory is seeded from current physical memory (call after
// workload setup, before Run), and a weak periodic tick drives the
// sticky/directory audit, the full signature audit and the progress
// watchdog. Oracles only observe — no latency, no strong events, no
// engine RNG draws — so Stats stay bit-identical with the checker
// attached.
//
// Attaching mid-run — a restore-from-snapshot probe — is supported:
// threads caught inside a transaction hand the checker their open log
// frames, so the shadow rewinds to committed state and commits, aborts
// and the undo-LIFO walk verify from the first post-attach event.
func (s *System) AttachChecker(cfg check.Config) *check.Checker {
	c := check.New(cfg, s.Engine.Now)
	c.SetNamer(func(tid int) string {
		if tid >= 0 && tid < len(s.threads) {
			return s.threads[tid].Name
		}
		return fmt.Sprintf("tid%d", tid)
	})
	c.SeedShadow(s.Mem)
	for _, t := range s.threads {
		if t.done || t.Log.Depth() == 0 {
			continue
		}
		depth := 0
		rewound := make(map[addr.PAddr]bool)
		t.Log.ForEachFrame(func(f *txlog.Frame) {
			depth++
			c.AdoptFrame(t.ID, depth, f.Open)
			for i := range f.Undo {
				rec := &f.Undo[i]
				pa := t.PT.Translate(rec.VAddr).Block()
				var cur mem.Block
				s.Mem.ReadBlock(pa, &cur)
				c.AdoptUndo(t.ID, rec.VAddr, pa, &rec.Old, &cur, !rewound[pa])
				rewound[pa] = true
			}
		})
	}
	s.Check = c
	s.Engine.ScheduleWeakEvery(c.Config().AuditEvery, func() bool {
		s.audit()
		return true
	})
	return c
}

// audit is the periodic oracle tick: full signature coverage for every
// active (and descheduled mid-transaction) thread, the sticky-state
// audit, and the watchdog evaluation.
func (s *System) audit() {
	if s.P.CD != CDCacheBits && s.Check.Config().SigMembership {
		for _, t := range s.threads {
			if !t.InTx() {
				continue
			}
			switch {
			case t.ctx != nil:
				er, ew := t.ExactSets()
				s.Check.SigCovers(t.ID, "periodic audit", t.ctx.Sig, er, ew)
			case t.SavedSig != nil:
				er, ew := t.ExactSets()
				s.Check.SigCovers(t.ID, "periodic audit (saved)", t.SavedSig, er, ew)
			}
		}
	}
	s.stickyAudit()
	s.Check.Evaluate(s.Diagnose)
}

// stickyAudit verifies the invariant behind §3.1's sticky states on the
// single-chip directory protocol: every block in an active transaction's
// exact sets must still be reachable by a remote conflict check. A write-
// set block needs the owner (or sticky-M) pointer on the core, a read-set
// block needs at least a sharer bit; a missing directory entry is safe
// (an L2 miss rebuilds the entry with a conservative broadcast), as is
// check-all mode. Anything else means a remote request could be granted
// without ever consulting this core's signature — silent isolation loss.
func (s *System) stickyAudit() {
	if !s.Check.Config().StickyAudit || s.P.Chips > 1 || s.P.Protocol != coherence.Directory {
		return
	}
	dv, ok := s.Coh.(*coherence.System)
	if !ok {
		return
	}
	for _, t := range s.threads {
		if !t.InTx() || t.ctx == nil {
			continue // descheduled transactions are covered by the summary
		}
		core := t.ctx.Core
		// Write set first; read-only blocks are the read set minus it.
		// A block the directory cannot route to this core is still safe
		// when the thread migrated mid-transaction and its saved
		// footprint is covered by the summary signatures installed at
		// every other context of the process (§4.1): any conflicting
		// access would trap on the accessor's local summary check.
		var bad []string
		exactRead, exactWrite := t.ExactSets()
		for _, a := range sortedBlocks(exactWrite) {
			present, owner, _, checkAll := dv.DirState(a)
			if !present || checkAll || owner == core {
				continue
			}
			if s.summaryProtected(t, sig.Read, a) {
				continue
			}
			bad = append(bad, fmt.Sprintf("W %v owner=%d", a, owner))
		}
		for _, a := range sortedBlocks(exactRead) {
			if exactWrite[a] {
				continue
			}
			present, owner, sharers, checkAll := dv.DirState(a)
			if !present || checkAll || owner == core || sharers&(1<<uint(core)) != 0 {
				continue
			}
			if s.summaryProtected(t, sig.Write, a) {
				continue
			}
			bad = append(bad, fmt.Sprintf("R %v owner=%d sharers=%#x", a, owner, sharers))
		}
		if len(bad) > 0 {
			if len(bad) > 8 {
				bad = append(bad[:8], fmt.Sprintf("... %d more", len(bad)-8))
			}
			s.Check.StickyFail(t.ID, fmt.Sprintf(
				"core %d unreachable by remote conflict checks for exact-set blocks: %v", core, bad))
		}
	}
}

// summaryProtected reports whether every context currently running
// another thread of t's address space would detect an access with the
// given op to block a through its installed summary signature. Other
// address spaces cannot reach the block (physical pages are private),
// and contexts occupied later receive fresh summaries at placement, so
// coverage of the currently scheduled peers is the audit's obligation.
func (s *System) summaryProtected(t *Thread, op sig.Op, a addr.PAddr) bool {
	for _, row := range s.ctxs {
		for _, ctx := range row {
			u := ctx.Cur
			if u == nil || u == t || u.ASID != t.ASID {
				continue
			}
			if ctx.Summary == nil || !ctx.Summary.Conflict(op, a) {
				return false
			}
		}
	}
	return true
}

func sortedBlocks(m map[addr.PAddr]bool) []addr.PAddr {
	out := make([]addr.PAddr, 0, len(m))
	for a := range m {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Diagnose returns a deterministic dump of every thread's transactional
// state and the NACK wait-for graph — the payload of the watchdog's
// failure record and of the harness's hung-run error.
func (s *System) Diagnose() string {
	var b strings.Builder
	now := s.Engine.Now()
	for _, t := range s.threads {
		fmt.Fprintf(&b, "  %s:", t.Name)
		switch {
		case t.done:
			b.WriteString(" done")
		case t.ctx == nil:
			b.WriteString(" descheduled")
		case t.parked:
			b.WriteString(" parked")
		default:
			fmt.Fprintf(&b, " on core %d", t.ctx.Core)
		}
		if t.InTx() {
			fmt.Fprintf(&b, " tx depth=%d ts=%d aborts=%d", t.depth, t.ts, t.consecAborts)
			if t.possibleCycle {
				b.WriteString(" possible_cycle")
			}
		}
		if t.stalling {
			fmt.Fprintf(&b, " stalled %d cycles", now-t.stallSince)
			if len(t.waitingOn) > 0 {
				var names []string
				for _, id := range t.waitingOn {
					names = append(names, s.threads[id].Name)
				}
				fmt.Fprintf(&b, " waiting on %s", strings.Join(names, ","))
			}
		}
		b.WriteByte('\n')
	}
	if cyc := s.waitCycle(); len(cyc) > 0 {
		fmt.Fprintf(&b, "  wait-for cycle: %s\n", strings.Join(cyc, " -> "))
	}
	return b.String()
}

// waitCycle finds one cycle in the wait-for graph (stalled threads ->
// their last NACKers), deterministically: threads are explored in ID
// order and edges in recorded order.
func (s *System) waitCycle() []string {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, len(s.threads))
	var cycle []string
	var dfs func(id int, path []int) bool
	dfs = func(id int, path []int) bool {
		color[id] = gray
		path = append(path, id)
		t := s.threads[id]
		if t.stalling {
			for _, next := range t.waitingOn {
				if color[next] == gray {
					// Found a back edge: slice the path from next onward.
					for i, p := range path {
						if p == next {
							for _, q := range path[i:] {
								cycle = append(cycle, s.threads[q].Name)
							}
							cycle = append(cycle, s.threads[next].Name)
							return true
						}
					}
				}
				if color[next] == white && dfs(next, path) {
					return true
				}
			}
		}
		color[id] = black
		return false
	}
	for id := range s.threads {
		if color[id] == white && dfs(id, nil) {
			break
		}
	}
	return cycle
}

// --- fault-injection entry points --------------------------------------------

// InjectAbort requests an asynchronous abort of t's current transaction
// (chaos testing). The abort is delivered at the thread's next
// continuation boundary — memory access, NACK retry, or commit point —
// never from the caller's event, preserving the engine's single-
// continuation invariant. It reports whether a transaction was targeted.
func (s *System) InjectAbort(t *Thread) bool {
	if t == nil || t.done || !t.InTx() {
		return false
	}
	t.pendingAbort = true
	return true
}

// InjectSigNoise inserts n spurious blocks derived from salt into every
// signature half of the context — false positives only (signatures are
// conservative, so extra bits can cause spurious conflicts but can never
// violate an oracle). No-op for CDCacheBits (original LogTM has no
// signatures) and for idle contexts. Reports how many bits were inserted.
func (s *System) InjectSigNoise(core, thread, n int, salt uint64) int {
	if s.P.CD == CDCacheBits || core < 0 || core >= len(s.ctxs) ||
		thread < 0 || thread >= s.P.ThreadsPerCore {
		return 0
	}
	ctx := s.ctxs[core][thread]
	if ctx.Cur == nil || !ctx.Cur.InTx() {
		return 0
	}
	inserted := 0
	for i := 0; i < n; i++ {
		// A deterministic scatter across the physical address space;
		// the exact blocks do not matter, only that they are extra.
		a := addr.PAddr((salt + uint64(i)*0x9e3779b97f4a7c15) % (1 << 30)).Block()
		ctx.Sig.Insert(sig.Read, a)
		ctx.Sig.Insert(sig.Write, a)
		inserted++
	}
	s.stampGrowth(ctx)
	return inserted
}
