// Package coherence implements the memory system of the baseline CMP: per-
// core L1 caches, a banked shared L2 with an inclusive MESI directory, and
// the LogTM-SE protocol extensions — CONFLICT checks on GETS/GETM, NACKs,
// sticky states on transactional eviction, and directory rebuild
// broadcasts after L2 victimization (paper §5). A broadcast snooping
// variant (paper §7) is selectable for the alternative-implementation
// ablation.
//
// Coherence transactions are resolved atomically at a simulation event:
// the protocol computes the outcome (grant or NACK) and the uncontended
// latency of the whole message sequence per Table 1, and the caller
// schedules its continuation after that latency. This serializes racing
// requests the way a blocking home node would, keeping runs deterministic
// while preserving the event sequence the paper's evaluation measures
// (misses, forwards, broadcasts, NACKs, victimizations).
package coherence

import (
	"fmt"
	"math/bits"

	"logtmse/internal/addr"
	"logtmse/internal/cache"
	"logtmse/internal/network"
	"logtmse/internal/obs"
	"logtmse/internal/ptable"
	"logtmse/internal/sig"
	"logtmse/internal/sim"
)

// Protocol selects the coherence substrate.
type Protocol int

// Protocols.
const (
	// Directory is the baseline MESI directory protocol of §5.
	Directory Protocol = iota
	// Snoop is the broadcast snooping variant of §7.
	Snoop
)

func (p Protocol) String() string {
	if p == Snoop {
		return "snoop"
	}
	return "directory"
}

// Params configures the memory system (defaults per Table 1).
type Params struct {
	Cores    int
	L1Bytes  int
	L1Ways   int
	L2Bytes  int
	L2Ways   int
	L2Banks  int
	L1HitLat sim.Cycle // L1 uncontended latency
	L2Lat    sim.Cycle // L2 uncontended latency
	MemLat   sim.Cycle // DRAM latency
	DirLat   sim.Cycle // directory lookup latency
	CheckLat sim.Cycle // remote signature-check latency
	Protocol Protocol
	Grid     *network.Grid
	// Sink, if set, receives protocol lifecycle events (sticky
	// forwards); nil disables emission.
	Sink obs.Sink
	// Now supplies the cycle stamp for emitted events (nil stamps 0).
	Now func() sim.Cycle
}

// Request describes one memory access presented to the protocol.
type Request struct {
	Core      int
	Thread    int
	Op        sig.Op // Read -> GETS, Write -> GETM
	Addr      addr.PAddr
	ASID      addr.ASID
	Timestamp uint64 // requester's transaction timestamp; 0 if not in a transaction
}

// Nacker identifies a transaction whose signature NACKed a request.
type Nacker struct {
	Core, Thread int
	// Timestamp of the NACKing transaction (its begin cycle).
	Timestamp uint64
	// FalsePositive is set when the signature matched but the exact
	// read/write set did not (signature aliasing).
	FalsePositive bool
	// Summary is set when the conflict was against a descheduled
	// transaction's summary signature rather than an active one.
	Summary bool
	// Overflow is set when the NACK came from an overflowed CDCacheBits
	// context (original LogTM's conservative overflow rule) rather than
	// a signature or R/W-bit match.
	Overflow bool
	// Sticky is set when the NACKer's L1 no longer caches the block at
	// check time: its conflict-detection state outlived cache residency
	// (a sticky owner, a victimized or relocated transactional block) —
	// the decoupling the paper's §3.1/§4.2 design pays for. The protocol
	// sets it; the engine's own same-core (SMT) checks never do.
	Sticky bool
}

// Hooks is implemented by the transactional engine; the protocol calls
// back into it to perform signature checks and classify victims.
type Hooks interface {
	// SignatureCheck checks every thread context on targetCore for a
	// conflict with req, per the paper's CONFLICT semantics. The
	// requesting thread itself never conflicts. Implementations must set
	// the NACKer-side possible_cycle flag when NACKing an older
	// transaction (LogTM conflict resolution).
	SignatureCheck(targetCore int, req Request) []Nacker
	// MayBeInSignature conservatively reports whether block a may be in
	// any active signature on core; drives the sticky-state decision on
	// L1 eviction.
	MayBeInSignature(core int, a addr.PAddr) bool
	// SignatureMember conservatively reports whether req.Addr is in ANY
	// signature set (read or write) of a scheduled in-transaction
	// context on core, excluding the requesting thread itself.
	// Membership, not conflict: a read-set entry counts even for a read
	// request, and there are no side effects. The directory uses it to
	// keep a rebuilt entry in check-all mode while signature-only
	// coverage — victimized or relocated transactional blocks with no
	// cache copy anywhere — still exists.
	SignatureMember(core int, req Request) bool
	// InExactSet reports whether block a is in the exact read- or
	// write-set of an active transaction on core (victimization
	// statistics only; hardware does not have this).
	InExactSet(core int, a addr.PAddr) bool
}

// Stats counts protocol events.
type Stats struct {
	Loads           uint64
	Stores          uint64
	L1Hits          uint64
	L1Misses        uint64
	L2Misses        uint64
	Upgrades        uint64
	Forwards        uint64
	Broadcasts      uint64
	NACKs           uint64
	StickyEvicts    uint64
	L1TxVictims     uint64 // transactional blocks displaced from an L1
	L2TxVictims     uint64 // transactional blocks displaced from the L2
	WritebacksToMem uint64
	// Multiple-CMP (§7) events.
	InterChipMsgs uint64 // coherence transactions that crossed chips
	MemStickyM    uint64 // sticky-M transitions at the memory directory
}

// Add adds o's counters to s.
func (s *Stats) Add(o Stats) {
	s.Loads += o.Loads
	s.Stores += o.Stores
	s.L1Hits += o.L1Hits
	s.L1Misses += o.L1Misses
	s.L2Misses += o.L2Misses
	s.Upgrades += o.Upgrades
	s.Forwards += o.Forwards
	s.Broadcasts += o.Broadcasts
	s.NACKs += o.NACKs
	s.StickyEvicts += o.StickyEvicts
	s.L1TxVictims += o.L1TxVictims
	s.L2TxVictims += o.L2TxVictims
	s.WritebacksToMem += o.WritebacksToMem
	s.InterChipMsgs += o.InterChipMsgs
	s.MemStickyM += o.MemStickyM
}

// AccessResult reports the outcome of one coherence transaction.
type AccessResult struct {
	Latency sim.Cycle
	NACK    bool
	// Broadcast is set on a NACK whose signature checks went to every
	// core (check-all or snooping) rather than being forwarded to the
	// directory's owner or sharers; ReplayCharge needs it to charge the
	// same counter.
	Broadcast bool
	Nackers   []Nacker
}

type dirEntry struct {
	owner   int    // core holding E/M (possibly sticky), -1 if none
	sharers uint64 // bitmask of cores that may hold S (superset; S evictions are silent)
	// checkAll forces signature-check broadcasts on every request after
	// an L2-miss rebuild observed a NACK; cleared when a request succeeds.
	checkAll bool
}

// System is the simulated memory system. The directory lives in
// page-granular open-addressed storage (internal/ptable): entries are
// found by a single page-number hash plus an in-page index, with no
// per-block map hashing on the access path. Entry pointers stay valid
// across growth because per-page block arrays are separately allocated.
type System struct {
	p     Params
	l1    []*cache.Cache
	l2    *cache.Cache
	dir   ptable.Table[dirEntry]
	hooks Hooks
	stats Stats

	// epoch, stamps and touches date the state a NACK outcome depends on
	// (see Epoch, BlockStamp and Touches). They are host bookkeeping, not
	// simulated state: they only ever grow, and snapshots neither capture
	// nor restore them.
	epoch   uint64
	stamps  *[stampSlots]uint64
	touches uint64
	// allMask is the mask of every core (see NACKShape).
	allMask uint64

	// Scratch storage for the per-access hot path. The system is owned
	// by the single simulation goroutine and each returned slice is
	// consumed before the next Access, so the buffers are reused instead
	// of allocated per request.
	coresList  []int
	targetsBuf []int
	nackBuf    []Nacker
}

// NewSystem builds the memory system. hooks may not be nil.
func NewSystem(p Params, hooks Hooks) (*System, error) {
	if hooks == nil {
		return nil, fmt.Errorf("coherence: nil hooks")
	}
	if p.Cores <= 0 || p.Cores > 64 {
		return nil, fmt.Errorf("coherence: bad core count %d", p.Cores)
	}
	if p.Grid == nil {
		return nil, fmt.Errorf("coherence: nil grid")
	}
	s := &System{p: p, hooks: hooks, stamps: new([stampSlots]uint64)}
	s.allMask = ^uint64(0) >> uint(64-p.Cores)
	for i := 0; i < p.Cores; i++ {
		c, err := cache.New(p.L1Bytes, p.L1Ways, 1)
		if err != nil {
			return nil, err
		}
		s.l1 = append(s.l1, c)
	}
	l2, err := cache.New(p.L2Bytes, p.L2Ways, p.L2Banks)
	if err != nil {
		return nil, err
	}
	s.l2 = l2
	s.coresList = make([]int, p.Cores)
	for c := range s.coresList {
		s.coresList[c] = c
	}
	return s, nil
}

// emitSticky reports a forward to a sticky owner: the directory still
// points at owner for block a, but owner's L1 no longer caches it — the
// lazy-cleanup signature check of §3.1.
func (s *System) emitSticky(owner, requester int, a addr.PAddr) {
	var now sim.Cycle
	if s.p.Now != nil {
		now = s.p.Now()
	}
	s.p.Sink.Emit(obs.Event{
		Kind: obs.KindStickyForward, Cycle: now,
		Core: owner, Thread: -1, TID: -1,
		Addr: a, Arg: uint64(requester),
	})
}

// Stats returns a snapshot of the protocol counters.
func (s *System) Stats() Stats { return s.stats }

// The block-stamp table has stampSlots counters. Blocks hash into it, so
// two blocks may share a stamp: a collision only ends a retry verdict
// early, never keeps a stale one.
const (
	stampBits  = 12
	stampSlots = 1 << stampBits
)

// stampSlot hashes a block (Fibonacci hashing of the block number).
func stampSlot(a addr.PAddr) uint64 {
	return (a.BlockIndex() * 0x9e3779b97f4a7c15) >> (64 - stampBits)
}

// touch records a change to block a's protocol state: its directory
// entry, or its line in any L1.
func (s *System) touch(a addr.PAddr) {
	s.stamps[stampSlot(a)]++
	s.touches++
}

// Touches counts the block-stamp advances so far. An Access across which
// it held still changed no block's protocol state.
func (s *System) Touches() uint64 { return s.touches }

// BlockStamp dates block a's protocol state. It advances on every change
// to the block's directory entry (owner, sharers, check-all, existence)
// or to its line in any L1: a grant, an invalidation or downgrade, the
// E->M hit upgrade, an L1 or L2 victimization, the L2-miss rebuild, and
// a forced eviction. Together with Epoch and the engine's per-core
// signature stamps it decides whether a NACK still holds: a NACK whose
// own walk left the stamp unchanged repeats, with the same NACKers, while
// the stamp, the epoch and the checked cores' signature state hold still,
// so its retries may be charged with ReplayCharge instead of re-walking.
func (s *System) BlockStamp(a addr.PAddr) uint64 { return s.stamps[stampSlot(a)] }

// Epoch advances when all protocol state may have changed at once:
// Reset, snapshot restore, and (through BumpEpoch) a page relocation.
func (s *System) Epoch() uint64 { return s.epoch }

// BumpEpoch records a change made outside the protocol that can move any
// NACK outcome (the OS rewriting signatures and exact sets on a page
// relocation).
func (s *System) BumpEpoch() { s.epoch++ }

// NACKShape describes a request that Access just NACKed without changing
// any protocol state (Touches held still across it), for its replays:
// checked is the mask of cores whose signatures the walk consulted —
// every core for a broadcast, else the directory's routing targets, the
// (possibly sticky) owner for a GETS and targetMask for a GETM — and
// upgrade reports an S->M upgrade rather than an L1 miss. Both read the
// state the walk routed on, so they stay right while the block's stamp
// holds.
func (s *System) NACKShape(req Request, broadcast bool) (checked uint64, upgrade bool) {
	a := req.Addr.Block()
	upgrade = req.Op == sig.Write && s.l1[req.Core].Peek(a) == cache.Shared
	e := s.dir.Get(a)
	switch {
	case broadcast || e == nil:
		return s.allMask, upgrade
	case req.Op == sig.Read && e.owner >= 0:
		return 1 << uint(e.owner), upgrade
	case req.Op == sig.Read:
		return s.allMask, upgrade // a GETS without an owner never NACKs
	}
	return targetMask(e, req.Core), upgrade
}

// NACKCharge is the charge of an Access that NACKs exactly as a previous
// one did: same requester, operation and block, with the NACK still
// holding (see BlockStamp) and no hook observing the walk (sink,
// latency perturbation). ReplayCharge resolves it once, so a retry that
// replays the same NACK many times charges the counters directly.
//
// A read NACK is always an L1 miss; a NACKed upgrade repeats the
// requester's L1 Lookup, which refreshes the Shared line's LRU position
// as the walk would (a Lookup that misses changes nothing). The charge
// then counts the broadcast or forward and the NACK. The walk's only
// other effect, the NACKers' possible_cycle flags, was already set by
// the NACK being replayed and is cleared only by their commit or abort,
// which ends the verdict.
type NACKCharge struct {
	access, miss, route, nacks *uint64
	lru                        *cache.Cache // the requester's L1 on an upgrade
	block                      addr.PAddr
}

// ReplayCharge resolves the charge of replaying req's NACK, which was
// broadcast or forwarded and an upgrade or an L1 miss. The counters and
// caches it points at live as long as the System, across Reset and
// RestoreFrom.
func (s *System) ReplayCharge(req Request, broadcast, upgrade bool) NACKCharge {
	c := NACKCharge{access: &s.stats.Loads, miss: &s.stats.L1Misses, route: &s.stats.Forwards, nacks: &s.stats.NACKs, block: req.Addr.Block()}
	if req.Op != sig.Read {
		c.access = &s.stats.Stores
	}
	if upgrade {
		c.miss, c.lru = &s.stats.Upgrades, s.l1[req.Core]
	}
	if broadcast {
		c.route = &s.stats.Broadcasts
	}
	return c
}

// Apply charges c once, as the walk it replays would.
func (c *NACKCharge) Apply() {
	*c.access++
	*c.miss++
	*c.route++
	*c.nacks++
	if c.lru != nil {
		c.lru.Lookup(c.block)
	}
}

// Reset returns the memory system to its just-constructed state for
// pooled reuse: caches and directory emptied (storage retained), stats
// zeroed, and the grid's latency perturbation removed. The configuration
// (geometry, latencies, protocol, hooks) survives.
func (s *System) Reset() {
	for _, c := range s.l1 {
		c.Reset()
	}
	s.l2.Reset()
	s.dir.Reset()
	s.stats = Stats{}
	s.epoch++
	s.p.Grid.Reset()
}

// L1 exposes a core's L1 for tests and victim inspection.
func (s *System) L1(core int) *cache.Cache { return s.l1[core] }

// L2 exposes the shared L2.
func (s *System) L2() *cache.Cache { return s.l2 }

// Grid exposes the on-chip interconnect (the fault injector attaches its
// latency perturbation here).
func (s *System) Grid() *network.Grid { return s.p.Grid }

// HasDirEntry reports whether the directory tracks a block (tests).
func (s *System) HasDirEntry(a addr.PAddr) bool {
	return s.dir.Get(a.Block()) != nil
}

// DirOwner reports the directory's owner pointer for a block (-1 if none
// or untracked); exposed for sticky-state tests.
func (s *System) DirOwner(a addr.PAddr) int {
	if e := s.dir.Get(a.Block()); e != nil {
		return e.owner
	}
	return -1
}

// DirState reports the directory's full view of a block for the
// sticky-state/directory consistency audit: whether the block is tracked,
// the owner pointer, the conservative sharer mask, and whether the entry
// is in check-all mode (post-rebuild conservative broadcasts).
func (s *System) DirState(a addr.PAddr) (present bool, owner int, sharers uint64, checkAll bool) {
	e := s.dir.Get(a.Block())
	if e == nil {
		return false, -1, 0, false
	}
	return true, e.owner, e.sharers, e.checkAll
}

// ForceEvict displaces the n'th valid line of a core's L1 (fault
// injection: a victimization storm), running the same victim bookkeeping
// a capacity eviction would — including the sticky-state decision. It
// reports the evicted block and whether a line was evicted.
func (s *System) ForceEvict(core, n int) (addr.PAddr, bool) {
	if core < 0 || core >= len(s.l1) {
		return 0, false
	}
	v, ok := s.l1[core].EvictNth(n)
	if !ok {
		return 0, false
	}
	s.l1Victim(core, v)
	return v.Addr, true
}

// Access performs one memory access through the protocol and returns its
// outcome. On a NACK the caller stalls and retries (or aborts), per LogTM
// conflict resolution.
//
// A NACK changes no protocol state except on the L2-miss rebuild path,
// which creates the directory entry, inserts the block into the L2 (with
// any inclusion evictions) and puts the entry in check-all mode before it
// NACKs. The contract retry replay relies on: every path that changes a
// block's directory entry or L1 lines advances its BlockStamp, so a NACK
// across which the stamp held still touched nothing but counters and the
// requester's LRU order, and an identical retry would NACK the same way
// until the stamp, the Epoch or a checked core's signature state moves.
func (s *System) Access(req Request) AccessResult {
	req.Addr = req.Addr.Block()
	if req.Op == sig.Read {
		s.stats.Loads++
	} else {
		s.stats.Stores++
	}

	// L1 hit fast path. Paper §2 invariants guarantee a cached block
	// cannot be in a remote write-set (nor exclusively cached while in a
	// remote read-set), so hits need no remote signature tests. Same-core
	// SMT and summary-signature checks are the engine's responsibility.
	st := s.l1[req.Core].Lookup(req.Addr)
	switch {
	case req.Op == sig.Read && st != cache.Invalid:
		s.stats.L1Hits++
		return AccessResult{Latency: s.p.L1HitLat}
	case req.Op == sig.Write && (st == cache.Modified || st == cache.Exclusive):
		s.stats.L1Hits++
		if st == cache.Exclusive {
			s.touch(req.Addr)
			s.l1[req.Core].SetState(req.Addr, cache.Modified)
			if e := s.dir.Get(req.Addr); e != nil {
				e.owner = req.Core
			}
		}
		return AccessResult{Latency: s.p.L1HitLat}
	}
	if req.Op == sig.Write && st == cache.Shared {
		s.stats.Upgrades++
	} else {
		s.stats.L1Misses++
	}

	if s.p.Protocol == Snoop {
		return s.accessSnoop(req)
	}
	return s.accessDirectory(req)
}

func (s *System) accessDirectory(req Request) AccessResult {
	a := req.Addr
	bank := s.l2.Bank(a)
	lat := s.p.L1HitLat + s.p.Grid.CoreToBank(req.Core, bank) + s.p.DirLat + s.p.L2Lat

	e := s.dir.Get(a)
	if e == nil {
		// L2 miss: fetch from memory; directory info was lost when the
		// L2 victimized the block, so conservatively broadcast to the
		// L1s so they can check their signatures (§5). The rebuild
		// changes state even when it NACKs.
		s.touch(a)
		s.stats.L2Misses++
		lat += s.p.MemLat
		lat += s.p.Grid.BroadcastFromBank(bank) + s.p.CheckLat
		s.stats.Broadcasts++
		nackers := s.checkCores(s.allCores(req.Core), req)
		e, _ = s.dir.GetOrCreate(a)
		*e = dirEntry{owner: -1}
		s.insertL2(a)
		if len(nackers) > 0 {
			// Record the NACK: all subsequent requests must re-check
			// the L1 signatures until one succeeds.
			e.checkAll = true
			s.stats.NACKs++
			return AccessResult{Latency: lat, NACK: true, Nackers: nackers, Broadcast: true}
		}
		// Even without a NACK the rebuilt entry may be blind: a remote
		// signature can still contain the block with no cached copy
		// anywhere (a victimized or relocated transactional block, §4.2).
		// The fresh entry would route later requests by owner/sharer
		// state alone and miss that footprint, so stay in check-all mode
		// until membership is gone.
		e.checkAll = s.anySignatureMember(req)
		return s.grant(req, e, lat)
	}

	if e.checkAll {
		lat += s.p.Grid.BroadcastFromBank(bank) + s.p.CheckLat
		s.stats.Broadcasts++
		nackers := s.checkCores(s.allCores(req.Core), req)
		if len(nackers) > 0 {
			s.stats.NACKs++
			return AccessResult{Latency: lat, NACK: true, Nackers: nackers, Broadcast: true}
		}
		// A compatible grant does not prove the block left every
		// signature (a read is granted against remote read-set
		// membership); leave check-all until no signature contains it.
		s.touch(a)
		e.checkAll = s.anySignatureMember(req)
		// Fall through to the normal GETS/GETM handling: the entry may
		// still record an owner or sharers whose cached copies need the
		// usual downgrades/invalidations — granting directly would leave
		// stale L1 lines serving silent hits past conflict detection.
	}

	if req.Op == sig.Read {
		return s.gets(req, e, bank, lat)
	}
	return s.getm(req, e, bank, lat)
}

// gets handles a GETS through the directory.
func (s *System) gets(req Request, e *dirEntry, bank int, lat sim.Cycle) AccessResult {
	a := req.Addr
	if e.owner != -1 {
		// Forward to the (possibly sticky) owner for a signature check.
		owner := e.owner
		s.stats.Forwards++
		if s.p.Sink != nil && s.l1[owner].Peek(a) == cache.Invalid {
			s.emitSticky(owner, req.Core, a)
		}
		lat += s.p.Grid.Latency(s.p.Grid.BankNode(bank), s.p.Grid.CoreNode(owner)) +
			s.p.CheckLat + s.p.Grid.CoreToCore(owner, req.Core)
		if nackers := s.hooks.SignatureCheck(owner, req); len(nackers) > 0 {
			if s.l1[owner].Peek(a) == cache.Invalid {
				markSticky(nackers)
			}
			s.stats.NACKs++
			return AccessResult{Latency: lat, NACK: true, Nackers: nackers}
		}
		// No conflict: downgrade the owner (or resolve a sticky pointer
		// if the owner no longer caches the block).
		switch s.l1[owner].Peek(a) {
		case cache.Modified:
			s.stats.WritebacksToMem++
			s.l1[owner].SetState(a, cache.Shared)
			e.sharers |= 1 << uint(owner)
		case cache.Exclusive:
			s.l1[owner].SetState(a, cache.Shared)
			e.sharers |= 1 << uint(owner)
		default:
			// Sticky owner had already evicted the block. A passing
			// check only proves compatibility (a read is granted
			// against read-set membership), not that the block left
			// the owner's signature — resolving the pointer now would
			// let grant() hand out Exclusive and license a silent
			// E->M store that never comes back for a conflict check.
			// Keep the state sticky until membership is gone (§3.1).
			if s.hooks.SignatureMember(owner, req) {
				return s.grant(req, e, lat)
			}
		}
		e.owner = -1
	}
	return s.grant(req, e, lat)
}

// getm handles a GETM (or S->M upgrade) through the directory.
func (s *System) getm(req Request, e *dirEntry, bank int, lat sim.Cycle) AccessResult {
	a := req.Addr
	targets := s.targetsOf(e, req.Core)
	if len(targets) > 0 {
		if s.p.Sink != nil && e.owner != -1 && e.owner != req.Core &&
			s.l1[e.owner].Peek(a) == cache.Invalid {
			s.emitSticky(e.owner, req.Core, a)
		}
		// Invalidations fan out in parallel; charge the worst round trip.
		worst := sim.Cycle(0)
		for _, t := range targets {
			if l := s.p.Grid.Latency(s.p.Grid.BankNode(bank), s.p.Grid.CoreNode(t)); l > worst {
				worst = l
			}
		}
		lat += 2*worst + s.p.CheckLat + s.p.Grid.CoreToBank(req.Core, bank)
		s.stats.Forwards++
		nackers := s.checkCores(targets, req)
		if len(nackers) > 0 {
			s.stats.NACKs++
			return AccessResult{Latency: lat, NACK: true, Nackers: nackers}
		}
		for _, t := range targets {
			if s.l1[t].Peek(a) == cache.Modified {
				s.stats.WritebacksToMem++
			}
			s.l1[t].Invalidate(a)
		}
	}
	e.sharers = 0
	e.owner = -1
	return s.grant(req, e, lat)
}

// accessSnoop resolves a miss with the §7 broadcast snooping protocol:
// the request goes to every other core; a logically-ORed nack signal
// reports conflicts, so no sticky states are needed.
func (s *System) accessSnoop(req Request) AccessResult {
	a := req.Addr
	lat := s.p.L1HitLat + s.p.Grid.BroadcastFromCore(req.Core) + s.p.CheckLat
	s.stats.Broadcasts++
	nackers := s.checkCores(s.allCores(req.Core), req)
	if len(nackers) > 0 {
		s.stats.NACKs++
		return AccessResult{Latency: lat, NACK: true, Nackers: nackers, Broadcast: true}
	}
	// Locate the data: L1 owner beats L2 beats memory.
	e := s.dir.Get(a)
	if e == nil {
		s.stats.L2Misses++
		lat += s.p.L2Lat + s.p.MemLat
		e, _ = s.dir.GetOrCreate(a)
		*e = dirEntry{owner: -1}
		s.insertL2(a)
	} else {
		lat += s.p.L2Lat
	}
	if req.Op == sig.Read {
		if e.owner != -1 && e.owner != req.Core {
			if s.l1[e.owner].Peek(a) == cache.Modified {
				s.stats.WritebacksToMem++
			}
			if s.l1[e.owner].Peek(a) != cache.Invalid {
				s.l1[e.owner].SetState(a, cache.Shared)
				e.sharers |= 1 << uint(e.owner)
			}
			e.owner = -1
		}
	} else {
		for _, t := range s.targetsOf(e, req.Core) {
			if s.l1[t].Peek(a) == cache.Modified {
				s.stats.WritebacksToMem++
			}
			s.l1[t].Invalidate(a)
		}
		e.sharers = 0
		e.owner = -1
	}
	return s.grant(req, e, lat)
}

// grant installs the block in the requester's L1 and finalizes directory
// state, handling victim (sticky) bookkeeping.
func (s *System) grant(req Request, e *dirEntry, lat sim.Cycle) AccessResult {
	a := req.Addr
	s.touch(a)
	var newState cache.State
	if req.Op == sig.Write {
		newState = cache.Modified
		e.owner = req.Core
		e.sharers = 0
	} else if !e.checkAll && e.owner == -1 && e.sharers&^(1<<uint(req.Core)) == 0 {
		// The Exclusive upgrade is only safe when the directory fully
		// knows who may care about the block: an E grant licenses a
		// silent E->M store that never returns here. In check-all mode a
		// remote signature still covers the block without any cached
		// copy, so the store must come back as an upgrade request and be
		// broadcast-checked — grant Shared instead (the else branch).
		newState = cache.Exclusive
		e.owner = req.Core
		e.sharers = 0
	} else {
		newState = cache.Shared
		e.sharers |= 1 << uint(req.Core)
	}

	v, evicted := s.l1[req.Core].Insert(a, newState)
	if evicted {
		s.l1Victim(req.Core, v)
	}
	return AccessResult{Latency: lat}
}

// l1Victim applies the paper's replacement policy to a displaced L1 block:
// blocks possibly in a local signature leave the directory untouched
// (sticky states); clean non-transactional blocks update or silently skip
// the directory per MESI conventions.
func (s *System) l1Victim(core int, v cache.Victim) {
	s.touch(v.Addr)
	if s.hooks.InExactSet(core, v.Addr) {
		s.stats.L1TxVictims++
	}
	if s.hooks.MayBeInSignature(core, v.Addr) {
		// Sticky: write back M data but do not change directory state,
		// so conflicting requests keep being forwarded here (§3.1).
		if v.State == cache.Modified {
			s.stats.WritebacksToMem++
		}
		s.stats.StickyEvicts++
		return
	}
	ve := s.dir.Get(v.Addr)
	if ve == nil {
		return
	}
	switch v.State {
	case cache.Modified:
		s.stats.WritebacksToMem++
		if ve.owner == core {
			ve.owner = -1
		}
	case cache.Exclusive:
		// E replacement sends a control message to update the exclusive
		// pointer (§5).
		if ve.owner == core {
			ve.owner = -1
		}
	case cache.Shared:
		// Silent; the directory's sharer list stays conservatively stale.
	}
}

// insertL2 places a block in the L2 array, enforcing inclusion on
// eviction: displaced blocks lose their directory entry and any L1 copies.
func (s *System) insertL2(a addr.PAddr) {
	v, evicted := s.l2.Insert(a, cache.Shared)
	if !evicted {
		return
	}
	s.touch(v.Addr)
	for c := 0; c < s.p.Cores; c++ {
		if s.hooks.InExactSet(c, v.Addr) {
			s.stats.L2TxVictims++
			break
		}
	}
	if ve := s.dir.Get(v.Addr); ve != nil {
		if ve.owner != -1 && s.l1[ve.owner].Peek(v.Addr) == cache.Modified {
			s.stats.WritebacksToMem++
		}
		s.dir.Delete(v.Addr)
	}
	for c := 0; c < s.p.Cores; c++ {
		s.l1[c].Invalidate(v.Addr)
	}
}

// targetMask is the set of cores a GETM must check: the (possibly
// sticky) owner plus every core in the conservative sharer mask,
// excluding the requester itself.
func targetMask(e *dirEntry, reqCore int) uint64 {
	mask := e.sharers
	if e.owner >= 0 {
		mask |= 1 << uint(e.owner)
	}
	return mask &^ (1 << uint(reqCore))
}

// targetsOf lists targetMask's cores. The returned slice aliases a
// reusable scratch buffer: read it before the next Access.
func (s *System) targetsOf(e *dirEntry, reqCore int) []int {
	ts := s.targetsBuf[:0]
	for m := targetMask(e, reqCore); m != 0; m &= m - 1 {
		ts = append(ts, bits.TrailingZeros64(m))
	}
	s.targetsBuf = ts
	return ts
}

// allCores lists every core; the requester core is included because its
// sibling SMT context may hold a conflicting signature (the hook excludes
// the requesting thread itself).
func (s *System) allCores(int) []int {
	return s.coresList
}

// checkCores fans a request out for signature checks. The returned slice
// aliases a reusable scratch buffer: read it before the next Access.
func (s *System) checkCores(cores []int, req Request) []Nacker {
	nackers := s.nackBuf[:0]
	for _, c := range cores {
		nackers = s.checkCore(nackers, c, req)
	}
	s.nackBuf = nackers
	return nackers
}

// checkCore appends core c's NACKers of req to nackers.
func (s *System) checkCore(nackers []Nacker, c int, req Request) []Nacker {
	ns := s.hooks.SignatureCheck(c, req)
	if len(ns) > 0 && s.l1[c].Peek(req.Addr) == cache.Invalid {
		// The core's signature NACKed a block it no longer caches:
		// sticky/victimized carryover. Peek is side-effect-free, so
		// the classification never perturbs protocol state.
		markSticky(ns)
	}
	return append(nackers, ns...)
}

// Recheck recomputes the NACKer list of a forwarded request (a GETS to
// its owner or a GETM to its owner and sharers) that Access NACKed with
// prev, when only some target cores' transactional state changed since:
// targets is the mask NACKShape gave, moved the cores among them that
// changed. It re-runs the signature checks, sticky marks included, on
// the moved cores only, keeps prev's NACKers on the others, and composes
// both in the walk's ascending core order. The caller guarantees that
// the block's stamp and the Epoch held since prev's walk, so the walk
// would route to the same targets, and that an unchanged core's checks
// would repeat prev's (see the engine's retry verdicts). The returned
// slice aliases a reusable scratch buffer: read it before the next
// Access. Recheck counts nothing; a retry that still NACKs charges its
// walk with its ReplayCharge.
func (s *System) Recheck(req Request, targets, moved uint64, prev []Nacker) []Nacker {
	nackers := s.nackBuf[:0]
	i := 0
	for m := targets; m != 0; m &= m - 1 {
		c := bits.TrailingZeros64(m)
		j := i
		for j < len(prev) && prev[j].Core == c {
			j++
		}
		if moved&(1<<uint(c)) != 0 {
			nackers = s.checkCore(nackers, c, req)
		} else {
			nackers = append(nackers, prev[i:j]...)
		}
		i = j
	}
	s.nackBuf = nackers
	return nackers
}

// markSticky flags every NACKer of one core's check as a sticky
// (signature-outlived-cache) conflict.
func markSticky(ns []Nacker) {
	for i := range ns {
		ns[i].Sticky = true
	}
}

// anySignatureMember reports whether any core other than the requesting
// thread's still holds req.Addr in a transactional signature set.
func (s *System) anySignatureMember(req Request) bool {
	for c := 0; c < s.p.Cores; c++ {
		if s.hooks.SignatureMember(c, req) {
			return true
		}
	}
	return false
}
