package coherence

import (
	"fmt"

	"logtmse/internal/addr"
	"logtmse/internal/cache"
	"logtmse/internal/obs"
	"logtmse/internal/ptable"
	"logtmse/internal/sig"
	"logtmse/internal/sim"
)

// Memory is the interface both memory-system implementations satisfy; the
// transactional engine programs against it. Reset returns the whole
// memory system to its just-constructed state (pooled reuse).
type Memory interface {
	Access(req Request) AccessResult
	Stats() Stats
	Reset()
	// SetSink attaches the protocol's event sink (nil detaches it).
	SetSink(obs.Sink)
}

var (
	_ Memory = (*System)(nil)
	_ Memory = (*MultiChip)(nil)
)

// MultiChipParams configures the §7 multiple-CMP system: several CMPs
// (each with the single-chip organization: per-core L1s, a banked shared
// L2 with an intra-chip directory) attached to standard DRAM through a
// reliable point-to-point network, with inter-chip coherence maintained
// by a full-map directory stored at memory (a few state bits and one
// sharer bit per chip per block, §7).
type MultiChipParams struct {
	Params
	// Chips is the number of CMPs; Params.Cores is the total core count
	// and must divide evenly.
	Chips int
}

// interChipLat is the one-way latency of the point-to-point network
// between a chip and the memory directory (or another chip).
const interChipLat sim.Cycle = 50

// memDirState is the inter-chip directory state for one block.
type memDirEntry struct {
	ownerChip int    // chip with the exclusive copy (possibly sticky-M), -1
	sharers   uint64 // bitmask of chips that may hold shared copies
	// stickyM marks a transactionally modified block victimized from a
	// chip's L2: the chip wrote the data back so memory is current, but
	// the directory stays in "sticky M" and keeps forwarding conflicting
	// requests to that chip for signature checks (§7).
	stickyM bool
}

// MultiChip is the multiple-CMP memory system. Each chip reuses the
// single-chip directory logic for its on-chip traffic; misses escalate to
// the memory directory.
type MultiChip struct {
	p            MultiChipParams
	coresPerChip int
	chips        []*System // per-chip L1s + L2 + intra-chip directory
	memDir       ptable.Table[memDirEntry]
	hooks        Hooks
	stats        Stats
}

// NewMultiChip builds the multiple-CMP system. The per-chip L2/directory
// each get Params' L2 configuration; Params.Cores is the machine total.
func NewMultiChip(p MultiChipParams, hooks Hooks) (*MultiChip, error) {
	if p.Chips < 2 {
		return nil, fmt.Errorf("coherence: multi-chip system needs >= 2 chips, got %d", p.Chips)
	}
	if p.Cores%p.Chips != 0 {
		return nil, fmt.Errorf("coherence: %d cores do not divide over %d chips", p.Cores, p.Chips)
	}
	m := &MultiChip{
		p:            p,
		coresPerChip: p.Cores / p.Chips,
		hooks:        hooks,
	}
	for c := 0; c < p.Chips; c++ {
		cp := p.Params
		cp.Cores = m.coresPerChip
		// Chip-local hooks translate chip-local core ids to global ones.
		chipHooks := &chipHooks{m: m, chip: c}
		chip, err := NewSystem(cp, chipHooks)
		if err != nil {
			return nil, err
		}
		m.chips = append(m.chips, chip)
	}
	return m, nil
}

// chipHooks adapts the global Hooks to one chip's local core numbering.
type chipHooks struct {
	m    *MultiChip
	chip int
}

func (h *chipHooks) global(core int) int { return h.chip*h.m.coresPerChip + core }

func (h *chipHooks) SignatureCheck(targetCore int, req Request) []Nacker {
	g := req
	g.Core = h.global(req.Core)
	ns := h.m.hooks.SignatureCheck(h.global(targetCore), g)
	return ns
}

func (h *chipHooks) MayBeInSignature(core int, a addr.PAddr) bool {
	return h.m.hooks.MayBeInSignature(h.global(core), a)
}

func (h *chipHooks) SignatureMember(core int, req Request) bool {
	g := req
	g.Core = h.global(req.Core)
	return h.m.hooks.SignatureMember(h.global(core), g)
}

func (h *chipHooks) InExactSet(core int, a addr.PAddr) bool {
	return h.m.hooks.InExactSet(h.global(core), a)
}

// SetSink attaches the event sink to every chip. Chip-local events carry
// chip-local core ids, so each chip's are shifted to the machine-global
// numbering before they reach the sink.
func (m *MultiChip) SetSink(sink obs.Sink) {
	for c, chip := range m.chips {
		chip.SetSink(obs.CoreOffset(sink, c*m.coresPerChip))
	}
}

// Chip returns one CMP's single-chip memory system (tests, stats).
func (m *MultiChip) Chip(i int) *System { return m.chips[i] }

// Chips reports the chip count.
func (m *MultiChip) Chips() int { return m.p.Chips }

// ChipOf returns the chip a global core belongs to.
func (m *MultiChip) ChipOf(core int) int { return core / m.coresPerChip }

// Stats aggregates the chips' counters plus the inter-chip events.
func (m *MultiChip) Stats() Stats {
	s := m.stats
	for _, c := range m.chips {
		s.Add(c.Stats())
	}
	return s
}

// Reset returns the multiple-CMP system to its just-constructed state
// for pooled reuse: every chip's caches and directory, the memory
// directory, and the aggregate counters. The chips share one grid, so
// resetting it repeatedly is harmless.
func (m *MultiChip) Reset() {
	for _, c := range m.chips {
		c.Reset()
	}
	m.memDir.Reset()
	m.stats = Stats{}
}

// Access resolves one memory access: on-chip first; when the chip lacks
// sufficient rights, through the memory directory and possibly other
// chips' signatures.
func (m *MultiChip) Access(req Request) AccessResult {
	req.Addr = req.Addr.Block()
	chip := m.ChipOf(req.Core)
	local := req
	local.Core = req.Core % m.coresPerChip

	a := req.Addr
	e := m.memDir.Get(a)
	chipBit := uint64(1) << uint(chip)

	// Determine whether the chip already has sufficient inter-chip
	// rights: a read needs the chip in sharers or ownership; a write
	// needs exclusive ownership.
	var rights bool
	if e != nil {
		if req.Op == sig.Read {
			rights = e.ownerChip == chip || e.sharers&chipBit != 0
		} else {
			rights = e.ownerChip == chip && e.sharers&^chipBit == 0 && !e.stickyM
		}
	}
	if rights {
		// Fully on-chip: the chip's own directory handles forwards,
		// sticky states and signature checks among its cores.
		return m.chips[chip].Access(local)
	}

	// Inter-chip transaction: consult the memory directory.
	m.stats.InterChipMsgs++
	lat := 2 * interChipLat // chip <-> memory directory round trip
	if e == nil {
		e, _ = m.memDir.GetOrCreate(a)
		*e = memDirEntry{ownerChip: -1}
	}

	// Check every other chip that may hold the block (or a sticky
	// signature claim on it): forward for signature checks.
	var nackers []Nacker
	checked := false
	for c := 0; c < m.p.Chips; c++ {
		if c == chip {
			continue
		}
		bit := uint64(1) << uint(c)
		involved := e.ownerChip == c || e.sharers&bit != 0
		if !involved {
			continue
		}
		checked = true
		for lc := 0; lc < m.coresPerChip; lc++ {
			g := c*m.coresPerChip + lc
			if g == req.Core {
				continue
			}
			gr := req
			nackers = append(nackers, m.hooks.SignatureCheck(g, gr)...)
		}
	}
	if checked {
		lat += 2 * interChipLat // forward round trip (parallel chips)
	}
	if len(nackers) > 0 {
		m.stats.NACKs++
		return AccessResult{Latency: lat, NACK: true, Nackers: nackers}
	}

	// Grant at the inter-chip level: invalidate or downgrade other chips.
	if req.Op == sig.Write {
		for c := 0; c < m.p.Chips; c++ {
			if c == chip {
				continue
			}
			bit := uint64(1) << uint(c)
			if e.ownerChip == c || e.sharers&bit != 0 {
				m.invalidateChip(c, a)
			}
		}
		e.ownerChip = chip
		e.sharers = 0
		e.stickyM = false
	} else {
		if e.ownerChip != -1 && e.ownerChip != chip {
			// Downgrade the owning chip; its L2 writes back so memory
			// is current (timing already charged via interChipLat).
			m.downgradeChip(e.ownerChip, a)
			e.sharers |= uint64(1) << uint(e.ownerChip)
			e.ownerChip = -1
			e.stickyM = false
		}
		e.sharers |= chipBit
	}

	// Now run the on-chip protocol to install the block locally.
	res := m.chips[chip].Access(local)
	res.Latency += lat

	// If the chip's L2 victimized a transactionally modified block while
	// installing, record the sticky-M-at-memory transition (§7): the
	// memory directory will keep forwarding to the chip.
	return res
}

// invalidateChip removes a block from one chip entirely (L1s and L2).
func (m *MultiChip) invalidateChip(chip int, a addr.PAddr) {
	c := m.chips[chip]
	for lc := 0; lc < m.coresPerChip; lc++ {
		c.l1[lc].Invalidate(a)
	}
	if c.dir.Get(a) != nil {
		c.dir.Delete(a)
		c.l2.Invalidate(a)
	}
}

// downgradeChip demotes a chip's copies to shared.
func (m *MultiChip) downgradeChip(chip int, a addr.PAddr) {
	c := m.chips[chip]
	for lc := 0; lc < m.coresPerChip; lc++ {
		if st := c.l1[lc].Peek(a); st == cache.Modified || st == cache.Exclusive {
			if st == cache.Modified {
				c.stats.WritebacksToMem++
			}
			c.l1[lc].SetState(a, cache.Shared)
		}
	}
	if e := c.dir.Get(a); e != nil {
		if e.owner != -1 {
			e.sharers |= 1 << uint(e.owner)
			e.owner = -1
		}
	}
}

// VictimizeL2 simulates a chip's L2 victimizing a transactionally
// modified block: data is written back to memory and the memory directory
// enters sticky M for that chip (§7). Exposed so tests and the ablation
// can drive the path deterministically (organic L2 victimization of a
// dirty transactional block is rare).
func (m *MultiChip) VictimizeL2(chip int, a addr.PAddr) {
	a = a.Block()
	e := m.memDir.Get(a)
	if e == nil {
		e, _ = m.memDir.GetOrCreate(a)
		*e = memDirEntry{ownerChip: -1}
	}
	m.chips[chip].l2.Invalidate(a)
	m.chips[chip].dir.Delete(a)
	for lc := 0; lc < m.coresPerChip; lc++ {
		m.chips[chip].l1[lc].Invalidate(a)
	}
	e.ownerChip = chip
	e.stickyM = true
	m.stats.WritebacksToMem++
	m.stats.MemStickyM++
}

// MemDirOwner reports the memory directory's owner chip for a block
// (-1 if none); exposed for tests.
func (m *MultiChip) MemDirOwner(a addr.PAddr) (owner int, sticky bool) {
	if e := m.memDir.Get(a.Block()); e != nil {
		return e.ownerChip, e.stickyM
	}
	return -1, false
}

// MayBeInSignature forwards to the global hooks (diagnostics parity with
// the single-chip system).
func (m *MultiChip) MayBeInSignature(core int, a addr.PAddr) bool {
	return m.hooks.MayBeInSignature(core, a)
}

// InExactSet forwards to the global hooks.
func (m *MultiChip) InExactSet(core int, a addr.PAddr) bool {
	return m.hooks.InExactSet(core, a)
}
