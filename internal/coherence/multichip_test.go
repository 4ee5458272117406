package coherence

import (
	"testing"

	"logtmse/internal/addr"
	"logtmse/internal/cache"
	"logtmse/internal/network"
	"logtmse/internal/sig"
)

// globalStub adapts stubHooks to a multi-chip machine with global core
// numbering (8 cores over 4 chips).
func newMCSystem(t *testing.T) (*MultiChip, *stubHooks) {
	t.Helper()
	h := newStubHooks(8, 2)
	p := MultiChipParams{
		Params: Params{
			Cores:   8, // total; overridden per chip
			L1Bytes: 1024, L1Ways: 2,
			L2Bytes: 16 * 1024, L2Ways: 4, L2Banks: 2,
			L1HitLat: 1, L2Lat: 34, MemLat: 500, DirLat: 6, CheckLat: 1,
			Protocol: Directory,
			Grid:     network.New(2, 1, 3, 2, 2),
		},
		Chips: 4,
	}
	m, err := NewMultiChip(p, h)
	if err != nil {
		t.Fatal(err)
	}
	return m, h
}

func TestMultiChipConstruction(t *testing.T) {
	m, _ := newMCSystem(t)
	if m.Chips() != 4 {
		t.Errorf("chips = %d", m.Chips())
	}
	if m.ChipOf(0) != 0 || m.ChipOf(2) != 1 || m.ChipOf(7) != 3 {
		t.Errorf("core->chip mapping wrong")
	}
	h := newStubHooks(8, 2)
	if _, err := NewMultiChip(MultiChipParams{Params: Params{Cores: 8}, Chips: 1}, h); err == nil {
		t.Errorf("1-chip multi-chip accepted")
	}
	if _, err := NewMultiChip(MultiChipParams{Params: Params{Cores: 7}, Chips: 2}, h); err == nil {
		t.Errorf("non-divisible cores accepted")
	}
}

func TestCrossChipReadSharing(t *testing.T) {
	m, _ := newMCSystem(t)
	// Core 0 (chip 0) writes; core 2 (chip 1) reads.
	r1 := m.Access(wr(0, 0x1000))
	if r1.NACK {
		t.Fatalf("initial write NACKed")
	}
	r2 := m.Access(rd(2, 0x1000))
	if r2.NACK {
		t.Fatalf("cross-chip read NACKed")
	}
	if r2.Latency <= 100 {
		t.Errorf("cross-chip read latency %d too small for inter-chip hops", r2.Latency)
	}
	// Both chips now share; a local re-read is cheap.
	r3 := m.Access(rd(2, 0x1000))
	if r3.Latency != 1 {
		t.Errorf("local re-read latency = %d, want L1 hit", r3.Latency)
	}
	if owner, _ := m.MemDirOwner(0x1000); owner != -1 {
		t.Errorf("memory dir owner after downgrade = %d, want -1", owner)
	}
}

func TestCrossChipWriteInvalidates(t *testing.T) {
	m, _ := newMCSystem(t)
	m.Access(rd(0, 0x2000)) // chip 0
	m.Access(rd(2, 0x2000)) // chip 1
	m.Access(rd(4, 0x2000)) // chip 2
	r := m.Access(wr(6, 0x2000))
	if r.NACK {
		t.Fatalf("cross-chip write NACKed")
	}
	// All other chips must have lost their copies.
	for _, core := range []int{0, 2, 4} {
		chip := m.Chip(m.ChipOf(core))
		if st := chip.L1(core % 2).Peek(0x2000); st != cache.Invalid {
			t.Errorf("core %d still caches the block: %v", core, st)
		}
	}
	if owner, _ := m.MemDirOwner(0x2000); owner != 3 {
		t.Errorf("memory dir owner = %d, want chip 3", owner)
	}
	// The writer's next write is chip-local.
	r2 := m.Access(wr(6, 0x2000))
	if r2.Latency != 1 {
		t.Errorf("owned re-write latency = %d", r2.Latency)
	}
}

func TestCrossChipConflictNACKed(t *testing.T) {
	m, h := newMCSystem(t)
	m.Access(wr(0, 0x3000))        // chip 0 owns
	h.add(0, 0, sig.Write, 0x3000) // core 0 thread 0 holds it transactionally
	r := m.Access(rd(2, 0x3000))   // chip 1 read must reach chip 0's signature
	if !r.NACK {
		t.Fatalf("cross-chip conflicting read not NACKed")
	}
	if len(r.Nackers) == 0 || r.Nackers[0].Core != 0 {
		t.Errorf("nackers = %+v", r.Nackers)
	}
	// After "commit" the read proceeds.
	h.writeSet = map[[2]int]map[addr.PAddr]bool{}
	if r2 := m.Access(rd(2, 0x3000)); r2.NACK {
		t.Errorf("read NACKed after commit")
	}
}

func TestSameChipStaysLocal(t *testing.T) {
	m, _ := newMCSystem(t)
	m.Access(wr(0, 0x4000)) // chip 0: cores 0,1
	before := m.Stats().InterChipMsgs
	r := m.Access(rd(1, 0x4000)) // same chip
	if r.NACK {
		t.Fatalf("same-chip read NACKed")
	}
	// The chip already had exclusive rights; no inter-chip traffic for
	// the second access.
	if got := m.Stats().InterChipMsgs; got != before {
		t.Errorf("same-chip access crossed chips: %d -> %d", before, got)
	}
}

func TestStickyMAtMemoryDirectory(t *testing.T) {
	m, h := newMCSystem(t)
	m.Access(wr(0, 0x5000))
	h.add(0, 0, sig.Write, 0x5000)
	// The chip's L2 victimizes the transactionally modified block: data
	// written back, memory directory goes sticky-M for chip 0.
	m.VictimizeL2(0, 0x5000)
	if owner, sticky := m.MemDirOwner(0x5000); owner != 0 || !sticky {
		t.Fatalf("memory dir = (%d,%v), want sticky chip 0", owner, sticky)
	}
	if m.Stats().MemStickyM != 1 {
		t.Errorf("MemStickyM = %d", m.Stats().MemStickyM)
	}
	// A conflicting access from another chip must still be forwarded to
	// chip 0's signatures and NACKed.
	r := m.Access(rd(2, 0x5000))
	if !r.NACK {
		t.Errorf("sticky-M at memory failed to preserve isolation")
	}
	// Even the owning chip's own cores are re-checked through their
	// local path: core 1 shares chip 0's L1? It was invalidated, so its
	// read refetches — and core 0's signature NACKs via the local
	// directory rebuild broadcast.
	rLocal := m.Access(Request{Core: 1, Thread: 0, Op: sig.Read, Addr: 0x5000, Timestamp: 42 << 8})
	if !rLocal.NACK {
		t.Errorf("same-chip access after victimization missed the conflict")
	}
	// After commit everything flows again.
	h.writeSet = map[[2]int]map[addr.PAddr]bool{}
	if r2 := m.Access(rd(2, 0x5000)); r2.NACK {
		t.Errorf("read NACKed after commit")
	}
}

func TestMultiChipStatsAggregate(t *testing.T) {
	m, _ := newMCSystem(t)
	m.Access(wr(0, 0x100))
	m.Access(rd(2, 0x100))
	st := m.Stats()
	if st.Loads == 0 || st.Stores == 0 {
		t.Errorf("per-chip stats not aggregated: %+v", st)
	}
	if st.InterChipMsgs == 0 {
		t.Errorf("no inter-chip messages counted")
	}
	m.Reset()
	st = m.Stats()
	if st.Loads != 0 || st.InterChipMsgs != 0 {
		t.Errorf("Reset left counters: %+v", st)
	}
}

func TestWriteNeedsExclusiveAcrossChips(t *testing.T) {
	m, _ := newMCSystem(t)
	m.Access(rd(0, 0x6000)) // chip 0 shares
	m.Access(rd(2, 0x6000)) // chip 1 shares
	before := m.Stats().InterChipMsgs
	// Chip 0 upgrading to write must go through the memory directory
	// even though it has a shared copy.
	r := m.Access(wr(0, 0x6000))
	if r.NACK {
		t.Fatalf("upgrade NACKed")
	}
	if m.Stats().InterChipMsgs == before {
		t.Errorf("upgrade with remote sharers did not cross chips")
	}
	if st := m.Chip(1).L1(0).Peek(0x6000); st != cache.Invalid {
		t.Errorf("remote sharer survived upgrade: %v", st)
	}
}
