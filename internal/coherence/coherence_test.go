package coherence

import (
	"testing"

	"logtmse/internal/addr"
	"logtmse/internal/cache"
	"logtmse/internal/network"
	"logtmse/internal/sig"
)

// stubHooks gives each (core, thread) an exact read/write set so tests can
// stage conflicts precisely.
type stubHooks struct {
	cores    int
	threads  int
	readSet  map[[2]int]map[addr.PAddr]bool
	writeSet map[[2]int]map[addr.PAddr]bool
	checks   int
}

func newStubHooks(cores, threads int) *stubHooks {
	return &stubHooks{
		cores: cores, threads: threads,
		readSet:  make(map[[2]int]map[addr.PAddr]bool),
		writeSet: make(map[[2]int]map[addr.PAddr]bool),
	}
}

func (h *stubHooks) add(core, thread int, op sig.Op, a addr.PAddr) {
	k := [2]int{core, thread}
	m := h.writeSet
	if op == sig.Read {
		m = h.readSet
	}
	if m[k] == nil {
		m[k] = make(map[addr.PAddr]bool)
	}
	m[k][a.Block()] = true
}

func (h *stubHooks) SignatureCheck(targetCore int, req Request) []Nacker {
	h.checks++
	var ns []Nacker
	for th := 0; th < h.threads; th++ {
		if targetCore == req.Core && th == req.Thread {
			continue
		}
		k := [2]int{targetCore, th}
		conflict := h.writeSet[k][req.Addr] ||
			(req.Op == sig.Write && h.readSet[k][req.Addr])
		if conflict {
			ns = append(ns, Nacker{Core: targetCore, Thread: th, Timestamp: 1})
		}
	}
	return ns
}

func (h *stubHooks) MayBeInSignature(core int, a addr.PAddr) bool {
	for th := 0; th < h.threads; th++ {
		k := [2]int{core, th}
		if h.readSet[k][a.Block()] || h.writeSet[k][a.Block()] {
			return true
		}
	}
	return false
}

func (h *stubHooks) SignatureMember(core int, req Request) bool {
	for th := 0; th < h.threads; th++ {
		if core == req.Core && th == req.Thread {
			continue
		}
		k := [2]int{core, th}
		if h.readSet[k][req.Addr] || h.writeSet[k][req.Addr] {
			return true
		}
	}
	return false
}

func (h *stubHooks) InExactSet(core int, a addr.PAddr) bool {
	return h.MayBeInSignature(core, a)
}

func testParams(proto Protocol) Params {
	return Params{
		Cores:   4,
		L1Bytes: 1024, L1Ways: 2, // tiny L1: 8 sets, forces victimization
		L2Bytes: 16 * 1024, L2Ways: 4, L2Banks: 4,
		L1HitLat: 1, L2Lat: 34, MemLat: 500, DirLat: 6, CheckLat: 1,
		Protocol: proto,
		Grid:     network.New(2, 2, 3, 4, 4),
	}
}

func newTestSystem(t *testing.T, proto Protocol) (*System, *stubHooks) {
	t.Helper()
	h := newStubHooks(4, 2)
	s, err := NewSystem(testParams(proto), h)
	if err != nil {
		t.Fatal(err)
	}
	return s, h
}

func rd(core int, a addr.PAddr) Request {
	return Request{Core: core, Op: sig.Read, Addr: a, Timestamp: 10}
}
func wr(core int, a addr.PAddr) Request {
	return Request{Core: core, Op: sig.Write, Addr: a, Timestamp: 10}
}

func TestConstructionErrors(t *testing.T) {
	h := newStubHooks(4, 2)
	if _, err := NewSystem(testParams(Directory), nil); err == nil {
		t.Errorf("nil hooks accepted")
	}
	p := testParams(Directory)
	p.Cores = 0
	if _, err := NewSystem(p, h); err == nil {
		t.Errorf("zero cores accepted")
	}
	p = testParams(Directory)
	p.Grid = nil
	if _, err := NewSystem(p, h); err == nil {
		t.Errorf("nil grid accepted")
	}
	p = testParams(Directory)
	p.L1Bytes = 7
	if _, err := NewSystem(p, h); err == nil {
		t.Errorf("bad L1 geometry accepted")
	}
}

func TestColdMissThenHit(t *testing.T) {
	s, _ := newTestSystem(t, Directory)
	r1 := s.Access(rd(0, 0x1000))
	if r1.NACK {
		t.Fatalf("cold read NACKed")
	}
	if r1.Latency <= 500 {
		t.Errorf("cold miss latency %d should include memory (500)", r1.Latency)
	}
	r2 := s.Access(rd(0, 0x1000))
	if r2.Latency != 1 {
		t.Errorf("second read latency = %d, want L1 hit (1)", r2.Latency)
	}
	st := s.Stats()
	if st.L1Hits != 1 || st.L2Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestExclusiveGrantOnSoleReader(t *testing.T) {
	s, _ := newTestSystem(t, Directory)
	s.Access(rd(0, 0x1000))
	if got := s.L1(0).Peek(0x1000); got != cache.Exclusive {
		t.Errorf("sole reader state = %v, want E", got)
	}
	// A second reader downgrades to Shared.
	s.Access(rd(1, 0x1000))
	if got := s.L1(0).Peek(0x1000); got != cache.Shared {
		t.Errorf("first reader after second read = %v, want S", got)
	}
	if got := s.L1(1).Peek(0x1000); got != cache.Shared {
		t.Errorf("second reader = %v, want S", got)
	}
}

func TestSilentUpgradeEtoM(t *testing.T) {
	s, _ := newTestSystem(t, Directory)
	s.Access(rd(0, 0x1000))
	r := s.Access(wr(0, 0x1000))
	if r.NACK || r.Latency != 1 {
		t.Errorf("E->M upgrade should be a local hit: %+v", r)
	}
	if got := s.L1(0).Peek(0x1000); got != cache.Modified {
		t.Errorf("state = %v, want M", got)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	s, _ := newTestSystem(t, Directory)
	s.Access(rd(0, 0x1000))
	s.Access(rd(1, 0x1000))
	s.Access(rd(2, 0x1000))
	r := s.Access(wr(3, 0x1000))
	if r.NACK {
		t.Fatalf("non-conflicting write NACKed")
	}
	for c := 0; c < 3; c++ {
		if got := s.L1(c).Peek(0x1000); got != cache.Invalid {
			t.Errorf("sharer %d state = %v, want I", c, got)
		}
	}
	if got := s.L1(3).Peek(0x1000); got != cache.Modified {
		t.Errorf("writer state = %v, want M", got)
	}
}

func TestReadOfModifiedForwardsAndWritesBack(t *testing.T) {
	s, _ := newTestSystem(t, Directory)
	s.Access(wr(0, 0x1000))
	before := s.Stats().WritebacksToMem
	r := s.Access(rd(1, 0x1000))
	if r.NACK {
		t.Fatalf("read of modified NACKed")
	}
	if s.Stats().Forwards == 0 {
		t.Errorf("no forward recorded")
	}
	if s.Stats().WritebacksToMem != before+1 {
		t.Errorf("M downgrade should write back")
	}
	if got := s.L1(0).Peek(0x1000); got != cache.Shared {
		t.Errorf("old owner = %v, want S", got)
	}
}

func TestConflictingReadIsNACKed(t *testing.T) {
	s, h := newTestSystem(t, Directory)
	// Core 0 thread 0 wrote 0x1000 transactionally.
	s.Access(wr(0, 0x1000))
	h.add(0, 0, sig.Write, 0x1000)
	r := s.Access(rd(1, 0x1000))
	if !r.NACK {
		t.Fatalf("conflicting read not NACKed")
	}
	if len(r.Nackers) != 1 || r.Nackers[0].Core != 0 {
		t.Errorf("nackers = %+v", r.Nackers)
	}
	// NACK must not change state: requester has no copy.
	if got := s.L1(1).Peek(0x1000); got != cache.Invalid {
		t.Errorf("requester got a copy despite NACK: %v", got)
	}
	if s.Stats().NACKs != 1 {
		t.Errorf("NACKs = %d", s.Stats().NACKs)
	}
}

func TestConflictingWriteAgainstReadSetIsNACKed(t *testing.T) {
	s, h := newTestSystem(t, Directory)
	s.Access(rd(0, 0x2000))
	h.add(0, 0, sig.Read, 0x2000)
	r := s.Access(wr(1, 0x2000))
	if !r.NACK {
		t.Fatalf("write conflicting with read-set not NACKed")
	}
	// Reads do not conflict with a remote read-set.
	r2 := s.Access(rd(2, 0x2000))
	if r2.NACK {
		t.Errorf("read/read false conflict")
	}
}

func TestStickyOwnerStillChecked(t *testing.T) {
	s, h := newTestSystem(t, Directory)
	// Core 0 writes 0x1000 transactionally, then the block is evicted
	// from its (tiny) L1 by conflicting-set fills.
	s.Access(wr(0, 0x1000))
	h.add(0, 0, sig.Write, 0x1000)
	// The L1 has 8 sets x 2 ways; fill set of 0x1000 with two other blocks.
	setStride := addr.PAddr(8 * 64)
	s.Access(wr(0, 0x1000+1*setStride))
	s.Access(wr(0, 0x1000+2*setStride))
	if s.L1(0).Peek(0x1000) != cache.Invalid {
		t.Fatalf("test setup: block not evicted")
	}
	// Sticky state: directory still points at core 0.
	if got := s.DirOwner(0x1000); got != 0 {
		t.Fatalf("directory owner = %d, want sticky 0", got)
	}
	if s.Stats().StickyEvicts == 0 {
		t.Errorf("sticky eviction not recorded")
	}
	// A conflicting read must still be forwarded to core 0 and NACKed.
	r := s.Access(rd(1, 0x1000))
	if !r.NACK {
		t.Errorf("victimized transactional block no longer isolated")
	}
	// After the transaction "commits" (signature cleared), the sticky
	// pointer lazily resolves.
	h.writeSet = map[[2]int]map[addr.PAddr]bool{}
	r2 := s.Access(rd(1, 0x1000))
	if r2.NACK {
		t.Fatalf("read NACKed after commit")
	}
	if got := s.DirOwner(0x1000); got == 0 {
		t.Errorf("sticky pointer not cleaned up after successful request")
	}
}

func TestNonTransactionalEvictionUpdatesDirectory(t *testing.T) {
	s, _ := newTestSystem(t, Directory)
	s.Access(wr(0, 0x1000)) // M, not transactional
	setStride := addr.PAddr(8 * 64)
	s.Access(wr(0, 0x1000+1*setStride))
	s.Access(wr(0, 0x1000+2*setStride))
	if s.L1(0).Peek(0x1000) != cache.Invalid {
		t.Fatalf("test setup: block not evicted")
	}
	if got := s.DirOwner(0x1000); got != -1 {
		t.Errorf("directory owner after clean M eviction = %d, want -1", got)
	}
}

func TestL2EvictionForcesRebuildBroadcast(t *testing.T) {
	s, h := newTestSystem(t, Directory)
	// Touch enough distinct blocks to overflow the 16KB/4-way L2
	// (256 lines); then the first block's directory entry is gone.
	first := addr.PAddr(0x4000)
	s.Access(rd(0, first))
	h.add(0, 0, sig.Read, first) // transactional read survives in signature
	for i := 1; i <= 4096; i++ {
		s.Access(rd(1, first+addr.PAddr(i*64)))
	}
	if s.HasDirEntry(first) {
		t.Fatalf("test setup: L2 entry survived %d fills", 4096)
	}
	if s.Stats().L2TxVictims == 0 {
		t.Errorf("transactional L2 victimization not counted")
	}
	bBefore := s.Stats().Broadcasts
	// A write by core 2 misses in L2; must broadcast so core 0's
	// signature is still checked — and NACK.
	r := s.Access(wr(2, first))
	if s.Stats().Broadcasts == bBefore {
		t.Errorf("L2 miss did not broadcast for signature rebuild")
	}
	if !r.NACK {
		t.Errorf("conflict missed after L2 victimization")
	}
	// While the rebuilt entry is in check-all state, even a
	// non-conflicting-looking request re-broadcasts.
	bMid := s.Stats().Broadcasts
	r2 := s.Access(wr(2, first))
	if s.Stats().Broadcasts != bMid+1 {
		t.Errorf("check-all state did not re-broadcast")
	}
	if !r2.NACK {
		t.Errorf("second conflicting request not NACKed")
	}
	// Once the signature clears, the request succeeds and the entry
	// leaves check-all state.
	h.readSet = map[[2]int]map[addr.PAddr]bool{}
	h.writeSet = map[[2]int]map[addr.PAddr]bool{}
	if r3 := s.Access(wr(2, first)); r3.NACK {
		t.Fatalf("request still NACKed after signatures cleared")
	}
	bAfter := s.Stats().Broadcasts
	s.Access(rd(3, first))
	if s.Stats().Broadcasts != bAfter {
		t.Errorf("entry did not leave check-all state after success")
	}
}

func TestSMTSiblingCheckedOnOwnCoreRequest(t *testing.T) {
	s, h := newTestSystem(t, Directory)
	// Thread (0,1) has 0x3000 in its write set; directory has a sticky
	// pointer at core 0 after eviction. A request by thread (0,0) on the
	// same core must still be NACKed by the sibling.
	s.Access(Request{Core: 0, Thread: 1, Op: sig.Write, Addr: 0x3000, Timestamp: 5})
	h.add(0, 1, sig.Write, 0x3000)
	setStride := addr.PAddr(8 * 64)
	s.Access(Request{Core: 0, Thread: 1, Op: sig.Write, Addr: 0x3000 + setStride, Timestamp: 5})
	s.Access(Request{Core: 0, Thread: 1, Op: sig.Write, Addr: 0x3000 + 2*setStride, Timestamp: 5})
	if s.L1(0).Peek(0x3000) != cache.Invalid {
		t.Fatalf("setup: block still cached")
	}
	r := s.Access(Request{Core: 0, Thread: 0, Op: sig.Read, Addr: 0x3000, Timestamp: 9})
	if !r.NACK {
		t.Errorf("sibling SMT conflict missed via sticky forward to own core")
	}
	if len(r.Nackers) > 0 && (r.Nackers[0].Core != 0 || r.Nackers[0].Thread != 1) {
		t.Errorf("nacker = %+v, want core 0 thread 1", r.Nackers[0])
	}
}

func TestSnoopProtocolDetectsConflictWithoutSticky(t *testing.T) {
	s, h := newTestSystem(t, Snoop)
	s.Access(wr(0, 0x1000))
	h.add(0, 0, sig.Write, 0x1000)
	// Evict from core 0's L1 — with snooping no sticky state is needed.
	setStride := addr.PAddr(8 * 64)
	s.Access(wr(0, 0x1000+1*setStride))
	s.Access(wr(0, 0x1000+2*setStride))
	r := s.Access(rd(1, 0x1000))
	if !r.NACK {
		t.Errorf("snoop protocol missed conflict after eviction")
	}
	if s.Stats().Broadcasts == 0 {
		t.Errorf("snoop protocol did not broadcast")
	}
}

func TestSnoopBasicSharing(t *testing.T) {
	s, _ := newTestSystem(t, Snoop)
	s.Access(wr(0, 0x1000))
	r := s.Access(rd(1, 0x1000))
	if r.NACK {
		t.Fatalf("non-conflicting snoop read NACKed")
	}
	if got := s.L1(0).Peek(0x1000); got != cache.Shared {
		t.Errorf("old owner = %v, want S", got)
	}
	r2 := s.Access(wr(2, 0x1000))
	if r2.NACK {
		t.Fatalf("snoop write NACKed")
	}
	if s.L1(0).Peek(0x1000) != cache.Invalid || s.L1(1).Peek(0x1000) != cache.Invalid {
		t.Errorf("snoop write did not invalidate old copies")
	}
}

func TestUpgradeFromSharedChecksOtherSharers(t *testing.T) {
	s, h := newTestSystem(t, Directory)
	s.Access(rd(0, 0x5000))
	s.Access(rd(1, 0x5000))
	h.add(1, 0, sig.Read, 0x5000)
	// Core 0 upgrades S->M: must be NACKed by core 1's read set.
	r := s.Access(wr(0, 0x5000))
	if !r.NACK {
		t.Errorf("upgrade ignored remote read-set conflict")
	}
	if s.Stats().Upgrades != 1 {
		t.Errorf("Upgrades = %d", s.Stats().Upgrades)
	}
	// After core 1 commits, the upgrade proceeds and invalidates it.
	h.readSet = map[[2]int]map[addr.PAddr]bool{}
	r2 := s.Access(wr(0, 0x5000))
	if r2.NACK {
		t.Fatalf("upgrade failed after commit")
	}
	if s.L1(1).Peek(0x5000) != cache.Invalid {
		t.Errorf("sharer not invalidated on upgrade")
	}
}

func TestResetClearsStats(t *testing.T) {
	s, _ := newTestSystem(t, Directory)
	s.Access(rd(0, 0x100))
	s.Reset()
	if s.Stats() != (Stats{}) {
		t.Errorf("Reset left %+v", s.Stats())
	}
}

func TestProtocolString(t *testing.T) {
	if Directory.String() != "directory" || Snoop.String() != "snoop" {
		t.Errorf("protocol strings wrong")
	}
}

func TestFreshSystemAccessors(t *testing.T) {
	s, _ := newTestSystem(t, Directory)
	if s.L2() == nil {
		t.Errorf("L2 accessor nil")
	}
	if s.DirOwner(0xdead00) != -1 {
		t.Errorf("DirOwner of untracked block != -1")
	}
}

func TestMultiChipHookPassthrough(t *testing.T) {
	m, h := newMCSystem(t)
	h.add(1, 0, sig.Write, 0x7000) // core 1 = chip 0 local core 1
	if !m.MayBeInSignature(1, 0x7000) {
		t.Errorf("MayBeInSignature passthrough failed")
	}
	if !m.InExactSet(1, 0x7000) {
		t.Errorf("InExactSet passthrough failed")
	}
	if m.MayBeInSignature(2, 0x7000) {
		t.Errorf("wrong core matched")
	}
	if owner, sticky := m.MemDirOwner(0xbeef00); owner != -1 || sticky {
		t.Errorf("untracked MemDirOwner = %d,%v", owner, sticky)
	}
}
