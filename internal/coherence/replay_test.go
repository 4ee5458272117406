package coherence

import (
	"reflect"
	"testing"

	"logtmse/internal/addr"
	"logtmse/internal/cache"
	"logtmse/internal/sig"
)

// requireReplayMatchesWalk checks the contract ReplayCharge relies on for
// one NACK path. req must NACK with no stamp advanced across its walk,
// and NACKShape must name the cores the walk checked — covering every
// NACKer's — and whether it counted an upgrade; the system is then
// forked: one copy re-walks req, the other replays it. Both must leave
// identical counters and an identical requester L1, LRU order included.
func requireReplayMatchesWalk(t *testing.T, s *System, req Request, wantBroadcast bool, wantChecked uint64) {
	t.Helper()
	touches, epoch, upgrades := s.Touches(), s.Epoch(), s.Stats().Upgrades
	first := s.Access(req)
	if !first.NACK {
		t.Fatalf("setup: request not NACKed: %+v", first)
	}
	if s.Touches() != touches || s.Epoch() != epoch {
		t.Fatalf("NACK advanced a block stamp or the epoch")
	}
	if first.Broadcast != wantBroadcast {
		t.Errorf("Broadcast = %v, want %v", first.Broadcast, wantBroadcast)
	}
	checked, upgrade := s.NACKShape(req, first.Broadcast)
	if checked != wantChecked {
		t.Errorf("checked = %b, want %b", checked, wantChecked)
	}
	for _, n := range first.Nackers {
		if checked&(1<<uint(n.Core)) == 0 {
			t.Errorf("NACKer core %d outside the checked mask %b", n.Core, checked)
		}
	}
	if counted := s.Stats().Upgrades != upgrades; upgrade != counted {
		t.Errorf("NACKShape upgrade = %v, but the walk counted an upgrade: %v", upgrade, counted)
	}
	nackers := append([]Nacker(nil), first.Nackers...)
	fork := s.Snapshot()

	walk := s.Access(req)
	if !walk.NACK || walk.Broadcast != first.Broadcast || !reflect.DeepEqual(walk.Nackers, nackers) {
		t.Fatalf("unchanged retry walked to a different outcome: %+v vs %+v", walk, first)
	}
	walkStats, walkL1 := s.Stats(), s.L1(req.Core).Snapshot()

	if err := s.RestoreFrom(fork); err != nil {
		t.Fatal(err)
	}
	charge := s.ReplayCharge(req, first.Broadcast, upgrade)
	charge.Apply()
	if got := s.Stats(); got != walkStats {
		t.Errorf("replay counters differ from the walk:\nreplay %+v\nwalk   %+v", got, walkStats)
	}
	if got := s.L1(req.Core).Snapshot(); !reflect.DeepEqual(got, walkL1) {
		t.Errorf("replay left the requester's L1 (LRU order) different from the walk")
	}
}

func TestReplayNACKMatchesWalk(t *testing.T) {
	setStride := addr.PAddr(8 * 64) // the tiny test L1: 8 sets
	t.Run("check-all broadcast upgrade", func(t *testing.T) {
		s, h := newTestSystem(t, Directory)
		X := addr.PAddr(0x3000)
		h.add(0, 0, sig.Read, X) // signature-only coverage: rebuild stays check-all
		if r := s.Access(rd(1, X)); r.NACK {
			t.Fatalf("setup: read NACKed")
		}
		s.Access(rd(1, X+setStride)) // a second line in the set, so LRU order matters
		requireReplayMatchesWalk(t, s, wr(1, X), true, 0b1111)
	})
	t.Run("GETS forward", func(t *testing.T) {
		s, h := newTestSystem(t, Directory)
		s.Access(wr(0, 0x1000))
		h.add(0, 0, sig.Write, 0x1000)
		requireReplayMatchesWalk(t, s, rd(1, 0x1000), false, 0b0001)
	})
	t.Run("GETS forward to sticky owner", func(t *testing.T) {
		s, h := newTestSystem(t, Directory)
		s.Access(wr(0, 0x1000))
		h.add(0, 0, sig.Write, 0x1000)
		s.Access(wr(0, 0x1000+1*setStride))
		s.Access(wr(0, 0x1000+2*setStride))
		if s.L1(0).Peek(0x1000) != cache.Invalid || s.DirOwner(0x1000) != 0 {
			t.Fatalf("setup: block not a sticky owner's")
		}
		requireReplayMatchesWalk(t, s, rd(1, 0x1000), false, 0b0001)
	})
	t.Run("GETM invalidation upgrade", func(t *testing.T) {
		s, h := newTestSystem(t, Directory)
		s.Access(rd(0, 0x5000))
		s.Access(rd(1, 0x5000))
		s.Access(rd(0, 0x5000+setStride))
		h.add(1, 0, sig.Read, 0x5000)
		s.Access(rd(2, 0x5000)) // a sharer that does not NACK is still checked
		requireReplayMatchesWalk(t, s, wr(0, 0x5000), false, 0b0110)
	})
	t.Run("snoop", func(t *testing.T) {
		s, h := newTestSystem(t, Snoop)
		s.Access(rd(0, 0x1000))
		s.Access(rd(1, 0x1000))
		h.add(0, 0, sig.Read, 0x1000)
		requireReplayMatchesWalk(t, s, wr(1, 0x1000), true, 0b1111)
	})
}

// TestRebuildNACKBumpsVersion: the L2-miss rebuild creates the directory
// entry (and may evict others) before it NACKs, so its NACK must never
// look replayable — it advances the block's stamp; the check-all NACK
// after it changes nothing.
func TestRebuildNACKBumpsVersion(t *testing.T) {
	s, h := newTestSystem(t, Directory)
	X := addr.PAddr(0x4000)
	h.add(0, 0, sig.Write, X)
	b0 := s.BlockStamp(X)
	r := s.Access(wr(2, X))
	if !r.NACK || s.Stats().L2Misses != 1 {
		t.Fatalf("setup: want an L2-miss rebuild NACK, got %+v", r)
	}
	if s.BlockStamp(X) == b0 {
		t.Errorf("rebuild NACK left the block stamp unchanged")
	}
	b1 := s.BlockStamp(X)
	if r := s.Access(wr(2, X)); !r.NACK || !r.Broadcast || s.BlockStamp(X) != b1 {
		t.Errorf("check-all NACK: %+v, stamp %d -> %d", r, b1, s.BlockStamp(X))
	}
}

// TestStateChangesBumpVersion covers the protocol's own stamp sites on
// the success path and the out-of-band ones: each must advance the
// stamp of the block whose directory entry or L1 line it changed, or
// the epoch.
func TestStateChangesBumpVersion(t *testing.T) {
	s, _ := newTestSystem(t, Directory)
	stamps := func(name string, a addr.PAddr, f func()) {
		t.Helper()
		b := s.BlockStamp(a)
		f()
		if s.BlockStamp(a) == b {
			t.Errorf("%s did not advance the stamp of %#x", name, a)
		}
	}
	epochs := func(name string, f func()) {
		t.Helper()
		e := s.Epoch()
		f()
		if s.Epoch() == e {
			t.Errorf("%s did not advance the epoch", name)
		}
	}
	const X, l1Set, l2Set = addr.PAddr(0x1000), addr.PAddr(8 * 64), addr.PAddr(64 * 64)
	stamps("L2-miss rebuild and grant", X, func() { s.Access(rd(0, X)) })
	stamps("E->M hit upgrade", X, func() { s.Access(wr(0, X)) })
	stamps("GETS downgrade of the owner", X, func() { s.Access(rd(1, X)) })
	stamps("GETM invalidation of the sharers", X, func() { s.Access(wr(2, X)) })
	stamps("L1 victimization", X, func() { // core 2's 2-way set fills past X
		s.Access(rd(2, X+l1Set))
		s.Access(rd(2, X+2*l1Set))
	})
	stamps("L2 victimization", X, func() { // the 4-way L2 set fills past X
		for i := addr.PAddr(1); i <= 4; i++ {
			s.Access(rd(3, X+i*l2Set))
		}
	})
	if s.HasDirEntry(X) {
		t.Fatalf("setup: X survived its L2 set filling up")
	}
	s.Access(rd(0, 0x3000))
	stamps("forced eviction", 0x3000, func() {
		if a, ok := s.ForceEvict(0, 0); !ok || a != 0x3000 {
			t.Fatalf("ForceEvict evicted %#x, %v", a, ok)
		}
	})
	snap := s.Snapshot()
	epochs("restore", func() {
		if err := s.RestoreFrom(snap); err != nil {
			t.Fatal(err)
		}
	})
	epochs("reset", s.Reset)
	epochs("engine bump", s.BumpEpoch)
	s.Access(rd(0, 0x2000))
	b, e := s.BlockStamp(0x2000), s.Epoch()
	s.Access(rd(0, 0x2000)) // a read hit changes nothing a NACK depends on
	if s.BlockStamp(0x2000) != b || s.Epoch() != e {
		t.Errorf("read hit advanced the stamp or epoch")
	}
}

func TestReplayNACKZeroAlloc(t *testing.T) {
	s, _ := newTestSystem(t, Directory)
	req := rd(1, 0x1000)
	if n := testing.AllocsPerRun(100, func() {
		c := s.ReplayCharge(req, false, false)
		c.Apply()
	}); n != 0 {
		t.Errorf("a replayed NACK's charge allocates %.1f per call", n)
	}
}
