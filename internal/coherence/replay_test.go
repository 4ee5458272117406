package coherence

import (
	"reflect"
	"testing"

	"logtmse/internal/addr"
	"logtmse/internal/cache"
	"logtmse/internal/sig"
)

// requireReplayMatchesWalk checks the contract ReplayNACK relies on for
// one NACK path. req must NACK with Version unchanged across its walk;
// the system is then forked: one copy re-walks req, the other replays
// it. Both must leave identical counters and an identical requester L1,
// LRU order included.
func requireReplayMatchesWalk(t *testing.T, s *System, req Request, wantBroadcast bool) {
	t.Helper()
	v0 := s.Version()
	first := s.Access(req)
	if !first.NACK {
		t.Fatalf("setup: request not NACKed: %+v", first)
	}
	if s.Version() != v0 {
		t.Fatalf("NACK changed the conflict-state version: %d -> %d", v0, s.Version())
	}
	if first.Broadcast != wantBroadcast {
		t.Errorf("Broadcast = %v, want %v", first.Broadcast, wantBroadcast)
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
	s.ReplayNACK(req, first.Broadcast)
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
		requireReplayMatchesWalk(t, s, wr(1, X), true)
	})
	t.Run("GETS forward", func(t *testing.T) {
		s, h := newTestSystem(t, Directory)
		s.Access(wr(0, 0x1000))
		h.add(0, 0, sig.Write, 0x1000)
		requireReplayMatchesWalk(t, s, rd(1, 0x1000), false)
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
		requireReplayMatchesWalk(t, s, rd(1, 0x1000), false)
	})
	t.Run("GETM invalidation upgrade", func(t *testing.T) {
		s, h := newTestSystem(t, Directory)
		s.Access(rd(0, 0x5000))
		s.Access(rd(1, 0x5000))
		s.Access(rd(0, 0x5000+setStride))
		h.add(1, 0, sig.Read, 0x5000)
		requireReplayMatchesWalk(t, s, wr(0, 0x5000), false)
	})
	t.Run("snoop", func(t *testing.T) {
		s, h := newTestSystem(t, Snoop)
		s.Access(rd(0, 0x1000))
		s.Access(rd(1, 0x1000))
		h.add(0, 0, sig.Read, 0x1000)
		requireReplayMatchesWalk(t, s, wr(1, 0x1000), true)
	})
}

// TestRebuildNACKBumpsVersion: the L2-miss rebuild creates the directory
// entry (and may evict others) before it NACKs, so its NACK must never
// look replayable; the check-all NACK after it changes nothing.
func TestRebuildNACKBumpsVersion(t *testing.T) {
	s, h := newTestSystem(t, Directory)
	X := addr.PAddr(0x4000)
	h.add(0, 0, sig.Write, X)
	v0 := s.Version()
	r := s.Access(wr(2, X))
	if !r.NACK || s.Stats().L2Misses != 1 {
		t.Fatalf("setup: want an L2-miss rebuild NACK, got %+v", r)
	}
	if s.Version() == v0 {
		t.Errorf("rebuild NACK left the version unchanged")
	}
	v1 := s.Version()
	if r := s.Access(wr(2, X)); !r.NACK || !r.Broadcast || s.Version() != v1 {
		t.Errorf("check-all NACK: %+v, version %d -> %d", r, v1, s.Version())
	}
}

// TestStateChangesBumpVersion covers the protocol's own bump sites on the
// success path and the out-of-band ones.
func TestStateChangesBumpVersion(t *testing.T) {
	s, _ := newTestSystem(t, Directory)
	bumps := func(name string, f func()) {
		t.Helper()
		v := s.Version()
		f()
		if s.Version() == v {
			t.Errorf("%s did not bump the version", name)
		}
	}
	bumps("L2-miss rebuild and grant", func() { s.Access(rd(0, 0x1000)) })
	bumps("E->M hit upgrade", func() { s.Access(wr(0, 0x1000)) })
	bumps("directory grant", func() { s.Access(rd(1, 0x1000)) })
	bumps("forced eviction", func() { s.ForceEvict(0, 0) })
	snap := s.Snapshot()
	bumps("restore", func() {
		if err := s.RestoreFrom(snap); err != nil {
			t.Fatal(err)
		}
	})
	bumps("reset", s.Reset)
	bumps("engine bump", s.BumpVersion)
	s.Access(rd(0, 0x2000))
	v := s.Version()
	s.Access(rd(0, 0x2000)) // a read hit changes nothing a NACK depends on
	if s.Version() != v {
		t.Errorf("read hit bumped the version")
	}
}

func TestReplayNACKZeroAlloc(t *testing.T) {
	s, _ := newTestSystem(t, Directory)
	req := rd(1, 0x1000)
	if n := testing.AllocsPerRun(100, func() { s.ReplayNACK(req, false) }); n != 0 {
		t.Errorf("ReplayNACK allocates %.1f per call", n)
	}
}
