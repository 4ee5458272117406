package core

import (
	"testing"

	"logtmse/internal/addr"
	"logtmse/internal/sig"
)

// abBaWorkload spawns the classic AB-BA conflict pair plus a shared
// counter workload and returns the system for inspection.
func abBaWorkload(t *testing.T, p Params) *System {
	t.Helper()
	s := newSys(t, p)
	pt := s.NewPageTable(1)
	A, B := addr.VAddr(0xa000), addr.VAddr(0xb000)
	s.SpawnOn(0, 0, "t1", 1, pt, func(a *API) {
		for i := 0; i < 5; i++ {
			a.Transaction(func() {
				a.Store(A, a.Load(A)+1)
				a.Compute(1500)
				a.Store(B, a.Load(B)+1)
			})
		}
	})
	s.SpawnOn(1, 0, "t2", 1, pt, func(a *API) {
		for i := 0; i < 5; i++ {
			a.Transaction(func() {
				a.Store(B, a.Load(B)+100)
				a.Compute(1500)
				a.Store(A, a.Load(A)+100)
			})
		}
	})
	mustRun(t, s)
	pa := pt.Translate(A)
	pb := pt.Translate(B)
	if va, vb := s.Mem.ReadWord(pa), s.Mem.ReadWord(pb); va != 505 || vb != 505 {
		t.Errorf("A=%d B=%d, want 505/505 under policy %v", va, vb, p.Resolution)
	}
	return s
}

func TestResolutionPolicies(t *testing.T) {
	for _, pol := range []Resolution{ResolveStallAbort, ResolveRequesterAborts, ResolveYoungerAborts} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			t.Parallel()
			p := smallParams()
			p.Resolution = pol
			s := abBaWorkload(t, p)
			st := s.Stats()
			if st.Commits != 10 {
				t.Errorf("commits = %d", st.Commits)
			}
			if pol == ResolveRequesterAborts && st.Stalls != st.Aborts {
				// Abort-always: every transactional NACK aborts.
				t.Errorf("abort-always: stalls %d != aborts %d", st.Stalls, st.Aborts)
			}
			if pol == ResolveStallAbort && st.Aborts > st.Stalls {
				t.Errorf("stall-abort should mostly stall: %d aborts vs %d stalls", st.Aborts, st.Stalls)
			}
		})
	}
}

func TestResolutionString(t *testing.T) {
	if ResolveStallAbort.String() != "stall-abort" ||
		ResolveRequesterAborts.String() != "requester-aborts" ||
		ResolveYoungerAborts.String() != "younger-aborts" {
		t.Errorf("policy strings wrong")
	}
	if Resolution(9).String() == "" {
		t.Errorf("unknown policy has empty string")
	}
}

func TestYoungerAbortsOlderWins(t *testing.T) {
	// With timestamp priority, the younger of two conflicting
	// transactions aborts even without a deadlock cycle: a pure
	// write-write collision suffices.
	p := smallParams()
	p.Resolution = ResolveYoungerAborts
	s := newSys(t, p)
	pt := s.NewPageTable(1)
	X := addr.VAddr(0xc000)
	s.SpawnOn(0, 0, "old", 1, pt, func(a *API) {
		a.Transaction(func() {
			a.FetchAdd(X, 1)
			a.Compute(4000)
		})
	})
	s.SpawnOn(1, 0, "young", 1, pt, func(a *API) {
		a.Compute(500) // begins later => younger
		a.Transaction(func() {
			a.FetchAdd(X, 10)
		})
	})
	mustRun(t, s)
	st := s.Stats()
	if st.Aborts == 0 {
		t.Errorf("younger transaction should have aborted")
	}
	if got := s.Mem.ReadWord(pt.Translate(X)); got != 11 {
		t.Errorf("X = %d, want 11", got)
	}
}

func TestSigBackupReducesNestedBeginCost(t *testing.T) {
	run := func(backups int) uint64 {
		p := smallParams()
		p.Signature = sig.Config{Kind: sig.KindBitSelect, Bits: 2048}
		p.SigBackupCopies = backups
		s := newSys(t, p)
		pt := s.NewPageTable(1)
		s.SpawnOn(0, 0, "t", 1, pt, func(a *API) {
			for i := 0; i < 50; i++ {
				a.Transaction(func() {
					a.Store(0x1000, 1)
					a.Transaction(func() { // nested: save/restore point
						a.Store(0x2000, 2)
					})
				})
			}
		})
		mustRun(t, s)
		return uint64(s.Stats().Cycles)
	}
	without := run(0)
	with := run(4)
	if with >= without {
		t.Errorf("backup signatures did not reduce cycles: %d vs %d", with, without)
	}
	// 50 nested begins x (2*2048/256) = 800 cycles expected difference.
	if without-with < 400 {
		t.Errorf("backup saving too small: %d cycles", without-with)
	}
}

func TestSigCopyLat(t *testing.T) {
	p2 := smallParams()
	p2.Signature = sig.Config{Kind: sig.KindBitSelect, Bits: 512}
	s2 := newSys(t, p2)
	if got := s2.sigCopyLat(1); got != 4 {
		t.Errorf("derived copy latency = %d, want 2*512/256 = 4", got)
	}
	p3 := smallParams()
	p3.SigBackupCopies = 2
	s3 := newSys(t, p3)
	if got := s3.sigCopyLat(2); got != 0 {
		t.Errorf("backed-up level should be free, got %d", got)
	}
	if got := s3.sigCopyLat(3); got == 0 {
		t.Errorf("level beyond backups should pay")
	}
}
