package core

import (
	"testing"

	"logtmse/internal/addr"
	"logtmse/internal/coherence"
)

func multiChipParams() Params {
	p := DefaultParams()
	p.Cores = 16
	p.Chips = 4
	p.GridW, p.GridH = 2, 2 // per-chip on-chip grid
	return p
}

func TestMultiChipValidate(t *testing.T) {
	p := multiChipParams()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	p.Cores = 15
	if p.Validate() == nil {
		t.Errorf("non-divisible chips accepted")
	}
}

func TestMultiChipAtomicCounter(t *testing.T) {
	// The atomicity invariant must hold across chips: threads on all
	// four chips increment one counter.
	s := newSys(t, multiChipParams())
	pt := s.NewPageTable(1)
	counter := addr.VAddr(0x9000)
	const perThread = 15
	for core := 0; core < 16; core += 2 { // two cores per chip
		s.SpawnOn(core, 0, "w", 1, pt, func(a *API) {
			for i := 0; i < perThread; i++ {
				a.Transaction(func() {
					a.FetchAdd(counter, 1)
					a.Compute(30)
				})
				a.Compute(100)
			}
		})
	}
	mustRun(t, s)
	if got := s.Mem.ReadWord(pt.Translate(counter)); got != 8*perThread {
		t.Errorf("counter = %d, want %d (cross-chip atomicity broken)", got, 8*perThread)
	}
	mc, ok := s.Coh.(*coherence.MultiChip)
	if !ok {
		t.Fatalf("Chips>1 did not build a MultiChip memory system")
	}
	if mc.Stats().InterChipMsgs == 0 {
		t.Errorf("no inter-chip traffic for a shared counter")
	}
}

func TestMultiChipIsolation(t *testing.T) {
	// A transaction on chip 0 must isolate its write from a reader on
	// chip 3 until commit.
	s := newSys(t, multiChipParams())
	pt := s.NewPageTable(1)
	X := addr.VAddr(0xc000)
	var commitAt, readAt uint64
	var readVal uint64
	s.SpawnOn(0, 0, "writer", 1, pt, func(a *API) {
		a.Transaction(func() {
			a.Store(X, 42)
			a.Compute(8000)
		})
		commitAt = uint64(a.Now())
	})
	s.SpawnOn(15, 0, "reader", 1, pt, func(a *API) {
		a.Compute(500)
		readVal = a.Load(X)
		readAt = uint64(a.Now())
	})
	mustRun(t, s)
	if readVal != 42 {
		t.Errorf("reader saw %d", readVal)
	}
	if readAt < commitAt {
		t.Errorf("cross-chip isolation broken: read %d < commit %d", readAt, commitAt)
	}
}

func TestMultiChipSlowerThanSingleChip(t *testing.T) {
	// The same sharing-heavy program must cost more cycles on 4 chips
	// (inter-chip latency) than on 1 chip with identical cores.
	run := func(chips int) uint64 {
		p := multiChipParams()
		p.Chips = chips
		if chips == 1 {
			p.GridW, p.GridH = 4, 3
		}
		s := newSys(t, p)
		pt := s.NewPageTable(1)
		X := addr.VAddr(0x4000)
		for core := 0; core < 16; core += 4 {
			s.SpawnOn(core, 0, "w", 1, pt, func(a *API) {
				for i := 0; i < 20; i++ {
					a.Transaction(func() { a.FetchAdd(X, 1) })
					a.Compute(50)
				}
			})
		}
		mustRun(t, s)
		return uint64(s.Stats().Cycles)
	}
	single := run(1)
	multi := run(4)
	if multi <= single {
		t.Errorf("4-chip run (%d cycles) not slower than 1-chip (%d)", multi, single)
	}
}
