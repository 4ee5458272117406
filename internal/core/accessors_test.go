package core

import (
	"testing"

	"logtmse/internal/addr"
	"logtmse/internal/obs"
)

func TestThreadAccessorsAndEventSink(t *testing.T) {
	p := smallParams()
	var begins, commits int
	p.Sink = obs.FuncSink(func(e obs.Event) {
		switch e.Kind {
		case obs.KindTxBegin:
			begins++
		case obs.KindTxCommit:
			commits++
		}
	})
	s := newSys(t, p)
	pt := s.NewPageTable(1)
	var th *Thread
	th, _ = s.SpawnOn(0, 0, "probe", 1, pt, func(a *API) {
		if a.Thread().Depth() != 0 || a.Thread().Timestamp() != 0 {
			t.Errorf("pre-transaction state wrong")
		}
		a.Transaction(func() {
			a.Store(0x1000, 1)
			a.Load(0x2000)
			if d := a.Thread().Depth(); d != 1 {
				t.Errorf("Depth = %d, want 1", d)
			}
			if a.Thread().Timestamp() == 0 {
				t.Errorf("Timestamp zero inside transaction")
			}
			if a.Thread().ReadSetSize() != 1 || a.Thread().WriteSetSize() != 1 {
				t.Errorf("set sizes = %d/%d, want 1/1",
					a.Thread().ReadSetSize(), a.Thread().WriteSetSize())
			}
		})
		a.Yield()
		a.Compute(0) // no-op path
	})
	mustRun(t, s)
	if len(s.Threads()) != 1 || s.Threads()[0] != th {
		t.Errorf("Threads() accessor wrong")
	}
	if len(s.Stuck()) != 0 {
		t.Errorf("Stuck() nonempty after completion: %v", s.Stuck())
	}
	if begins != 1 || commits != 1 {
		t.Errorf("sink saw %d begins and %d commits, want 1 and 1", begins, commits)
	}
}

func TestResetClearsCounters(t *testing.T) {
	s := newSys(t, smallParams())
	pt := s.NewPageTable(1)
	s.SpawnOn(0, 0, "t", 1, pt, func(a *API) {
		a.Transaction(func() { a.Store(0x40, 1) })
	})
	mustRun(t, s)
	if s.Stats().Commits == 0 {
		t.Fatalf("setup: no commits")
	}
	if err := s.Reset(1); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Commits != 0 || st.Coh.Loads != 0 || st.Coh.Stores != 0 {
		t.Errorf("Reset left counters: %+v", st)
	}
}

func TestPlaceErrors(t *testing.T) {
	s := newSys(t, smallParams())
	pt := s.NewPageTable(1)
	t1 := s.Spawn("a", 1, pt, func(a *API) {})
	if err := s.Place(t1, 99, 0); err == nil {
		t.Errorf("out-of-range core accepted")
	}
	if err := s.Place(t1, 0, 99); err == nil {
		t.Errorf("out-of-range thread accepted")
	}
	if err := s.Place(t1, 0, 0); err != nil {
		t.Fatal(err)
	}
	t2 := s.Spawn("b", 1, pt, func(a *API) {})
	if err := s.Place(t2, 0, 0); err == nil {
		t.Errorf("double placement accepted")
	}
	// Drain the spawned goroutines so the engine isn't left hanging.
	s.Start(t1)
	if err := s.Place(t2, 1, 0); err != nil {
		t.Fatal(err)
	}
	s.Start(t2)
	mustRun(t, s)
}

func TestStatsDerivedExtra(t *testing.T) {
	st := Stats{StallEpisodes: 10, FPEpisodes: 4}
	if st.FPEpisodePct() != 40 {
		t.Errorf("FPEpisodePct = %f", st.FPEpisodePct())
	}
	if (Stats{}).FPEpisodePct() != 0 {
		t.Errorf("zero-stats FPEpisodePct not safe")
	}
	if (Stats{Commits: 2, WriteSetSum: 5}).WriteSetAvg() != 2.5 {
		t.Errorf("WriteSetAvg wrong")
	}
	if (Stats{}).WriteSetAvg() != 0 {
		t.Errorf("zero WriteSetAvg not safe")
	}
}

func TestInExactSetAcrossThreads(t *testing.T) {
	s := newSys(t, smallParams())
	pt := s.NewPageTable(1)
	s.SpawnOn(0, 0, "t", 1, pt, func(a *API) {
		a.Transaction(func() {
			a.Store(0x1000, 1)
			a.Compute(5000)
		})
	})
	s.RunUntil(200)
	pa := pt.Translate(0x1000)
	if !s.InExactSet(0, pa) {
		t.Errorf("InExactSet missed the active write")
	}
	if s.InExactSet(1, pa) {
		t.Errorf("InExactSet matched an idle core")
	}
	if s.InExactSet(0, addr.PAddr(0xdead000)) {
		t.Errorf("InExactSet matched an untouched block")
	}
	s.Run()
	if s.InExactSet(0, pa) {
		t.Errorf("InExactSet matched after commit")
	}
}

func TestMaxLogBytesTracked(t *testing.T) {
	s := newSys(t, smallParams())
	pt := s.NewPageTable(1)
	s.SpawnOn(0, 0, "t", 1, pt, func(a *API) {
		a.Transaction(func() {
			for i := 0; i < 10; i++ {
				a.Store(addr.VAddr(0x1000+i*64), 1)
			}
		})
	})
	mustRun(t, s)
	st := s.Stats()
	// 10 undo records plus one frame header.
	want := 128 + 10*(8+64)
	if st.MaxLogBytes != want {
		t.Errorf("MaxLogBytes = %d, want %d", st.MaxLogBytes, want)
	}
}
