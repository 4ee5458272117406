package logtmse

// Benchmark harness: one benchmark family per table/figure of the paper's
// evaluation. Each iteration is a complete simulation run (seeded by the
// iteration index, matching the paper's pseudo-random perturbation); the
// interesting results are exported with b.ReportMetric, so
// `go test -bench . -benchmem` regenerates the evaluation at reduced
// scale. `reproduce <campaign>` (cmd/reproduce) runs the same cells at
// full scale.

import (
	"fmt"
	"testing"

	"logtmse/internal/core"
	"logtmse/internal/osm"
	"logtmse/internal/sig"
	"logtmse/internal/snap"
	"logtmse/internal/workload"
)

// benchScale keeps a single benchmark iteration around tens of
// milliseconds; the reproduce campaigns run at scale 1.0.
const benchScale = 0.05

func benchRun(b *testing.B, wl string, v Variant, scale float64) (last RunResult) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := RunOne(RunConfig{Workload: wl, Variant: v, Scale: scale}, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	return last
}

// BenchmarkTable1Config measures machine construction with the paper's
// Table 1 parameters (and asserts they are the paper's).
func BenchmarkTable1Config(b *testing.B) {
	p := DefaultParams()
	if p.Cores != 16 || p.ThreadsPerCore != 2 || p.L1Bytes != 32*1024 ||
		p.L2Bytes != 8*1024*1024 || p.MemLat != 500 || p.L2Lat != 34 {
		b.Fatalf("Table 1 parameters drifted: %+v", p)
	}
	for i := 0; i < b.N; i++ {
		if _, err := NewSystem(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2 regenerates Table 2's per-benchmark transaction counts
// and read/write-set sizes (perfect signatures).
func BenchmarkTable2(b *testing.B) {
	perfect, _ := VariantByName("Perfect")
	for _, w := range Workloads() {
		b.Run(w.Name, func(b *testing.B) {
			r := benchRun(b, w.Name, perfect, benchScale)
			st := r.Stats
			b.ReportMetric(float64(st.Commits), "txns")
			b.ReportMetric(st.ReadSetAvg(), "read-avg")
			b.ReportMetric(float64(st.ReadSetMax), "read-max")
			b.ReportMetric(st.WriteSetAvg(), "write-avg")
			b.ReportMetric(float64(st.WriteSetMax), "write-max")
		})
	}
}

// BenchmarkFigure4 regenerates Figure 4: cycles-per-work-unit for every
// benchmark x variant cell; the speedup is the Lock cell's metric divided
// by the variant's.
func BenchmarkFigure4(b *testing.B) {
	for _, w := range Workloads() {
		for _, v := range Figure4Variants() {
			b.Run(w.Name+"/"+v.Name, func(b *testing.B) {
				r := benchRun(b, w.Name, v, benchScale)
				b.ReportMetric(r.CyclesPerUnit, "cycles/unit")
				b.ReportMetric(float64(r.Stats.Aborts), "aborts")
			})
		}
	}
}

// BenchmarkTable3 regenerates Table 3: conflict-detection quality versus
// signature implementation and size, for Raytrace and BerkeleyDB.
func BenchmarkTable3(b *testing.B) {
	for _, wl := range table3Workloads {
		for _, v := range Table3Variants() {
			b.Run(wl+"/"+v.Name, func(b *testing.B) {
				r := benchRun(b, wl, v, benchScale)
				st := r.Stats
				b.ReportMetric(float64(st.Commits), "txns")
				b.ReportMetric(float64(st.Aborts), "aborts")
				b.ReportMetric(float64(st.Stalls), "stalls")
				b.ReportMetric(st.FPEpisodePct(), "falsepos%")
			})
		}
	}
}

// BenchmarkVictimization regenerates Result 4: transactional blocks
// victimized from the caches, per benchmark.
func BenchmarkVictimization(b *testing.B) {
	perfect, _ := VariantByName("Perfect")
	for _, w := range Workloads() {
		b.Run(w.Name, func(b *testing.B) {
			// Raytrace's victimization comes from its rare giant read
			// sets; give it a slightly larger slice so they occur.
			scale := benchScale
			if w.Name == "Raytrace" {
				scale = 0.1
			}
			r := benchRun(b, w.Name, perfect, scale)
			st := r.Stats
			b.ReportMetric(float64(st.Coh.L1TxVictims), "L1-victims")
			b.ReportMetric(float64(st.Coh.L2TxVictims), "L2-victims")
			b.ReportMetric(float64(st.Coh.StickyEvicts), "sticky")
		})
	}
}

// BenchmarkTable4Events regenerates the Table 4 virtualization-event
// microbenchmark: an oversubscribed run under the OS scheduler with
// eager mid-transaction preemption, measuring the software events
// LogTM-SE needs after virtualization (context switches, summary
// installs, summary conflicts, commit traps) while cache misses and
// commits stay hardware-simple.
func BenchmarkTable4Events(b *testing.B) {
	var switches, installs, conflicts float64
	for i := 0; i < b.N; i++ {
		p := DefaultParams()
		p.Cores = 4 // 8 contexts, 16 threads below
		p.GridW, p.GridH = 2, 2
		p.L2Banks = 4
		p.Seed = int64(i + 1)
		sys, err := core.NewSystem(p)
		if err != nil {
			b.Fatal(err)
		}
		sched := osm.New(sys, 500)
		sched.DeferInTxFactor = 0 // eager: context switches hit transactions
		proc := sched.NewProcess("P")
		counter := VAddr(0x9000)
		for t := 0; t < 16; t++ {
			sched.Spawn(proc, "w", func(a *API) {
				for r := 0; r < 10; r++ {
					a.Transaction(func() {
						v := a.Load(counter)
						a.Compute(200)
						a.Store(counter, v+1)
					})
					a.Compute(100)
				}
			})
		}
		sys.Run()
		if !sys.AllDone() {
			b.Fatalf("stuck: %v", sys.Stuck())
		}
		if got := sys.Mem.ReadWord(proc.PT.Translate(counter)); got != 160 {
			b.Fatalf("counter = %d, want 160", got)
		}
		ost := sched.Stats()
		switches = float64(ost.ContextSwitches)
		installs = float64(ost.SummaryInstalls)
		conflicts = float64(sys.Stats().SummaryConflicts)
	}
	b.ReportMetric(switches, "ctx-switches")
	b.ReportMetric(installs, "summary-installs")
	b.ReportMetric(conflicts, "summary-conflicts")
}

// BenchmarkSnoopVsDirectory is the §7 ablation: the broadcast snooping
// CMP versus the directory baseline.
func BenchmarkSnoopVsDirectory(b *testing.B) {
	perfect, _ := VariantByName("Perfect")
	for _, proto := range []struct {
		name string
		set  func(*Params)
	}{
		{"directory", func(p *Params) { p.Protocol = ProtocolDirectory }},
		{"snoop", func(p *Params) { p.Protocol = ProtocolSnoop }},
	} {
		b.Run(proto.name, func(b *testing.B) {
			p := DefaultParams()
			proto.set(&p)
			var last RunResult
			for i := 0; i < b.N; i++ {
				r, err := RunOne(RunConfig{
					Workload: "Raytrace", Variant: perfect, Scale: benchScale, Params: &p,
				}, int64(i+1))
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			b.ReportMetric(last.CyclesPerUnit, "cycles/unit")
			b.ReportMetric(float64(last.Stats.Coh.Broadcasts), "broadcasts")
		})
	}
}

// BenchmarkSignatureSweep sweeps bit-select sizes (the DESIGN.md ablation
// behind Result 3: small signatures suffice because read/write sets are
// small).
func BenchmarkSignatureSweep(b *testing.B) {
	for _, bits := range []int{64, 256, 1024, 2048, 8192} {
		b.Run(fmt.Sprintf("BS_%d", bits), func(b *testing.B) {
			v := Variant{
				Name: fmt.Sprintf("BS_%d", bits),
				Mode: workload.TM,
				Sig:  sig.Config{Kind: sig.KindBitSelect, Bits: bits},
			}
			r := benchRun(b, "Raytrace", v, benchScale)
			b.ReportMetric(r.CyclesPerUnit, "cycles/unit")
			b.ReportMetric(r.Stats.FPEpisodePct(), "falsepos%")
		})
	}
}

// BenchmarkMultiChip is the §7 multiple-CMP ablation: the same 16 cores
// as one CMP versus four CMPs behind a memory directory.
func BenchmarkMultiChip(b *testing.B) {
	perfect, _ := VariantByName("Perfect")
	for _, chips := range []int{1, 4} {
		b.Run(fmt.Sprintf("chips-%d", chips), func(b *testing.B) {
			p := DefaultParams()
			if chips > 1 {
				p.Chips = chips
				p.GridW, p.GridH = 2, 2
			}
			var last RunResult
			for i := 0; i < b.N; i++ {
				r, err := RunOne(RunConfig{
					Workload: "Mp3d", Variant: perfect, Scale: benchScale, Params: &p,
				}, int64(i+1))
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			b.ReportMetric(last.CyclesPerUnit, "cycles/unit")
			b.ReportMetric(float64(last.Stats.Coh.InterChipMsgs), "interchip-msgs")
		})
	}
}

// BenchmarkContentionPolicies compares the conflict-resolution policies
// (DESIGN.md design-choice ablation; the paper's base policy is
// stall-abort).
func BenchmarkContentionPolicies(b *testing.B) {
	perfect, _ := VariantByName("Perfect")
	for _, pol := range []Resolution{ResolveStallAbort, ResolveRequesterAborts, ResolveYoungerAborts} {
		b.Run(pol.String(), func(b *testing.B) {
			p := DefaultParams()
			p.Resolution = pol
			var last RunResult
			for i := 0; i < b.N; i++ {
				r, err := RunOne(RunConfig{
					Workload: "BerkeleyDB", Variant: perfect, Scale: benchScale, Params: &p,
				}, int64(i+1))
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			b.ReportMetric(last.CyclesPerUnit, "cycles/unit")
			b.ReportMetric(float64(last.Stats.Aborts), "aborts")
		})
	}
}

// BenchmarkSigBackups measures the §3.2 backup-signature optimization on
// the nesting microworkload.
func BenchmarkSigBackups(b *testing.B) {
	v := Variant{Name: "BS", Mode: workload.TM, Sig: sig.Config{Kind: sig.KindBitSelect, Bits: 2048}}
	for _, backups := range []int{0, 4} {
		b.Run(fmt.Sprintf("backups-%d", backups), func(b *testing.B) {
			p := DefaultParams()
			p.SigBackupCopies = backups
			var last RunResult
			for i := 0; i < b.N; i++ {
				r, err := RunOne(RunConfig{
					Workload: "NestedMicro", Variant: v, Scale: benchScale, Params: &p,
				}, int64(i+1))
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			b.ReportMetric(last.CyclesPerUnit, "cycles/unit")
		})
	}
}

// BenchmarkLogTMvsSE compares the original LogTM baseline (R/W cache
// bits, flash clear, overflow flag) against LogTM-SE — the paper's intro
// claim is that LogTM-SE performs comparably while being virtualizable.
func BenchmarkLogTMvsSE(b *testing.B) {
	perfect, _ := VariantByName("Perfect")
	for _, cd := range []ConflictDetection{CDSignature, CDCacheBits} {
		b.Run(cd.String(), func(b *testing.B) {
			p := DefaultParams()
			p.CD = cd
			var last RunResult
			for i := 0; i < b.N; i++ {
				r, err := RunOne(RunConfig{
					Workload: "BerkeleyDB", Variant: perfect, Scale: benchScale, Params: &p,
				}, int64(i+1))
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			b.ReportMetric(last.CyclesPerUnit, "cycles/unit")
			b.ReportMetric(float64(last.Stats.FlashClears), "flash-clears")
			b.ReportMetric(float64(last.Stats.OverflowNACKs), "overflow-nacks")
		})
	}
}

// BenchmarkObsOverhead is the observability overhead guard: the same
// cell with no sink (the seed baseline), with a discarding sink, and
// with a discarding sink plus metrics. The bare run must stay within
// noise of the seed, and the cycles/unit metric must be identical across
// all three — instrumentation observes the run, it never changes it.
func BenchmarkObsOverhead(b *testing.B) {
	perfect, _ := VariantByName("Perfect")
	cells := []struct {
		name string
		rc   func() RunConfig
	}{
		{"bare", func() RunConfig {
			return RunConfig{Workload: "BerkeleyDB", Variant: perfect, Scale: benchScale}
		}},
		{"sink", func() RunConfig {
			return RunConfig{Workload: "BerkeleyDB", Variant: perfect, Scale: benchScale,
				Sink: DiscardSink{}}
		}},
		{"sink+metrics", func() RunConfig {
			return RunConfig{Workload: "BerkeleyDB", Variant: perfect, Scale: benchScale,
				Sink: DiscardSink{}, Metrics: NewCoreMetrics(NewRegistry())}
		}},
	}
	var baseline float64
	for _, c := range cells {
		b.Run(c.name, func(b *testing.B) {
			var last RunResult
			for i := 0; i < b.N; i++ {
				r, err := RunOne(c.rc(), 1)
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			b.ReportMetric(last.CyclesPerUnit, "cycles/unit")
			if c.name == "bare" {
				baseline = last.CyclesPerUnit
			} else if baseline != 0 && last.CyclesPerUnit != baseline {
				b.Fatalf("instrumentation changed simulated behavior: %f vs %f cycles/unit",
					last.CyclesPerUnit, baseline)
			}
		})
	}
}

// BenchmarkSweepCell is the end-to-end sweep-throughput benchmark: one
// complete experiment cell per iteration, under the three execution
// strategies a sweep command composes. "cold" constructs every System
// from scratch (pooling off); "pooled" reuses a Reset() machine from the
// pool; "cached" serves the repeat from the in-memory result cache.
// benchdiff reads the pooled/cold and cached/cold ratios from these.
func BenchmarkSweepCell(b *testing.B) {
	perfect, _ := VariantByName("Perfect")
	rc := RunConfig{Workload: "BerkeleyDB", Variant: perfect, Scale: benchScale}
	run := func(b *testing.B, rc RunConfig) {
		var last RunResult
		for i := 0; i < b.N; i++ {
			r, err := RunOne(rc, 1)
			if err != nil {
				b.Fatal(err)
			}
			last = r
		}
		b.ReportMetric(last.CyclesPerUnit, "cycles/unit")
	}
	b.Run("cold", func(b *testing.B) {
		prev := SetSystemPooling(false)
		defer SetSystemPooling(prev)
		drainSystemPool()
		run(b, rc)
	})
	b.Run("pooled", func(b *testing.B) {
		prev := SetSystemPooling(true)
		defer func() {
			drainSystemPool()
			SetSystemPooling(prev)
		}()
		if _, err := RunOne(rc, 1); err != nil { // prime the pool
			b.Fatal(err)
		}
		b.ResetTimer()
		run(b, rc)
	})
	b.Run("cached", func(b *testing.B) {
		cached := rc
		cached.Cache = NewResultCache("", 0)
		if _, err := RunOne(cached, 1); err != nil { // warm the cache
			b.Fatal(err)
		}
		b.ResetTimer()
		run(b, cached)
	})
}

// BenchmarkSignatureOps microbenchmarks the signature hardware itself:
// insert+test throughput per implementation (a pure data-structure
// benchmark, independent of the simulator).
func BenchmarkSignatureOps(b *testing.B) {
	for _, cfg := range []sig.Config{
		{Kind: sig.KindPerfect},
		{Kind: sig.KindBitSelect, Bits: 2048},
		{Kind: sig.KindCoarseBitSelect, Bits: 2048},
		{Kind: sig.KindDoubleBitSelect, Bits: 2048},
	} {
		b.Run(cfg.String(), func(b *testing.B) {
			s := sig.MustSignature(cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := PAddr(uint64(i) * 64)
				s.Insert(sig.Read, a)
				if !s.Conflict(sig.Write, a) {
					b.Fatal("false negative")
				}
				if i%4096 == 0 {
					s.ClearAll()
				}
			}
		})
	}
}

// BenchmarkSnapshotRestore measures the snapshot layer itself: capture
// of a mid-run machine, and restore of that capture onto an already-
// spawned machine (the fork fast path — spawn cost is excluded, since a
// sweep reuses pooled machines as fork targets).
func BenchmarkSnapshotRestore(b *testing.B) {
	p := DefaultParams()
	p.Seed = 1
	w, ok := workload.ByName("Mp3d")
	if !ok {
		b.Fatal("no Mp3d workload")
	}
	cfg := workload.Config{Scale: benchScale}
	spawn := func() (*core.System, *workload.Instance) {
		sys, err := core.NewSystem(p)
		if err != nil {
			b.Fatal(err)
		}
		inst, err := w.Spawn(sys, cfg)
		if err != nil {
			b.Fatal(err)
		}
		return sys, inst
	}
	donor, dinst := spawn()
	var shot *snap.Snapshot
	for cut := Cycle(5_000); cut <= 60_000; cut += 1_000 {
		donor.RunUntil(cut)
		if donor.AllDone() {
			b.Fatal("donor run ended before a snapshot was captured")
		}
		if s, err := snap.Capture(donor, dinst); err == nil {
			shot = s
			break
		}
	}
	if shot == nil {
		b.Fatal("no capturable boundary")
	}
	b.Run("capture", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := snap.Capture(donor, dinst); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("restore", func(b *testing.B) {
		target, tinst := spawn()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := snap.Restore(target, tinst, shot); err != nil {
				b.Fatal(err)
			}
		}
	})
}
