package logtmse

import (
	"strings"
	"testing"
)

// TestProfilerDoesNotPerturb extends the instrumentation bit-identity
// gate to the attribution layer: attaching a conflict profiler, alone
// or teed with a recording sink, must leave Stats and cycle counts
// identical to the bare run of the same seed.
func TestProfilerDoesNotPerturb(t *testing.T) {
	v, _ := VariantByName("CBS")
	for _, wl := range []string{"BerkeleyDB", "Mp3d"} {
		bare, err := RunOne(RunConfig{Workload: wl, Variant: v, Scale: testScale}, 9)
		if err != nil {
			t.Fatal(err)
		}
		check := func(label string, rc RunConfig) {
			rc.Workload, rc.Variant, rc.Scale = wl, v, testScale
			r, err := RunOne(rc, 9)
			if err != nil {
				t.Fatal(err)
			}
			if bare.Stats != r.Stats {
				t.Errorf("%s/%s perturbed Stats:\nbare %+v\ngot  %+v", wl, label, bare.Stats, r.Stats)
			}
			if bare.Cycles != r.Cycles {
				t.Errorf("%s/%s changed cycle count: %d vs %d", wl, label, bare.Cycles, r.Cycles)
			}
		}
		check("prof", RunConfig{Sink: NewProfiler()})
		check("prof+sink", RunConfig{Sink: Tee(NewProfiler(), &Recorder{})})
	}
}

// TestProfilerReconcilesFigure4 is the attribution acceptance
// criterion: on the paper's Figure 4 workloads the signature-positive
// partition must sum exactly to the engine's conflict totals — stalls,
// false-positive stalls, summary hits and possible_cycle aborts — for
// both a real Bloom variant and the coarse variant.
func TestProfilerReconcilesFigure4(t *testing.T) {
	for _, wl := range []string{"BerkeleyDB", "Mp3d", "Raytrace", "Cholesky", "Radiosity"} {
		for _, vn := range []string{"BS", "CBS"} {
			v, ok := VariantByName(vn)
			if !ok {
				t.Fatalf("unknown variant %q", vn)
			}
			p := NewProfiler()
			r, err := RunOne(RunConfig{Workload: wl, Variant: v, Scale: testScale, Sink: p}, 3)
			if err != nil {
				t.Fatal(err)
			}
			st := r.Stats
			if got := p.Attr.TotalNacks(); got != st.Stalls {
				t.Errorf("%s/%s: attributed NACKs %d != engine stalls %d", wl, vn, got, st.Stalls)
			}
			if got := p.Attr.FalsePositives(); got != st.FalsePositiveStalls {
				t.Errorf("%s/%s: attributed false positives %d != engine %d", wl, vn, got, st.FalsePositiveStalls)
			}
			if p.Attr.Summary != st.SummaryConflicts {
				t.Errorf("%s/%s: attributed summary hits %d != engine %d", wl, vn, p.Attr.Summary, st.SummaryConflicts)
			}
			if p.ConflictAborts != st.PossibleCycleAborts {
				t.Errorf("%s/%s: conflict aborts %d != possible-cycle aborts %d",
					wl, vn, p.ConflictAborts, st.PossibleCycleAborts)
			}
		}
	}
}

// TestHungRunReportsDiagnosis pins the postmortem path: a run that
// exhausts MaxCycles fails with the engine's wait-for dump — one line
// per thread giving its context, transaction state and the thread it
// is stalled on — in the error.
func TestHungRunReportsDiagnosis(t *testing.T) {
	v, _ := VariantByName("BS")
	_, err := RunOne(RunConfig{
		Workload: "BerkeleyDB", Variant: v, Scale: testScale,
		MaxCycles: 2000, // far too few: force the hung-run path
	}, 5)
	if err == nil {
		t.Fatal("truncated run did not error")
	}
	// By cycle 2000 most threads are stalled on a NACK, so the dump
	// names the thread each waits on.
	for _, want := range []string{"threads stuck", "bdb-0: on core 0 tx depth=1", "stalled", "waiting on bdb-"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("hung-run error lacks %q:\n%v", want, err)
		}
	}
}

// TestProfilerRunsCacheBypass pins the caching contract: a profiled
// run is never served from the result cache (a cached cell would
// silently skip the sink).
func TestProfilerRunsCacheBypass(t *testing.T) {
	if Cacheable(RunConfig{Sink: NewProfiler()}) {
		t.Error("profiled run reported cacheable")
	}
	if !Cacheable(RunConfig{}) {
		t.Error("bare run reported uncacheable")
	}
}
