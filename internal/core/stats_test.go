package core

import "testing"

// The derived ratios must be well-defined on a zero-value Stats (a run
// with no transactions): 0, not NaN or Inf.
func TestStatsZeroDenominators(t *testing.T) {
	var s Stats
	for name, got := range map[string]float64{
		"ReadSetAvg":       s.ReadSetAvg(),
		"WriteSetAvg":      s.WriteSetAvg(),
		"FalsePositivePct": s.FalsePositivePct(),
		"FPEpisodePct":     s.FPEpisodePct(),
	} {
		if got != 0 {
			t.Errorf("%s on zero Stats = %f, want 0", name, got)
		}
	}
}

func TestStatsDerivedRatios(t *testing.T) {
	s := Stats{
		Commits: 4, ReadSetSum: 10, WriteSetSum: 6,
		Stalls: 8, FalsePositiveStalls: 2,
		StallEpisodes: 5, FPEpisodes: 1,
	}
	if got := s.ReadSetAvg(); got != 2.5 {
		t.Errorf("ReadSetAvg = %f, want 2.5", got)
	}
	if got := s.WriteSetAvg(); got != 1.5 {
		t.Errorf("WriteSetAvg = %f, want 1.5", got)
	}
	if got := s.FalsePositivePct(); got != 25 {
		t.Errorf("FalsePositivePct = %f, want 25", got)
	}
	if got := s.FPEpisodePct(); got != 20 {
		t.Errorf("FPEpisodePct = %f, want 20", got)
	}
	// Zero numerators with live denominators are plain zero too.
	s.FalsePositiveStalls, s.FPEpisodes = 0, 0
	if s.FalsePositivePct() != 0 || s.FPEpisodePct() != 0 {
		t.Errorf("zero-numerator ratios not 0")
	}
}
