package logtmse

import (
	"testing"

	"logtmse/internal/core"
	"logtmse/internal/workload"
)

// TestReplayShareFloor pins how many NACK retries the retry-bound cells
// answer from a verdict instead of a protocol walk (DESIGN.md §15), and
// how many they answer without a walk at all: replayed, or re-checked on
// the moved cores alone. The counts are deterministic, so the floors
// hold exactly: a bump site that grows coarser than the per-block and
// per-core stamps (a machine-wide version replayed 77-79% on Raytrace
// and 67-68% on BerkeleyDB) fails here, and so does a re-check that
// covers fewer retries (without it, 96.4-96.5% and 88.0-88.7%). Every
// retry that skips re-validation must run as a storm step: none of these
// cells sets the starvation limit, the one reason a skip takes the full
// path.
func TestReplayShareFloor(t *testing.T) {
	floors := map[string]float64{"Raytrace": 0.95, "BerkeleyDB": 0.85}
	// Measured at scale 0.05, seed 1: 96.60-96.69% and 97.59-98.82%.
	unwalked := map[string]float64{"Raytrace": 0.966, "BerkeleyDB": 0.975}
	for _, wl := range []string{"Raytrace", "BerkeleyDB"} {
		for _, vn := range []string{"Perfect", "CBS", "BS_64"} {
			v, _ := VariantByName(vn)
			w, _ := workload.ByName(wl)
			p := core.DefaultParams()
			p.Seed = 1
			p.Signature = v.Sig
			sys, err := core.NewSystem(p)
			if err != nil {
				t.Fatal(err)
			}
			inst, err := w.Spawn(sys, workload.Config{Mode: v.Mode, Scale: 0.05})
			if err != nil {
				t.Fatal(err)
			}
			sys.Run()
			if err := inst.Verify(sys); err != nil {
				t.Fatal(err)
			}
			st := sys.Stats()
			share := float64(sys.VerdictReplays()) / float64(st.Stalls)
			both := float64(sys.VerdictReplays()+sys.VerdictRechecks()) / float64(st.Stalls)
			t.Logf("%s/%s: %d of %d stalls replayed (%.1f%%), %d re-checked (%.2f%% with the replays), %d storm steps",
				wl, vn, sys.VerdictReplays(), st.Stalls, 100*share, sys.VerdictRechecks(), 100*both, sys.StormSteps())
			if st.Stalls == 0 || share < floors[wl] {
				t.Errorf("%s/%s: replay share %.3f, want at least %.2f", wl, vn, share, floors[wl])
			}
			if both < unwalked[wl] {
				t.Errorf("%s/%s: (replays + re-checks) / stalls %.4f, want at least %.3f", wl, vn, both, unwalked[wl])
			}
			if sys.StormSteps() == 0 || sys.StormSteps() != sys.ReplaySkips() {
				t.Errorf("%s/%s: %d storm steps for %d skipped re-validations, want every skip a storm step", wl, vn, sys.StormSteps(), sys.ReplaySkips())
			}
		}
	}
}
