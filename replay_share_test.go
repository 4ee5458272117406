package logtmse

import (
	"testing"

	"logtmse/internal/core"
	"logtmse/internal/workload"
)

// TestReplayShareFloor pins how many NACK retries the retry-bound cells
// answer from a verdict instead of a protocol walk (DESIGN.md §15). The
// counts are deterministic, so the floors hold exactly: a bump site that
// grows coarser than the per-block and per-core stamps (a machine-wide
// version replayed 77-79% on Raytrace and 67-68% on BerkeleyDB) fails
// here.
func TestReplayShareFloor(t *testing.T) {
	floors := map[string]float64{"Raytrace": 0.95, "BerkeleyDB": 0.85}
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
			t.Logf("%s/%s: %d of %d stalls replayed (%.1f%%)", wl, vn, sys.VerdictReplays(), st.Stalls, 100*share)
			if st.Stalls == 0 || share < floors[wl] {
				t.Errorf("%s/%s: replay share %.3f, want at least %.2f", wl, vn, share, floors[wl])
			}
		}
	}
}
