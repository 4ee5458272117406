package workload

import (
	"fmt"
	"sync/atomic"

	"logtmse/internal/core"
	"logtmse/internal/txvm"
)

// Raytrace models the SPLASH raytracer on the teapot image: the parallel
// phase fetches ray identifiers from a hot shared counter and traverses
// shared scene structures. Most transactions are small (read ~5.8,
// write 2 blocks), but an occasional scene-refit transaction reads a very
// large span (up to 550 blocks, Table 2's worst case), which both fills
// small signatures — explaining the BS_64 slowdown — and victimizes
// transactional blocks from the L1 (Result 4: 481 victimizations in 48K
// transactions, far more than any other workload).
func Raytrace() *Workload {
	return &Workload{
		Name:       "Raytrace",
		Input:      "small image (teapot)",
		UnitOfWork: "parallel phase",
		Units:      1,
		spawn:      spawnRaytrace,
	}
}

const (
	raytraceRays      = 47500 // small ray transactions at scale 1
	raytraceBigEvery  = 170.0 // expected rays per big scene-read transaction
	raytraceSceneSize = 2048  // shared scene blocks
	raytraceImageSize = 512   // shared image blocks (ray results)
)

func spawnRaytrace(sys *core.System, cfg Config) (*Instance, error) {
	inst, rays := newRaytrace(sys, cfg)
	issued, done := inst.Counters[0], inst.Barriers[0]
	return spawnCompiled(sys, inst, cfg.Threads, "ray", func(id int) *txvm.Program {
		return compileRaytrace(cfg, rays, id, issued, done)
	})
}

// newRaytrace builds the state every Raytrace executor shares: the
// address space, the committed-ray tally (Counters[0]), the completion
// barrier (Barriers[0]) and Verify. It returns the ray count.
func newRaytrace(sys *core.System, cfg Config) (*Instance, int) {
	pt := sys.NewPageTable(1)
	rays := int(float64(raytraceRays) * cfg.Scale)
	if rays < cfg.Threads {
		rays = cfg.Threads
	}
	done := core.NewBarrier(cfg.Threads)
	issued := new(atomic.Int64)
	return &Instance{
		PT:       pt,
		Counters: []*atomic.Int64{issued},
		Barriers: []*core.Barrier{done},
		Verify: func(sys *core.System) error {
			got := int64(sys.Mem.ReadWord(pt.Translate(regionMeta)))
			if got != issued.Load() {
				return fmt.Errorf("Raytrace: ray counter = %d, want %d (lost updates)", got, issued.Load())
			}
			return nil
		},
	}, rays
}
