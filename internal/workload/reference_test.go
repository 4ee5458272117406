package workload

import (
	"fmt"
	"math/rand"

	"logtmse/internal/core"
	"logtmse/internal/txvm"
)

// The closure-based reference executor: each workload body written as
// a goroutine closure over core.API, the form the paper's programs
// take. Production runs only the compiled tapes; these bodies are what
// TestCompiledMatchesInterpreted holds every tape to, bit for bit.

// references maps each workload to its reference spawn function.
var references = map[string]func(*core.System, Config) (*Instance, error){
	"BerkeleyDB":  referenceBDB,
	"Cholesky":    referenceCholesky,
	"Radiosity":   referenceRadiosity,
	"Raytrace":    referenceRaytrace,
	"Mp3d":        referenceMp3d,
	"NestedMicro": referenceNestedMicro,
}

// Reference returns the named workload with its closure-based reference
// body in place of the compiled tape (false when name is unknown). It
// is exported for the external equivalence tests.
func Reference(name string) (*Workload, bool) {
	w, ok := ByName(name)
	if !ok {
		return nil, false
	}
	w.spawn = references[name]
	return w, true
}

// spawnAll places n goroutine worker threads exactly as spawnCompiled
// places tape threads (same round-robin contexts, names and ASID, and
// therefore the same thread IDs and RNG seeds) in inst's address space.
func spawnAll(sys *core.System, inst *Instance, n int, name string, fn func(id int, a *core.API)) (*Instance, error) {
	if n > sys.P.Contexts() {
		return nil, fmt.Errorf("workload: %d threads exceed %d contexts (use the osm scheduler for oversubscription)", n, sys.P.Contexts())
	}
	for i := 0; i < n; i++ {
		i := i
		c := i % sys.P.Cores
		th := (i / sys.P.Cores) % sys.P.ThreadsPerCore
		if _, err := sys.SpawnOn(c, th, fmt.Sprintf("%s-%d", name, i), 1, inst.PT, func(a *core.API) {
			fn(i, a)
		}); err != nil {
			return nil, err
		}
	}
	return inst, nil
}

// drawCount draws a set size with the given mean and hard maximum. The
// math lives in txvm so the compiled tapes consume the identical RNG
// stream.
func drawCount(r *rand.Rand, mean float64, max int) int {
	return txvm.DrawCount(r, mean, max)
}

// zipfIdx draws an index in [0, n) skewed toward 0; skew > 1 increases
// the concentration on hot entries.
func zipfIdx(r *rand.Rand, n int, skew float64) int {
	return txvm.ZipfIdx(r, n, skew)
}
