package txvm

import (
	"math"
	"math/rand"
)

// The workloads' random-set generators. These are the single source of
// truth for both executors: the Machine's OpDrawCount/OpZipf ops call
// them directly, and the closure-based reference bodies in
// internal/workload's tests delegate here, so a given RNG stream
// yields the same sets on either path.

// DrawCount draws a set size with the given mean and hard maximum: a
// geometric-ish distribution with minimum 1, matching the skew the
// paper reports (small averages, occasional large sets). It consumes
// exactly one Float64 from r when mean > 1 and none otherwise.
func DrawCount(r *rand.Rand, mean float64, max int) int {
	if mean <= 1 {
		return 1
	}
	// Geometric with success probability 1/mean, shifted to minimum 1.
	p := 1.0 / mean
	u := r.Float64()
	k := 1 + int(math.Log(1-u)/math.Log(1-p))
	if k < 1 {
		k = 1
	}
	if k > max {
		k = max
	}
	return k
}

// ZipfIdx draws an index in [0, n) skewed toward 0; skew > 1 increases
// the concentration on hot entries. It consumes exactly one Float64.
func ZipfIdx(r *rand.Rand, n int, skew float64) int {
	i := int(float64(n) * math.Pow(r.Float64(), skew))
	if i >= n {
		i = n - 1
	}
	return i
}
