package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"

	"logtmse"
	"logtmse/internal/workload"
)

// specJSON is the benchmark's record: each workload's cell list and why
// it was chosen, the layer → end-to-end metric → workload map, the
// reference-loop definition with its nominal time, and the notes on
// model validation and replaced metrics. The program reads its cell
// lists and nominal time from it, so the record cannot drift from what
// runs.
//
//go:embed spec.json
var specJSON []byte

// Spec is the parsed spec.json.
type Spec struct {
	ReferenceLoop struct {
		Definition string  `json:"definition"`
		NominalNS  float64 `json:"nominal_ns"`
	} `json:"reference_loop"`
	Workloads []WorkloadSpec `json:"workloads"`
}

// WorkloadSpec is one benchmark workload: every (benchmark, variant)
// pair at one input scale, each simulated under SeedsPerCell seeds (0
// means one), run serially.
type WorkloadSpec struct {
	Name         string   `json:"name"`
	Benchmarks   []string `json:"benchmarks"`
	Variants     []string `json:"variants"`
	Scale        float64  `json:"scale"`
	SeedsPerCell int      `json:"seeds_per_cell"`
}

func loadSpec() (Spec, error) {
	var s Spec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		return s, fmt.Errorf("spec.json: %w", err)
	}
	return s, nil
}

// Workload returns the named workload.
func (s Spec) Workload(name string) (WorkloadSpec, error) {
	for _, w := range s.Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	return WorkloadSpec{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// Cell is one operation of the benchmark: one Figure-4 cell, simulated
// with its own seed.
type Cell struct {
	ID        int
	Benchmark string
	Variant   logtmse.Variant
	Scale     float64
	Seed      int64
}

func (c Cell) String() string {
	return fmt.Sprintf("%s/%s/seed%d", c.Benchmark, c.Variant.Name, c.Seed)
}

// Config is the cell as cmd/figure4 hands it to logtmse.RunOne: Table 1
// machine, every hardware context, no cache, no observers, pooling on.
func (c Cell) Config() logtmse.RunConfig {
	p := logtmse.DefaultParams()
	return logtmse.RunConfig{
		Workload: c.Benchmark,
		Variant:  c.Variant,
		Scale:    c.Scale,
		Seeds:    []int64{c.Seed},
		Params:   &p,
	}
}

// Params is the machine the cell simulates on (the seed and signature
// RunOne would install).
func (c Cell) Params() logtmse.Params {
	p := logtmse.DefaultParams()
	p.Seed = c.Seed
	p.Signature = c.Variant.Sig
	return p
}

// Spawn is the workload build the cell runs.
func (c Cell) Spawn(sys *logtmse.System) (*workload.Instance, error) {
	w, ok := workload.ByName(c.Benchmark)
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q", c.Benchmark)
	}
	return w.Spawn(sys, workload.Config{Mode: c.Variant.Mode, Scale: c.Scale})
}

// Cells derives the workload's cell list from the benchmark seed: the
// benchmark × variant grid in spec order, each pair SeedsPerCell times,
// each cell with its own simulation seed drawn from the benchmark seed.
func (w WorkloadSpec) Cells(seed int64) ([]Cell, error) {
	rng := rand.New(rand.NewSource(seed))
	var cells []Cell
	for _, b := range w.Benchmarks {
		if _, ok := workload.ByName(b); !ok {
			return nil, fmt.Errorf("workload %s: unknown benchmark %q", w.Name, b)
		}
		for _, vn := range w.Variants {
			v, ok := logtmse.VariantByName(vn)
			if !ok {
				return nil, fmt.Errorf("workload %s: unknown variant %q", w.Name, vn)
			}
			for i := 0; i < max(w.SeedsPerCell, 1); i++ {
				cells = append(cells, Cell{
					ID:        len(cells),
					Benchmark: b,
					Variant:   v,
					Scale:     w.Scale,
					Seed:      1 + rng.Int63n(1<<20),
				})
			}
		}
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("workload %s has no cells", w.Name)
	}
	return cells, nil
}
