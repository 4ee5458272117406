package logtmse

import (
	"math"
	"reflect"
	"testing"

	"logtmse/internal/sig"
	"logtmse/internal/workload"
)

func fpConfig() RunConfig {
	p := DefaultParams()
	return RunConfig{
		Workload: "BerkeleyDB",
		Variant:  Variant{Name: "BS", Mode: workload.TM, Sig: sig.Config{Kind: sig.KindBitSelect, Bits: 2048}},
		Scale:    0.25,
		Params:   &p,
	}
}

func mustFP(t *testing.T, rc RunConfig, seed int64) string {
	t.Helper()
	key, err := Fingerprint(rc, seed)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

func TestFingerprintStable(t *testing.T) {
	a := mustFP(t, fpConfig(), 1)
	b := mustFP(t, fpConfig(), 1)
	if a != b {
		t.Fatalf("identical configs hash differently: %s vs %s", a, b)
	}
	if c := mustFP(t, fpConfig(), 2); c == a {
		t.Fatalf("different seeds hash equal")
	}
}

// TestFingerprintExcludesOrchestration: labels and orchestration knobs
// do not identify a cell — Table 3's "Perfect" and Figure 4's "Perfect"
// must share a fingerprint, and -j must never split the cache.
func TestFingerprintExcludesOrchestration(t *testing.T) {
	base := mustFP(t, fpConfig(), 1)
	renamed := fpConfig()
	renamed.Variant.Name = "SomethingElse"
	if mustFP(t, renamed, 1) != base {
		t.Errorf("Variant.Name (a display label) changed the fingerprint")
	}
	orch := fpConfig()
	orch.Seeds = []int64{9, 8, 7}
	orch.Jobs = 16
	if mustFP(t, orch, 1) != base {
		t.Errorf("Seeds/Jobs (orchestration) changed the fingerprint")
	}
}

// TestFingerprintLockSharesSignatures pins the lock-baseline dedup: a
// Lock-mode cell never touches signatures, so every variant's lock
// baseline is one cell — and the behavior backs the canonicalization:
// the Stats really are identical across signature configs.
func TestFingerprintLockSharesSignatures(t *testing.T) {
	lockWith := func(sc sig.Config) RunConfig {
		rc := fpConfig()
		rc.Variant = Variant{Name: "Lock", Mode: workload.Lock, Sig: sc}
		return rc
	}
	perfect := lockWith(sig.Config{Kind: sig.KindPerfect})
	bs64 := lockWith(sig.Config{Kind: sig.KindBitSelect, Bits: 64})
	if mustFP(t, perfect, 1) != mustFP(t, bs64, 1) {
		t.Fatalf("lock baselines with different signature configs hash differently")
	}
	// TM cells must NOT share across signatures.
	tm := fpConfig()
	tm.Variant.Sig = sig.Config{Kind: sig.KindBitSelect, Bits: 64}
	if mustFP(t, tm, 1) == mustFP(t, fpConfig(), 1) {
		t.Fatalf("TM cells with different signatures hash equal")
	}
	// Behavior check at a tiny scale: the canonicalization is only sound
	// because Lock runs are signature-independent.
	a, err := RunOne(RunConfig{Workload: "Cholesky", Variant: perfect.Variant, Scale: testScale}, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunOne(RunConfig{Workload: "Cholesky", Variant: bs64.Variant, Scale: testScale}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats != b.Stats || a.Cycles != b.Cycles {
		t.Fatalf("lock-mode run depends on the signature config — canonicalization unsound")
	}
}

func TestFingerprintRejectsObservers(t *testing.T) {
	rc := fpConfig()
	rc.Sink = DiscardSink{}
	if _, err := Fingerprint(rc, 1); err == nil {
		t.Fatalf("observed cell produced a fingerprint")
	}
	if Cacheable(rc) {
		t.Fatalf("observed cell reported cacheable")
	}
}

// scalarPaths collects every bool/int/uint/float/string field path in a
// struct type, recursing through nested structs.
func scalarPaths(typ reflect.Type, prefix string, path []int, out *[]fieldPath) {
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		name := prefix + "." + f.Name
		p := append(append([]int{}, path...), i)
		switch f.Type.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64, reflect.String:
			*out = append(*out, fieldPath{name: name, path: p})
		case reflect.Struct:
			scalarPaths(f.Type, name, p, out)
		}
	}
}

type fieldPath struct {
	name string
	path []int
}

// flip mutates the scalar at path so its canonical encoding changes.
func flip(v reflect.Value, path []int) {
	for _, i := range path {
		v = v.Field(i)
	}
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 0.5)
	case reflect.String:
		v.SetString(v.String() + "x")
	}
}

// TestFingerprintCoversEveryField is the stale-cache guard: flipping any
// single behavior-relevant field — every Params scalar, the workload,
// scale, thread count, bounds, variant mode and signature, every oracle
// and fault-plan knob — must change the hash. A field the canonicalizer
// silently skipped would alias two different cells and serve one's
// results as the other's.
func TestFingerprintCoversEveryField(t *testing.T) {
	base := mustFP(t, fpConfig(), 1)

	// Every scalar field of Params, except the three Fingerprint
	// overwrites deliberately: Seed (replaced by the run seed),
	// Signature (replaced by the variant's), and Sink (must be nil).
	var params []fieldPath
	scalarPaths(reflect.TypeOf(Params{}), "Params", nil, &params)
	skip := map[string]bool{"Params.Seed": true}
	for _, fp := range params {
		if skip[fp.name] || len(fp.name) >= len("Params.Signature") && fp.name[:16] == "Params.Signature" {
			continue
		}
		rc := fpConfig()
		p := *rc.Params
		flip(reflect.ValueOf(&p).Elem(), fp.path)
		rc.Params = &p
		if mustFP(t, rc, 1) == base {
			t.Errorf("flipping %s did not change the fingerprint", fp.name)
		}
	}

	// The variant's signature config flows in via Variant.Sig.
	var sigFields []fieldPath
	scalarPaths(reflect.TypeOf(sig.Config{}), "Variant.Sig", nil, &sigFields)
	for _, fp := range sigFields {
		rc := fpConfig()
		flip(reflect.ValueOf(&rc.Variant.Sig).Elem(), fp.path)
		if mustFP(t, rc, 1) == base {
			t.Errorf("flipping %s did not change the fingerprint", fp.name)
		}
	}

	// Oracle and fault-plan knobs.
	for _, typ := range []struct {
		name string
		mut  func(rc *RunConfig, path []int)
		rt   reflect.Type
	}{
		{"Checks", func(rc *RunConfig, p []int) { flip(reflect.ValueOf(&rc.Checks).Elem(), p) }, reflect.TypeOf(CheckConfig{})},
		{"Fault", func(rc *RunConfig, p []int) { flip(reflect.ValueOf(&rc.Fault).Elem(), p) }, reflect.TypeOf(FaultPlan{})},
	} {
		var fields []fieldPath
		scalarPaths(typ.rt, typ.name, nil, &fields)
		for _, fp := range fields {
			rc := fpConfig()
			typ.mut(&rc, fp.path)
			if mustFP(t, rc, 1) == base {
				t.Errorf("flipping %s did not change the fingerprint", fp.name)
			}
		}
	}

	// Top-level cell knobs.
	muts := map[string]func(*RunConfig){
		"Workload":     func(rc *RunConfig) { rc.Workload = "Mp3d" },
		"Scale":        func(rc *RunConfig) { rc.Scale = rc.Scale + 0.5 },
		"Threads":      func(rc *RunConfig) { rc.Threads = 4 },
		"MaxCycles":    func(rc *RunConfig) { rc.MaxCycles = 1 << 30 },
		"Variant.Mode": func(rc *RunConfig) { rc.Variant.Mode = workload.Lock },
	}
	for name, mut := range muts {
		rc := fpConfig()
		mut(&rc)
		if mustFP(t, rc, 1) == base {
			t.Errorf("mutating %s did not change the fingerprint", name)
		}
	}
}

// FuzzFingerprint fuzzes the canonicalizer's two obligations: equal
// configs hash equal, and any single-knob difference hashes different.
func FuzzFingerprint(f *testing.F) {
	f.Add(int64(1), 0.25, 4, uint8(0), 2048, uint64(0))
	f.Add(int64(-7), 1.0, 0, uint8(1), 64, uint64(50_000))
	f.Add(int64(0), 0.0, 32, uint8(2), 1, uint64(1))
	f.Fuzz(func(t *testing.T, seed int64, scale float64, threads int, kind uint8, bits int, maxCycles uint64) {
		build := func() RunConfig {
			p := DefaultParams()
			return RunConfig{
				Workload: "Raytrace",
				Variant: Variant{
					Name: "fuzz",
					Mode: workload.Mode(kind % 2),
					Sig:  sig.Config{Kind: sig.KindBitSelect, Bits: 1 + (bits&0xFFFF)%8192},
				},
				Scale:     scale,
				Threads:   threads,
				MaxCycles: Cycle(maxCycles),
				Params:    &p,
			}
		}
		a, err := Fingerprint(build(), seed)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Fingerprint(build(), seed)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("same inputs, different fingerprints: %s vs %s", a, b)
		}
		if c, _ := Fingerprint(build(), seed+1); c == a {
			t.Fatalf("seed change kept the fingerprint")
		}
		bumped := build()
		bumped.Scale = scale + 1
		// Only require a different hash when the bump changed the
		// *effective* scale: Scale 0 defaults to 1.0 (so 0 and 1 are the
		// same cell), NaN+1 is still NaN, +Inf+1 is still +Inf.
		eff := func(s float64) float64 {
			if s == 0 {
				return 1.0
			}
			return s
		}
		if math.Float64bits(eff(bumped.Scale)) != math.Float64bits(eff(scale)) {
			if c, _ := Fingerprint(bumped, seed); c == a {
				t.Fatalf("scale change kept the fingerprint")
			}
		}
		flipped := build()
		flipped.Variant.Mode = workload.Mode((kind + 1) % 2)
		if c, _ := Fingerprint(flipped, seed); c == a {
			t.Fatalf("mode change kept the fingerprint")
		}
	})
}
