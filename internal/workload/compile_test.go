package workload

import (
	"flag"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"logtmse/internal/core"
	"logtmse/internal/txvm"
)

var update = flag.Bool("update", false, "rewrite golden disassemblies")

// compiledTapes builds one representative tape per compiled workload —
// TM mode, 4 threads, thread id 1, a fixed small unit count — the shape
// the golden disassemblies pin.
func compiledTapes(mode Mode) map[string]*txvm.Program {
	cfg := Config{Mode: mode, Threads: 4, Scale: 0.05}
	var counter atomic.Int64
	done := core.NewBarrier(cfg.Threads)
	return map[string]*txvm.Program{
		"bdb":       compileBDB(cfg, 8, 1, &counter),
		"cholesky":  compileCholesky(cfg, 8, 1, done),
		"raytrace":  compileRaytrace(cfg, 32, 1, &counter, done),
		"mp3d":      compileMp3d(cfg, 4, 1, &counter, done),
		"radiosity": compileRadiosity(cfg, 8, 1, &counter),
		"nest":      compileNestedMicro(cfg, 16, 1, &counter),
	}
}

// TestCompiledTapesValidate runs the ISA validator over every compiler's
// output in both modes (the lock-mode tapes use the spin-machine ops the
// TM tapes never emit).
func TestCompiledTapesValidate(t *testing.T) {
	for _, mode := range []Mode{TM, Lock} {
		for name, p := range compiledTapes(mode) {
			if err := p.Validate(); err != nil {
				t.Errorf("%s (mode %v): %v", name, mode, err)
			}
		}
	}
}

// TestGoldenDisassembly pins each compiler's TM-mode tape as a golden
// disassembly under testdata/. A diff here means the compiled program
// changed — which is fine exactly when intended: regenerate with
//
//	go test ./internal/workload -run TestGoldenDisassembly -update
//
// and let TestCompiledMatchesInterpreted prove the new tapes still
// mirror the closures.
func TestGoldenDisassembly(t *testing.T) {
	for name, p := range compiledTapes(TM) {
		t.Run(name, func(t *testing.T) {
			got := txvm.Disassemble(p)
			path := filepath.Join("testdata", name+".disasm")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("disassembly differs from %s:\n--- got ---\n%s", path, got)
			}
		})
	}
}
