package main

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"logtmse/internal/core"
	"logtmse/internal/progen"
	"logtmse/internal/sweep"
)

func testOpts() runOpts {
	return runOpts{
		Checks:    true,
		Watchdog:  300_000,
		MaxCycles: 2_000_000,
	}
}

// TestCampaignSmoke runs a small slice of the real campaign across the
// full matrix: every seed must agree with the reference model in every
// cell. This is the harness's own tier-1 gate; the 500-seed campaign
// runs in CI.
func TestCampaignSmoke(t *testing.T) {
	cfgs := matrix()
	opts := testOpts()
	for seed := int64(1); seed <= 30; seed++ {
		rec := runSeed(seed, cfgs, opts, 300)
		if !rec.OK {
			detail := "(no divergence record)"
			if rec.Divergence != nil {
				detail = rec.Divergence.Config + ": " + rec.Divergence.Detail
			}
			t.Fatalf("seed %d diverged: %s", seed, detail)
		}
		if rec.Txs == 0 {
			t.Fatalf("seed %d generated a program with no transactions", seed)
		}
	}
}

// TestEngineBugRegressions replays the campaign seeds that exposed real
// engine bugs when the differential harness first ran, pinning their
// fixes: 178/203/284/299 caught sticky owners being released while the
// victimized block was still in the owner's signature (licensing a
// silent, unchecked E->M store); 185/234 caught fixed two-level
// nested-abort unwinding churning for 300k+ cycles without releasing
// the contended outer footprint; 302 caught the pre-access summary
// check aborting on an unarbitrable Bloom alias of a rescheduled
// thread's saved signature, livelocking permanently.
func TestEngineBugRegressions(t *testing.T) {
	cfgs := matrix()
	opts := testOpts()
	for _, seed := range []int64{178, 185, 203, 234, 284, 299, 302} {
		rec := runSeed(seed, cfgs, opts, 300)
		if !rec.OK {
			detail := "(no divergence record)"
			if rec.Divergence != nil {
				detail = rec.Divergence.Config + ": " + rec.Divergence.Detail
			}
			t.Errorf("regression seed %d diverged again: %s", seed, detail)
		}
	}
}

// TestSabotageCaught proves the harness is not blind: with the engine's
// undo walk deliberately skipping one record per aborted frame, the
// campaign must report a divergence and shrink it to a tiny repro.
func TestSabotageCaught(t *testing.T) {
	cfgs := matrix()
	opts := testOpts()
	opts.Sabotage = core.Sabotage{SkipUndoRecord: true}
	caught := 0
	minOps := 1 << 30
	for seed := int64(1); seed <= 24 && caught < 3; seed++ {
		rec := runSeed(seed, cfgs, opts, 300)
		if rec.OK {
			continue
		}
		caught++
		if rec.Divergence == nil {
			t.Fatalf("seed %d failed without a divergence record", seed)
		}
		if rec.Divergence.MinOps < minOps {
			minOps = rec.Divergence.MinOps
		}
		var min progen.Program
		if err := json.Unmarshal(rec.Divergence.MinProgram, &min); err != nil {
			t.Fatalf("seed %d: minimized program does not parse: %v", seed, err)
		}
		if err := min.Validate(); err != nil {
			t.Fatalf("seed %d: minimized program invalid: %v", seed, err)
		}
	}
	if caught == 0 {
		t.Fatal("sabotaged engine produced no divergence over 24 seeds — the harness is blind")
	}
	if minOps > 6 {
		t.Fatalf("smallest shrunk sabotage repro has %d ops, want <= 6", minOps)
	}
}

// TestParallelByteIdentity pins the determinism contract: the same seeds
// produce byte-identical reports for -j 1 and parallel execution.
func TestParallelByteIdentity(t *testing.T) {
	cfgs := matrix()
	opts := testOpts()
	seeds := campaignSeeds(1, 12)
	runAll := func(jobs int) []byte {
		runs, err := sweep.Map(context.Background(), len(seeds), jobs, func(i int) seedRecord {
			return runSeed(seeds[i], cfgs, opts, 300)
		})
		if err != nil {
			t.Fatal(err)
		}
		buf, err := json.Marshal(runs)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	serial := runAll(1)
	parallel := runAll(8)
	if string(serial) != string(parallel) {
		t.Fatal("parallel campaign report differs from serial")
	}
}

// TestOracleRejectsTamperedOutcome checks the oracle itself has teeth:
// corrupting a clean outcome's witness, memory or commit count must trip
// the corresponding check.
func TestOracleRejectsTamperedOutcome(t *testing.T) {
	cfg, ok := configByName("perfect-16c")
	if !ok {
		t.Fatal("matrix lost the perfect-16c cell")
	}
	opts := testOpts()
	prog := progen.Generate(3, progen.DeriveGenConfig(3))
	out, err := runSim(prog, cfg, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d := oracleCheck(prog, cfg, out); d != "" {
		t.Fatalf("clean run failed the oracle: %s", d)
	}
	tamper := func(name string, mutate func(*simOutcome)) {
		c := *out
		c.Order = append([]int(nil), out.Order...)
		c.Shared = append([]uint64(nil), out.Shared...)
		c.TxReads = make([][]uint64, len(out.TxReads))
		for i := range out.TxReads {
			c.TxReads[i] = append([]uint64(nil), out.TxReads[i]...)
		}
		mutate(&c)
		if oracleCheck(prog, cfg, &c) == "" {
			t.Errorf("oracle accepted outcome with %s", name)
		}
	}
	tamper("flipped witness bit", func(c *simOutcome) {
		for i := range c.TxReads {
			if len(c.TxReads[i]) > 0 {
				c.TxReads[i][0] ^= 1
				return
			}
		}
	})
	tamper("corrupted shared slot", func(c *simOutcome) { c.Shared[0] += 17 })
	tamper("dropped commit", func(c *simOutcome) { c.Order = c.Order[:len(c.Order)-1] })
	tamper("engine error", func(c *simOutcome) { c.Err = "boom" })
}

// TestWatchdogBackstop: the per-run cycle backstop turns a hung cell
// into an explained error instead of a stuck test process.
func TestMaxCyclesBackstop(t *testing.T) {
	cfg, ok := configByName("perfect-16c")
	if !ok {
		t.Fatal("matrix lost the perfect-16c cell")
	}
	opts := testOpts()
	opts.MaxCycles = 50 // absurdly small: every program overruns it
	prog := progen.Generate(5, progen.DeriveGenConfig(5))
	out, err := runSim(prog, cfg, 5, opts)
	if err != nil {
		t.Fatal(err)
	}
	if out.Err == "" {
		t.Fatal("50-cycle budget did not trip the backstop")
	}
}

// TestMatrixNamesUnique guards the report schema: cell names key the
// report and the cross-config oracle.
func TestMatrixNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range matrix() {
		if seen[c.Name] {
			t.Fatalf("duplicate matrix cell name %q", c.Name)
		}
		seen[c.Name] = true
		if _, ok := configByName(c.Name); !ok {
			t.Fatalf("configByName cannot resolve %q", c.Name)
		}
	}
	if len(seen) < 5 {
		t.Fatalf("matrix shrank to %d cells", len(seen))
	}
}

// runMain runs the command with args and returns its exit code and
// stderr.
func runMain(t *testing.T, args ...string) (int, string) {
	t.Helper()
	errf, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	oldArgs, oldFlags, oldErr := os.Args, flag.CommandLine, os.Stderr
	defer func() { os.Args, flag.CommandLine, os.Stderr = oldArgs, oldFlags, oldErr }()
	os.Args = append([]string{"difftest"}, args...)
	flag.CommandLine = flag.NewFlagSet("difftest", flag.ContinueOnError)
	os.Stderr = errf
	code := run()
	errf.Close()
	stderr, err := os.ReadFile(errf.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(stderr)
}

// TestTraceMatchesUntracedReport: -trace streams the traced cell's
// lifecycle events to stderr, one line each, and leaves the report
// byte-identical to the untraced run's.
func TestTraceMatchesUntracedReport(t *testing.T) {
	dir := t.TempDir()
	cell := []string{"-replay", "302", "-config", "bs256-os-sched"}
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	code, stderr := runMain(t, append(cell, "-out", a)...)
	if code != 0 {
		t.Fatalf("untraced run: exit %d, stderr:\n%s", code, stderr)
	}
	if strings.Contains(stderr, " tx-commit ") {
		t.Errorf("untraced run streamed events:\n%.500s", stderr)
	}
	code, stderr = runMain(t, append(cell, "-trace", "-out", b)...)
	if code != 0 {
		t.Fatalf("traced run: exit %d, stderr:\n%s", code, stderr)
	}
	if n := strings.Count(stderr, " tx-commit "); n == 0 {
		t.Errorf("traced run streamed no commit events:\n%.500s", stderr)
	}
	ra, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(ra) != string(rb) {
		t.Error("traced report differs from the untraced one")
	}
}
