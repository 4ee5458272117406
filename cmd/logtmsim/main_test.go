package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runArgs runs the command with args and returns its exit code and
// stderr.
func runArgs(t *testing.T, args ...string) (int, string) {
	t.Helper()
	dir := t.TempDir()
	errf, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	outf, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	oldArgs, oldFlags, oldErr, oldOut := os.Args, flag.CommandLine, os.Stderr, os.Stdout
	defer func() { os.Args, flag.CommandLine, os.Stderr, os.Stdout = oldArgs, oldFlags, oldErr, oldOut }()
	os.Args = append([]string{"logtmsim"}, args...)
	flag.CommandLine = flag.NewFlagSet("logtmsim", flag.ContinueOnError)
	os.Stderr, os.Stdout = errf, outf
	code := run()
	errf.Close()
	outf.Close()
	stderr, err := os.ReadFile(errf.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(stderr)
}

// TestSnapEveryProvesTheLayer: -snap-every must capture mid-run and
// replay bit-identically on every workload, Cholesky included.
func TestSnapEveryProvesTheLayer(t *testing.T) {
	code, stderr := runArgs(t, "-workload", "Cholesky", "-variant", "BS", "-scale", "0.05", "-snap-every", "2000")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "bit-identical") || strings.Contains(stderr, " 0 snapshots") {
		t.Errorf("self-check did not capture and replay:\n%s", stderr)
	}
}

// TestSnapEveryNothingCaptured: a stride longer than the run captures
// nothing, and the command must say so and fail rather than report a
// vacuous bit-identical replay.
func TestSnapEveryNothingCaptured(t *testing.T) {
	code, stderr := runArgs(t, "-workload", "Mp3d", "-scale", "0.02", "-snap-every", "100000000")
	if code == 0 {
		t.Errorf("exit 0 with nothing captured")
	}
	if !strings.Contains(stderr, "no snapshot captured") || strings.Contains(stderr, "bit-identical") {
		t.Errorf("stderr does not report the empty self-check:\n%s", stderr)
	}
}
