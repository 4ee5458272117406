package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"logtmse/internal/obs"
)

// runArgs runs the command with args and returns its exit code,
// stdout and stderr.
func runArgs(t *testing.T, args ...string) (code int, stdout, stderr string) {
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
	code = run()
	errf.Close()
	outf.Close()
	errb, err := os.ReadFile(errf.Name())
	if err != nil {
		t.Fatal(err)
	}
	outb, err := os.ReadFile(outf.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(outb), string(errb)
}

// TestSnapEveryProvesTheLayer: -snap-every must capture mid-run and
// replay bit-identically on every workload, Cholesky included.
func TestSnapEveryProvesTheLayer(t *testing.T) {
	code, _, stderr := runArgs(t, "-workload", "Cholesky", "-variant", "BS", "-scale", "0.05", "-snap-every", "2000")
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
	code, _, stderr := runArgs(t, "-workload", "Mp3d", "-scale", "0.02", "-snap-every", "100000000")
	if code == 0 {
		t.Errorf("exit 0 with nothing captured")
	}
	if !strings.Contains(stderr, "no snapshot captured") || strings.Contains(stderr, "bit-identical") {
		t.Errorf("stderr does not report the empty self-check:\n%s", stderr)
	}
}

// eventLine matches one Event.String line: cycle, hardware context,
// software thread, kind.
var eventLine = regexp.MustCompile(`^ *\d+ (c\d+(\.\d+)?|-) +(tid=\d+|-) +[a-z-]+( |$)`)

// TestTracePrintsFirstNEvents: -trace 25 prints exactly 25 lifecycle
// event lines through Event.String ahead of the summary, and the
// summary matches an untraced run of the same seed (the printer only
// observes).
func TestTracePrintsFirstNEvents(t *testing.T) {
	args := []string{"-workload", "Mp3d", "-variant", "BS", "-scale", "0.03", "-seed", "3"}
	code, plain, stderr := runArgs(t, args...)
	if code != 0 {
		t.Fatalf("untraced run: exit %d, stderr:\n%s", code, stderr)
	}
	code, traced, stderr := runArgs(t, append(args, "-trace", "25")...)
	if code != 0 {
		t.Fatalf("traced run: exit %d, stderr:\n%s", code, stderr)
	}
	lines := strings.SplitAfter(traced, "\n")
	if len(lines) < 25 {
		t.Fatalf("traced output has %d lines, want 25 events and a summary:\n%s", len(lines), traced)
	}
	kinds := map[string]bool{}
	for i, l := range lines[:25] {
		if !eventLine.MatchString(l) {
			t.Fatalf("line %d is not an event line: %q", i+1, l)
		}
		kinds[strings.Fields(l)[3]] = true
	}
	if !kinds["tx-begin"] || !kinds["nack"] {
		t.Errorf("first 25 events lack tx-begin or nack lines: %v", kinds)
	}
	if rest := strings.Join(lines[25:], ""); rest != plain {
		t.Errorf("traced summary differs from the untraced run:\n--- untraced\n%s--- traced, after 25 events\n%s", plain, rest)
	}
}

// TestInvalidScaleAndThreadsExit: a negative thread count or a scale
// that is negative or not finite fails the command with an error naming
// the flag's field, and prints no report.
func TestInvalidScaleAndThreadsExit(t *testing.T) {
	for _, c := range []struct {
		args  []string
		field string
	}{
		{[]string{"-threads", "-3"}, "Threads"},
		{[]string{"-scale", "-1"}, "Scale"},
		{[]string{"-scale", "NaN"}, "Scale"},
	} {
		args := append([]string{"-workload", "Mp3d", "-scale", "0.05"}, c.args...)
		code, stdout, stderr := runArgs(t, args...)
		if code != 1 || !strings.HasPrefix(stderr, "logtmsim: logtmse: "+c.field+" (") {
			t.Errorf("%v: exit %d, stderr %q; want exit 1 naming %s", c.args, code, stderr, c.field)
		}
		if stdout != "" {
			t.Errorf("%v: printed a report:\n%s", c.args, stdout)
		}
	}
}

// TestTraceOutStreamsTimeline: -trace-out writes a catapult document
// that decodes, with one tx slice per commit, and a run that fails
// exits 1 without leaving a partial file behind.
func TestTraceOutStreamsTimeline(t *testing.T) {
	out := filepath.Join(t.TempDir(), "t.json")
	code, stdout, stderr := runArgs(t, "-workload", "Cholesky", "-variant", "BS", "-scale", "0.02", "-json", "-trace-out", out)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "events to "+out) {
		t.Errorf("stderr does not report the export:\n%s", stderr)
	}
	var res struct{ Stats struct{ Commits uint64 } }
	if err := json.Unmarshal([]byte(stdout), &res); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc obs.CatapultTrace
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatalf("timeline does not decode: %v", err)
	}
	var slices uint64
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" && e.Name == obs.NameTx {
			slices++
		}
	}
	if slices == 0 || slices != res.Stats.Commits {
		t.Errorf("timeline has %d tx slices for %d commits", slices, res.Stats.Commits)
	}

	failed := filepath.Join(t.TempDir(), "failed.json")
	if code, _, stderr := runArgs(t, "-workload", "Cholesky", "-scale", "-1", "-trace-out", failed); code != 1 {
		t.Errorf("failing run: exit %d, want 1; stderr:\n%s", code, stderr)
	}
	if _, err := os.Stat(failed); !os.IsNotExist(err) {
		t.Errorf("failing run left %s behind (stat: %v)", failed, err)
	}
}
