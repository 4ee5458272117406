package main

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"syscall"
	"testing"
	"time"

	"logtmse"
	"logtmse/internal/sweep"
)

// The goldens under testdata/ are the standard output of the seven
// separate commands reproduce replaced, captured before the fold at
// -scale 0.02. The ablation golden (-seeds 1) is the whole campaign,
// its closing "Expected shapes" text included.
var goldens = []struct {
	file string
	args []string
}{
	{"figure4.txt", []string{"figure4", "-scale", "0.02", "-seeds", "2"}},
	{"report.txt", []string{"-scale", "0.02", "-seeds", "2"}},
	{"table2.txt", []string{"table2", "-scale", "0.02", "-seed", "1"}},
	{"table3.txt", []string{"table3", "-scale", "0.02", "-seed", "1"}},
	{"victims.txt", []string{"victims", "-scale", "0.02", "-seed", "1"}},
	{"vtable.txt", []string{"vtable"}},
}

func readGolden(t *testing.T, file string) string {
	t.Helper()
	want, err := os.ReadFile("testdata/" + file)
	if err != nil {
		t.Fatal(err)
	}
	return string(want)
}

// TestGoldens renders every campaign at -j 1 and -j 4 and requires the
// bytes the replaced commands printed. Each -j pass shares one
// -cache-dir across its campaigns, so a cell two campaigns share (the
// Figure 4 grid, the seed-1 Perfect cells) simulates once per pass, as
// it does within one campaign through the in-memory tier. Ablation is
// rendered through the same cache, and not under -short.
func TestGoldens(t *testing.T) {
	ablation := logtmse.AblationExperiment(0.02, []int64{1})
	for _, j := range []int{1, 4} {
		dir := t.TempDir()
		for _, g := range goldens {
			args := g.args
			if g.args[0] != "vtable" { // a single scripted scenario, no sweep
				args = append(args[:len(args):len(args)], "-j", fmt.Sprint(j), "-cache-dir", dir)
			}
			var out, errOut bytes.Buffer
			if code := run(context.Background(), args, &out, &errOut); code != 0 {
				t.Fatalf("reproduce %v exited %d: %s", args, code, errOut.String())
			}
			if want := readGolden(t, g.file); out.String() != want {
				t.Errorf("reproduce %v differs from testdata/%s:\n%s", args, g.file, out.String())
			}
		}
		if testing.Short() {
			continue
		}
		var out bytes.Buffer
		if err := ablation.Run(context.Background(), &out, j, logtmse.NewResultCache(dir, 0)); err != nil {
			t.Fatal(err)
		}
		if want := readGolden(t, "ablation.txt"); out.String() != want {
			t.Errorf("ablation at -j %d differs from testdata/ablation.txt:\n%s", j, out.String())
		}
	}
}

// TestExitCodes pins the command's exit statuses: 2 for a flag the
// campaign does not read (never silently ignored) or any other usage
// error, 1 for a failed cell, 130 when interrupted.
func TestExitCodes(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []struct {
		ctx  context.Context
		args []string
		want int
	}{
		{context.Background(), []string{"vtable", "-scale", "1"}, 2},
		{context.Background(), []string{"vtable", "-j", "2"}, 2},
		{context.Background(), []string{"table2", "-seeds", "2"}, 2},
		{context.Background(), []string{"victims", "-threads", "8"}, 2},
		{context.Background(), []string{"figure4", "-out", "report.md"}, 2},
		{context.Background(), []string{"-workloads", "Mp3d"}, 2},
		{context.Background(), []string{"ablation", "-seed", "2"}, 2},
		{context.Background(), []string{"figure5"}, 2},
		{context.Background(), []string{"figure4", "-no-such-flag"}, 2},
		{context.Background(), []string{"figure4", "-scale", "0.02", "extra"}, 2},
		{context.Background(), []string{"figure4", "-scale", "0.02", "-seeds", "1", "-workloads", "NoSuchBench"}, 1},
		{cancelled, []string{"table2", "-scale", "0.02"}, 130},
	} {
		var out bytes.Buffer
		if got := run(c.ctx, c.args, &out, io.Discard); got != c.want {
			t.Errorf("reproduce %v exited %d, want %d", c.args, got, c.want)
		}
		if c.want == 2 && out.Len() != 0 {
			t.Errorf("reproduce %v wrote %q to stdout before rejecting its flags", c.args, out.String())
		}
	}
}

// TestRejectedCellsWriteNothing: a campaign whose cells cannot run
// exits 1 before writing anything, so redirected output never holds a
// partial report (a table header with no rows).
func TestRejectedCellsWriteNothing(t *testing.T) {
	for _, args := range [][]string{
		{"table2", "-scale", "-1"},
		{"figure4", "-scale", "-1", "-seeds", "1"},
		{"figure4", "-scale", "0.02", "-seeds", "1", "-workloads", "Mp3d,NoSuchBench"},
		{"-scale", "-1", "-seeds", "1"},
	} {
		var out, errOut bytes.Buffer
		if got := run(context.Background(), args, &out, &errOut); got != 1 {
			t.Errorf("reproduce %v exited %d, want 1", args, got)
		}
		if out.Len() != 0 {
			t.Errorf("reproduce %v wrote %q to stdout", args, out.String())
		}
		if errOut.Len() == 0 {
			t.Errorf("reproduce %v gave no reason on stderr", args)
		}
	}
}

// TestInterruptHelper is the child process of TestSecondSignalKills,
// selected by the argument after "--"; run directly it skips. It
// blocks inside a sweep cell that, like a livelocked simulation, never
// returns.
func TestInterruptHelper(t *testing.T) {
	if flag.Arg(0) != "interrupt-helper" {
		t.Skip("child process of TestSecondSignalKills")
	}
	ctx, stop := interruptContext()
	defer stop()
	sweep.Map(ctx, 1, 1, func(int) struct{} {
		fmt.Println("in cell")
		<-ctx.Done()
		fmt.Println("draining")
		for {
			time.Sleep(time.Hour)
		}
	})
}

// TestSecondSignalKills: the first SIGINT only cancels the campaign
// (the cell in flight keeps running), and the second one kills the
// process within 2 s even though that cell never finishes.
func TestSecondSignalKills(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-test.run=^TestInterruptHelper$", "--", "interrupt-helper")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	lines := bufio.NewScanner(stdout)
	expect := func(want string) {
		t.Helper()
		if !lines.Scan() || lines.Text() != want {
			t.Fatalf("helper printed %q, want %q", lines.Text(), want)
		}
	}
	expect("in cell")
	cmd.Process.Signal(os.Interrupt)
	expect("draining")
	cmd.Process.Signal(os.Interrupt)
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	select {
	case <-exited:
		ws := cmd.ProcessState.Sys().(syscall.WaitStatus)
		if !ws.Signaled() || ws.Signal() != syscall.SIGINT {
			t.Errorf("helper ended with %v, want death by SIGINT", cmd.ProcessState)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("helper still running 2 s after the second SIGINT")
	}
}
