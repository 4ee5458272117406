package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// goldenReports pins the sha256 of two campaign reports. Both must stay
// byte-identical across refactors and across every -j.
//
// The fault-mix campaign was re-pinned after the conflict-detection
// fixes the differential campaign surfaced (sticky owners retained
// while signature membership holds, progressive nested-abort
// escalation, summary checks moved to response time) — each changes
// abort/stall schedules, so the report bytes legitimately moved.
//
// The sabotage campaign is CI's bisect canary: every caught run carries
// its bisect record, run_error included, so any drift in how a cell is
// built, run, snapshotted or finished changes these bytes.
var goldenReports = []struct {
	name   string
	args   []string
	sha256 string
}{
	{"faults", []string{"-seeds", "12", "-scale", "0.03"},
		"648de3b4f2fadce110e91b8e4bc3685686f94d688974db8fec835cf15035ca57"},
	{"sabotage-bisect", []string{"-seeds", "8", "-sabotage", "-bisect"},
		"2d54899a40e0cebb7748ec98170f72c821a89ceb5760ad7dff5501875dfdef55"},
}

// TestReportByteIdentical builds the chaos binary, runs each pinned
// campaign serially and with 8 workers, and checks both reports against
// each other and the golden hash.
func TestReportByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the campaign binary")
	}
	bin := filepath.Join(t.TempDir(), "chaos")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, g := range goldenReports {
		run := func(jobs string) string {
			out := filepath.Join(t.TempDir(), g.name+"-"+jobs+".json")
			args := append([]string{"-j", jobs, "-out", out}, g.args...)
			if o, err := exec.Command(bin, args...).CombinedOutput(); err != nil {
				t.Fatalf("chaos %v: %v\n%s", args, err, o)
			}
			buf, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf)
			return hex.EncodeToString(sum[:])
		}
		serial := run("1")
		parallel := run("8")
		if serial != parallel {
			t.Errorf("%s: report differs between -j1 (%s) and -j8 (%s)", g.name, serial, parallel)
		}
		if serial != g.sha256 {
			t.Errorf("%s: report drifted from the golden:\n got %s\nwant %s", g.name, serial, g.sha256)
		}
	}
}
