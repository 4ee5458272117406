package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"logtmse/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

func TestSummarizeGolden(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("testdata", "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc obs.CatapultTrace
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	summarize(&out, &doc, 10)
	checkGolden(t, "trace.golden", out.Bytes())

	// -top truncates the conflict table deterministically.
	out.Reset()
	summarize(&out, &doc, 1)
	checkGolden(t, "trace_top1.golden", out.Bytes())
}

// TestRunFlags drives the command's flag handling: a negative -top is a
// usage error, not a slice bound on the conflict table, and a valid
// invocation prints the same summary as the golden.
func TestRunFlags(t *testing.T) {
	trace := filepath.Join("testdata", "trace.json")
	for _, args := range [][]string{
		{"-top", "-1", trace},
		{"-top", "-1000", trace},
		{},
		{"-no-such-flag", trace},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("txviz %q exited %d, want 2", args, code)
		}
		if out.Len() != 0 || !strings.Contains(strings.ToLower(errb.String()), "usage") {
			t.Errorf("txviz %q: stdout %q, stderr %q; want only a usage message", args, out.String(), errb.String())
		}
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-top", "1", trace}, &out, &errb); code != 0 {
		t.Fatalf("txviz -top 1 exited %d: %s", code, errb.String())
	}
	checkGolden(t, "trace_top1.golden", out.Bytes())
	if code := run([]string{filepath.Join("testdata", "no-such.json")}, &out, &errb); code != 1 {
		t.Errorf("missing trace exited %d, want 1", code)
	}
}

func TestPercentiles(t *testing.T) {
	if got := percentiles(nil, 0.5); got[0] != 0 {
		t.Errorf("empty percentiles = %v", got)
	}
	s := []float64{5, 1, 3, 2, 4}
	got := percentiles(s, 0, 0.5, 1, -1, 2)
	want := []float64{1, 3, 5, 1, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("q[%d] = %f, want %f", i, got[i], want[i])
		}
	}
	// Input must not be mutated.
	if s[0] != 5 {
		t.Errorf("percentiles sorted the caller's slice")
	}
}
