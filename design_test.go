package logtmse

import (
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// moduleRow matches a row of DESIGN.md §3's module table whose first
// cell names an internal package.
var moduleRow = regexp.MustCompile("^\\| `internal/([a-z0-9]+)` \\|")

// TestDesignInventoryMatchesPackages: DESIGN.md §3's module table lists
// every internal package, and nothing else. A package added without a
// row, or deleted while its row stays, fails here.
func TestDesignInventoryMatchesPackages(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sec, ok := strings.Cut(string(doc), "\n## 3. ")
	if !ok {
		t.Fatal("DESIGN.md has no section 3")
	}
	sec, _, _ = strings.Cut(sec, "\n## ")
	rows := map[string]bool{}
	for _, line := range strings.Split(sec, "\n") {
		if m := moduleRow.FindStringSubmatch(line); m != nil {
			if rows[m[1]] {
				t.Errorf("DESIGN.md §3 lists internal/%s twice", m[1])
			}
			rows[m[1]] = true
		}
	}

	entries, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	dirs := map[string]bool{}
	for _, e := range entries {
		if e.IsDir() {
			dirs[e.Name()] = true
		}
	}

	var missing, stale []string
	for d := range dirs {
		if !rows[d] {
			missing = append(missing, d)
		}
	}
	for r := range rows {
		if !dirs[r] {
			stale = append(stale, r)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	if len(missing) > 0 {
		t.Errorf("internal packages with no DESIGN.md §3 row: %v", missing)
	}
	if len(stale) > 0 {
		t.Errorf("DESIGN.md §3 rows with no internal package: %v", stale)
	}
}
