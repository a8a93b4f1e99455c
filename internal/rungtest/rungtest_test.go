package rungtest

import (
	"slices"
	"testing"
)

// TestEveryRowReachesARung: every row runs on some rung above the
// reference, and every row of one pattern on the HA pair; no two rows
// share a name, so Lookup and -run find each.
func TestEveryRowReachesARung(t *testing.T) {
	seen := make(map[string]bool)
	for _, row := range Rows(t) {
		if seen[row.Name] {
			t.Errorf("two rows are named %q", row.Name)
		}
		seen[row.Name] = true
		if !slices.ContainsFunc(ladder, func(e Expect) bool { return e.Runs(row) }) {
			t.Errorf("%s: no rung above the reference runs the row", row.Name)
		}
		if len(row.Specs) == 1 && len(row.Ops) == 0 && !Pair.Runs(row) {
			t.Errorf("%s: the pair cannot run a row of one pattern", row.Name)
		}
	}
}
