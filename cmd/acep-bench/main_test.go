package main

import (
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"acep/internal/bench"
)

// TestDocMatchesRegistry keeps the hand-written package comment
// consistent with the registry that -list, -exp all and dispatch run
// from: every id -list shows is named there (by itself, by its
// <family>-* form, or inside a figA..figB range), and every `-exp id`
// example names an id that exists.
func TestDocMatchesRegistry(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc, _, ok := strings.Cut(string(src), "\npackage main")
	if !ok {
		t.Fatal("main.go has no package clause")
	}
	inRange := map[int]bool{}
	for _, m := range regexp.MustCompile(`fig(\d+)\.\.fig(\d+)`).FindAllStringSubmatch(doc, -1) {
		lo, _ := strconv.Atoi(m[1])
		hi, _ := strconv.Atoi(m[2])
		for n := lo; n <= hi; n++ {
			inRange[n] = true
		}
	}
	ids := map[string]bool{"all": true}
	for _, e := range bench.Experiments() {
		ids[e.ID] = true
		family, _, _ := strings.Cut(e.ID, "-")
		n, _ := strconv.Atoi(strings.TrimPrefix(e.ID, "fig"))
		if !strings.Contains(doc, e.ID) && !strings.Contains(doc, family+"-*") && !inRange[n] {
			t.Errorf("package comment does not mention experiment %s", e.ID)
		}
	}
	for _, m := range regexp.MustCompile(`-exp (\S+)`).FindAllStringSubmatch(doc, -1) {
		if !ids[m[1]] {
			t.Errorf("package comment shows `-exp %s`, which -list does not", m[1])
		}
	}
}
