package acep_test

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// maxDesignLines bounds DESIGN.md: it states each mechanism once, and a
// file that outgrows this has started to repeat itself or its history.
const maxDesignLines = 800

// designExempt are the sections that index rather than state a
// mechanism, so they need not name a test.
var designExempt = []string{"Layer map", "Substitutions", "Experiment index"}

var (
	headingRe  = regexp.MustCompile(`^#{1,6}\s+(.+?)\s*$`)
	runInRe    = regexp.MustCompile(`^\s*(?:- )?\*\*([^*]+)\*\*`)
	testNameRe = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*`)
	testDeclRe = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	prRe       = regexp.MustCompile(`\bPR\s*#?\d+`)
	codeRe     = regexp.MustCompile("`([^`\\s]+)`")
	extRe      = regexp.MustCompile(`\.[a-z]{1,4}$`)
	citeRe     = regexp.MustCompile(`DESIGN\.md,?\s+\(?"([^"]+)"`)
	// A citation may wrap: a line break, its indentation and a comment
	// marker read as one space.
	wrapRe = regexp.MustCompile(`\s*\n\s*(?://|#)?\s*`)
)

// designInput is what the checker reads: the document, the test
// functions the repository declares, whether a repo path exists, and the
// files that may cite the document's titles.
type designInput struct {
	doc      string
	declared map[string]bool
	exists   func(path string) bool
	citing   map[string]string // file name → contents
}

// checkDesign returns one line per broken rule, each naming its rule:
//
//  1. the document is at most maxDesignLines lines;
//  2. it names no PR by number;
//  3. each heading's own body (up to the next heading) names a Test,
//     Fuzz or Benchmark function, designExempt aside;
//  4. each such name is declared as a func in a _test.go file;
//  5. each backticked repo path — one with a slash that ends in a file
//     extension or starts at a top directory — exists, from the root
//     or from internal/;
//  6. each title a citing file quotes after "DESIGN.md" (bare, after a
//     comma or in parentheses) names a heading or a bold run-in title.
func checkDesign(in designInput) []string {
	var out []string
	fail := func(rule int, format string, args ...any) {
		out = append(out, fmt.Sprintf("rule %d: %s", rule, fmt.Sprintf(format, args...)))
	}
	lines := strings.Split(strings.TrimSuffix(in.doc, "\n"), "\n")
	if len(lines) > maxDesignLines {
		fail(1, "%d lines, at most %d", len(lines), maxDesignLines)
	}
	var titles []string
	heading, named := "", true
	closeSection := func() {
		if !named {
			fail(3, "section %q names no test", heading)
		}
	}
	for i, l := range lines {
		if m := headingRe.FindStringSubmatch(l); m != nil {
			closeSection()
			heading, named = m[1], exemptSection(m[1])
			titles = append(titles, m[1])
			continue
		}
		if m := runInRe.FindStringSubmatch(l); m != nil {
			titles = append(titles, m[1])
		}
		if pr := prRe.FindString(l); pr != "" {
			fail(2, "line %d names %q", i+1, pr)
		}
		for _, name := range testNameRe.FindAllString(l, -1) {
			named = true
			if !in.declared[name] {
				fail(4, "line %d names %s, which no _test.go file declares", i+1, name)
			}
		}
		for _, m := range codeRe.FindAllStringSubmatch(l, -1) {
			if p := m[1]; isRepoPath(p) && !in.exists(p) && !in.exists("internal/"+p) {
				fail(5, "line %d names %s, which does not exist", i+1, p)
			}
		}
	}
	closeSection()
	for file, text := range in.citing {
		for _, m := range citeRe.FindAllStringSubmatch(wrapRe.ReplaceAllString(text, " "), -1) {
			if !citesTitle(titles, m[1]) {
				fail(6, "%s cites DESIGN.md %q, which is no heading or run-in title", file, m[1])
			}
		}
	}
	return out
}

func exemptSection(heading string) bool {
	for _, e := range designExempt {
		if strings.HasPrefix(heading, e) {
			return true
		}
	}
	return false
}

// isRepoPath reports whether a backticked span is a path into the
// repository rather than a name with a slash in it (a table row, a rung,
// a subtest).
func isRepoPath(s string) bool {
	if !strings.Contains(s, "/") || strings.ContainsAny(s, "*") {
		return false
	}
	if extRe.MatchString(s) {
		return true
	}
	for _, top := range []string{"internal/", "cmd/", "benchmark/", "examples/", "testdata/"} {
		if strings.HasPrefix(s, top) {
			return true
		}
	}
	return false
}

// citesTitle reports whether title names one of the document's titles:
// the title itself, or the title followed by a parenthetical or by the
// punctuation that ends a run-in title.
func citesTitle(titles []string, title string) bool {
	for _, t := range titles {
		if rest, ok := strings.CutPrefix(t, title); ok &&
			(rest == "" || strings.HasPrefix(rest, " (") || strings.HasPrefix(rest, ".") || strings.HasPrefix(rest, ":")) {
			return true
		}
	}
	return false
}

// repoDesignInput reads the checker's input from the repository.
func repoDesignInput(t *testing.T) designInput {
	t.Helper()
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	in := designInput{
		doc:      string(doc),
		declared: map[string]bool{},
		exists:   func(p string) bool { _, err := os.Stat(p); return err == nil },
		citing:   map[string]string{},
	}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if !strings.HasSuffix(name, ".go") && name != "ROADMAP.md" && name != "README.md" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		in.citing[path] = string(b)
		if strings.HasSuffix(name, "_test.go") {
			for _, m := range testDeclRe.FindAllStringSubmatch(string(b), -1) {
				in.declared[m[1]] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestDesign holds DESIGN.md to checkDesign's rules.
func TestDesign(t *testing.T) {
	for _, v := range checkDesign(repoDesignInput(t)) {
		t.Error(v)
	}
}

// TestDesignRules feeds the checker small documents, each breaking one
// rule, and requires that rule to fire, so the check cannot pass
// vacuously. The base document breaks none.
func TestDesignRules(t *testing.T) {
	const base = "# Doc\n\nIntro, pinned by `TestA`.\n\n" +
		"## Layer map\n\n`internal/x/x.go` and `x/y.go`.\n\n" +
		"## Mechanism\n\n**Run-in title.** Held by `TestA` and `BenchmarkB`; rows `pinned/*`.\n"
	declared := map[string]bool{"TestA": true, "BenchmarkB": true}
	exists := func(p string) bool { return p == "internal/x/x.go" || p == "internal/x/y.go" }
	const cite = "// see DESIGN.md (\"Mechanism\") and DESIGN.md\n// \"Run-in title\"."
	for _, c := range []struct {
		name, doc string
		cite      string
		rule      int
	}{
		{"base", base, "", 0},
		{"no test", base + "\n### Untested\n\nNothing pins this.\n", "", 3},
		{"undeclared test", base + "Also `TestGone`.\n", "", 4},
		{"missing path", base + "See `internal/x/gone.go`.\n", "", 5},
		{"pr number", base + "Added in PR 12.\n", "", 2},
		{"cited title", base, "// DESIGN.md \"No such section\"", 6},
		{"long", base + strings.Repeat("line\n", maxDesignLines), "", 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			citing := map[string]string{"a.go": cite}
			if c.cite != "" {
				citing["b.go"] = c.cite
			}
			got := checkDesign(designInput{doc: c.doc, declared: declared, exists: exists, citing: citing})
			if c.rule == 0 {
				if len(got) != 0 {
					t.Fatalf("the base document breaks rules: %q", got)
				}
				return
			}
			want := fmt.Sprintf("rule %d: ", c.rule)
			if len(got) != 1 || !strings.HasPrefix(got[0], want) {
				t.Fatalf("got %q, want one %q violation", got, want)
			}
		})
	}
}
