package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// row is one mutant: in file, old (which must occur there exactly once)
// becomes new, and `go test -run run flags pkg` must then fail.
type row struct {
	line           int
	file, old, new string
	pkg, run       string
	flags          []string
}

// tablePath is the mutation table, relative to the module root.
const tablePath = "testdata/mutants.txt"

// parseTable reads a mutation table. A row is one line of
// whitespace-separated fields — file, old text, replacement, package,
// -run regexp, then any go test flags — where a field that starts with a
// double quote is a Go string literal (so it may hold spaces, tabs and
// newlines). Blank lines and lines starting with # are skipped.
func parseTable(path string) ([]row, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rows []row
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields, err := splitFields(text)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, n, err)
		}
		if len(fields) < 5 {
			return nil, fmt.Errorf("%s:%d: %d fields, want file, old, new, package, run and flags", path, n, len(fields))
		}
		if fields[1] == "" || fields[1] == fields[2] {
			return nil, fmt.Errorf("%s:%d: old text is empty or equal to its replacement", path, n)
		}
		rows = append(rows, row{line: n, file: fields[0], old: fields[1], new: fields[2],
			pkg: fields[3], run: fields[4], flags: fields[5:]})
	}
	return rows, sc.Err()
}

// splitFields splits a row into its fields, unquoting the quoted ones.
func splitFields(text string) ([]string, error) {
	var fields []string
	for text = strings.TrimLeft(text, " \t"); text != ""; text = strings.TrimLeft(text, " \t") {
		if text[0] == '"' {
			lit, err := strconv.QuotedPrefix(text)
			if err != nil {
				return nil, fmt.Errorf("bad quoted field at %.20q", text)
			}
			s, _ := strconv.Unquote(lit)
			fields = append(fields, s)
			text = text[len(lit):]
			continue
		}
		end := strings.IndexAny(text, " \t")
		if end < 0 {
			end = len(text)
		}
		fields = append(fields, text[:end])
		text = text[end:]
	}
	return fields, nil
}

// mutate returns src with the row's old text replaced, or an error when
// the old text is not in src exactly once.
func (r row) mutate(src string) (string, error) {
	if n := strings.Count(src, r.old); n != 1 {
		return "", fmt.Errorf("line %d: old text %q occurs %d times in %s, want once", r.line, r.old, n, r.file)
	}
	return strings.Replace(src, r.old, r.new, 1), nil
}
