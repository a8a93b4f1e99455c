package main

import (
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
)

func TestSplitFields(t *testing.T) {
	got, err := splitFields(`a.go  "x := 1\n\ty" "" ./p ^TestX$ -race`)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a.go", "x := 1\n\ty", "", "./p", "^TestX$", "-race"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("splitFields = %q, want %q", got, want)
	}
	if _, err := splitFields(`a.go "unterminated`); err == nil {
		t.Fatal("an unterminated quoted field was accepted")
	}
}

// TestTableApplies checks, without running any mutant, that every row of
// the committed table still applies: its old text is in its file exactly
// once, its package exists and its -run regexp compiles.
func TestTableApplies(t *testing.T) {
	root := filepath.Join("..", "..")
	rows, err := parseTable(filepath.Join(root, tablePath))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("the mutation table is empty")
	}
	for _, r := range rows {
		src, err := os.ReadFile(filepath.Join(root, r.file))
		if err != nil {
			t.Fatalf("line %d: %v", r.line, err)
		}
		if _, err := r.mutate(string(src)); err != nil {
			t.Fatal(err)
		}
		if st, err := os.Stat(filepath.Join(root, r.pkg)); err != nil || !st.IsDir() {
			t.Fatalf("line %d: package %s is not a directory", r.line, r.pkg)
		}
		if _, err := regexp.Compile(r.run); err != nil {
			t.Fatalf("line %d: %v", r.line, err)
		}
	}
}
