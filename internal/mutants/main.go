// Command mutants runs the committed mutation table, testdata/mutants.txt:
// for each row it writes the row's file with the old text replaced to a
// temporary copy, runs the row's tests against it through `go test
// -overlay`, and requires them to fail. A row also fails when its old text
// is not in the file exactly once (the table follows refactors) and when
// the mutant does not build (a build error kills nothing).
//
// Run it from the module root:
//
//	go run ./internal/mutants
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

func main() {
	rows, err := parseTable(tablePath)
	if err != nil {
		fatal(err)
	}
	tmp, err := os.MkdirTemp("", "mutants")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(tmp)
	failed := 0
	for _, r := range rows {
		if err := r.kill(tmp); err != nil {
			failed++
			fmt.Printf("FAIL %s:%d %s\n%v\n", tablePath, r.line, r.file, err)
			continue
		}
		fmt.Printf("ok   %s:%d %s: killed by %s %s\n", tablePath, r.line, r.file, r.pkg, r.run)
	}
	if failed > 0 {
		fatal(fmt.Errorf("%d mutants not killed", failed))
	}
}

// kill runs the row's tests against its mutant and reports an error
// unless they fail.
func (r row) kill(tmp string) error {
	src, err := os.ReadFile(r.file)
	if err != nil {
		return err
	}
	mut, err := r.mutate(string(src))
	if err != nil {
		return err
	}
	abs, err := filepath.Abs(r.file)
	if err != nil {
		return err
	}
	mutPath := filepath.Join(tmp, fmt.Sprintf("row%d.go", r.line))
	if err := os.WriteFile(mutPath, []byte(mut), 0o644); err != nil {
		return err
	}
	overlay, err := json.Marshal(map[string]map[string]string{"Replace": {abs: mutPath}})
	if err != nil {
		return err
	}
	ovPath := filepath.Join(tmp, fmt.Sprintf("row%d.json", r.line))
	if err := os.WriteFile(ovPath, overlay, 0o644); err != nil {
		return err
	}
	args := append([]string{"test", "-count=1", "-vet=off", "-overlay", ovPath, "-run", r.run}, r.flags...)
	out, err := exec.Command("go", append(args, r.pkg)...).CombinedOutput()
	switch {
	case bytes.Contains(out, []byte("[build failed]")) || bytes.Contains(out, []byte("[setup failed]")):
		return fmt.Errorf("the mutant does not build:\n%s", out)
	case err == nil:
		return fmt.Errorf("the mutant survived: go %s passed", strings.Join(append(args, r.pkg), " "))
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mutants:", err)
	os.Exit(1)
}
