package gen

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"acep/internal/event"
)

// PatternSetSpec is the reproducible description of an overlapping-prefix
// pattern set: not the patterns themselves but the parameters that
// regenerate them, so a small text file written by acep-gen and read by
// acep-run -patternset pins the exact same set everywhere
// (OverlapPatterns is deterministic in these parameters).
type PatternSetSpec struct {
	// Dataset is the workload family the set is built against ("traffic"
	// or "stocks"); it fixes the schema and domain predicates.
	Dataset string
	// Types is the schema width the workload must be generated with.
	Types int
	// Keys is the workload's partition-key cardinality (0 = unkeyed).
	Keys int
	// Kind is the suffix flavor: sequence, negation or kleene.
	Kind Kind
	// Patterns is the set size.
	Patterns int
	// Overlap is the shared-prefix length in positions.
	Overlap int
	// Window is each pattern's time window.
	Window event.Time
	// Tenants assigns patterns round-robin over this many tenants.
	Tenants int
}

// Build regenerates the pattern set against a workload. The workload
// must match the spec's dataset parameters — the schema is structural,
// so a mismatch surfaces as a build error or a type-count error here.
func (s PatternSetSpec) Build(w *Workload) ([]PatternSetEntry, error) {
	if w.Domain != s.Dataset {
		return nil, fmt.Errorf("gen: pattern set is for dataset %q, workload is %q", s.Dataset, w.Domain)
	}
	if w.Schema.NumTypes() != s.Types {
		return nil, fmt.Errorf("gen: pattern set wants %d types, workload has %d", s.Types, w.Schema.NumTypes())
	}
	return w.OverlapPatterns(s.Kind, s.Patterns, s.Overlap, s.Window, s.Tenants)
}

// Workload generates the matching workload for the spec.
func (s PatternSetSpec) Workload(events int, seed int64) (*Workload, error) {
	switch s.Dataset {
	case "traffic":
		return Traffic(TrafficConfig{Types: s.Types, Events: events, Seed: seed, Keys: s.Keys}), nil
	case "stocks":
		return Stocks(StocksConfig{Types: s.Types, Events: events, Seed: seed, Keys: s.Keys}), nil
	default:
		return nil, fmt.Errorf("gen: unknown dataset %q", s.Dataset)
	}
}

// KindFromString parses a Kind name as printed by Kind.String.
func KindFromString(s string) (Kind, error) {
	for _, k := range Kinds() {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("gen: unknown pattern kind %q (want one of %v)", s, Kinds())
}

// WritePatternSet writes the spec in its line-oriented key=value form.
func WritePatternSet(w io.Writer, s PatternSetSpec) error {
	_, err := fmt.Fprintf(w,
		"# acep pattern set (regenerated via gen.PatternSetSpec)\n"+
			"dataset=%s\ntypes=%d\nkeys=%d\nkind=%s\npatterns=%d\noverlap=%d\nwindow=%d\ntenants=%d\n",
		s.Dataset, s.Types, s.Keys, s.Kind, s.Patterns, s.Overlap, int64(s.Window), s.Tenants)
	return err
}

// readPatternSet parses a spec written by WritePatternSet. Unknown keys
// are rejected (the file is a contract, not a config grab-bag).
func readPatternSet(r io.Reader) (PatternSetSpec, error) {
	var s PatternSetSpec
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		key, val, ok := strings.Cut(text, "=")
		if !ok {
			return s, fmt.Errorf("gen: pattern set line %d: %q is not key=value", line, text)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		atoi := func() (int, error) {
			n, err := strconv.Atoi(val)
			if err != nil {
				return 0, fmt.Errorf("gen: pattern set line %d: %s=%q is not a number", line, key, val)
			}
			return n, nil
		}
		var err error
		switch key {
		case "dataset":
			s.Dataset = val
		case "types":
			s.Types, err = atoi()
		case "keys":
			s.Keys, err = atoi()
		case "kind":
			s.Kind, err = KindFromString(val)
		case "patterns":
			s.Patterns, err = atoi()
		case "overlap":
			s.Overlap, err = atoi()
		case "window":
			var n int
			n, err = atoi()
			s.Window = event.Time(n)
		case "tenants":
			s.Tenants, err = atoi()
		default:
			return s, fmt.Errorf("gen: pattern set line %d: unknown key %q", line, key)
		}
		if err != nil {
			return s, err
		}
	}
	if err := sc.Err(); err != nil {
		return s, err
	}
	if s.Dataset == "" || s.Types <= 0 || s.Patterns <= 0 || s.Overlap <= 0 || s.Window <= 0 {
		return s, fmt.Errorf("gen: pattern set is missing required keys (dataset/types/patterns/overlap/window)")
	}
	if s.Tenants < 1 {
		s.Tenants = 1
	}
	return s, nil
}

// LoadPatternSet reads a spec file from disk.
func LoadPatternSet(path string) (PatternSetSpec, error) {
	f, err := os.Open(path)
	if err != nil {
		return PatternSetSpec{}, err
	}
	defer f.Close()
	return readPatternSet(f)
}
