package cli

import (
	"flag"
	"reflect"
	"strings"
	"testing"

	"acep/internal/core"
	"acep/internal/engine"
	"acep/internal/gen"
	"acep/internal/shard"
	"acep/internal/shed"
)

// documented returns the names a choice flag's help text lists after its
// colon, each the first word of a comma-separated item.
func documented(t *testing.T, name string) []string {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	PatternFlags(fs)
	EngineFlags(fs)
	f := fs.Lookup(name)
	if f == nil {
		t.Fatalf("no -%s flag", name)
	}
	_, list, ok := strings.Cut(f.Usage, ": ")
	if !ok {
		t.Fatalf("-%s help %q lists no names", name, f.Usage)
	}
	var names []string
	for _, item := range strings.Split(list, ", ") {
		names = append(names, strings.Fields(item)[0])
	}
	return names
}

// checkParser runs parse over every name the flag's help documents, hands
// each result to want's check for that name, requires want to cover
// exactly the documented names, and requires an unknown name to be
// refused with an error that lists every documented one.
func checkParser[T any](t *testing.T, flagName string, parse func(string) (T, error), want map[string]func(T) bool) {
	t.Helper()
	names := documented(t, flagName)
	if len(names) != len(want) {
		t.Errorf("-%s documents %q; the test checks %d names", flagName, names, len(want))
	}
	for _, name := range names {
		got, err := parse(name)
		if err != nil {
			t.Errorf("-%s %s: %v", flagName, name, err)
			continue
		}
		if check, ok := want[name]; !ok || !check(got) {
			t.Errorf("-%s %s parsed to %#v", flagName, name, got)
		}
	}
	_, err := parse("bogus")
	if err == nil {
		t.Fatalf("-%s bogus accepted", flagName)
	}
	for _, name := range names {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("-%s bogus: error %q does not list %s", flagName, err, name)
		}
	}
}

func is[T comparable](want T) func(T) bool { return func(got T) bool { return got == want } }

func TestModelFromString(t *testing.T) {
	checkParser(t, "model", engine.ModelFromString, map[string]func(engine.Model) bool{
		"greedy":  is(engine.GreedyNFA),
		"zstream": is(engine.ZStreamTree),
	})
}

func TestPolicyFromString(t *testing.T) {
	const th, d, k = 0.3, 0.2, 2
	builds := func(want core.Policy) func(func() core.Policy) bool {
		return func(newPolicy func() core.Policy) bool { return reflect.DeepEqual(newPolicy(), want) }
	}
	checkParser(t, "policy", func(s string) (func() core.Policy, error) { return core.PolicyFromString(s, th, d, k) },
		map[string]func(func() core.Policy) bool{
			"static":        builds(core.Static{}),
			"unconditional": builds(core.Unconditional{}),
			"threshold":     builds(&core.Threshold{T: th}),
			"invariant":     builds(&core.Invariant{K: k, D: d}),
		})
}

func TestShedPolicyFromString(t *testing.T) {
	const target = 0.4
	checkParser(t, "shed", func(s string) (shed.Policy, error) { return shed.PolicyFromString(s, target) },
		map[string]func(shed.Policy) bool{
			"none":          is[shed.Policy](nil),
			"random":        is[shed.Policy](shed.Random{P: target}),
			"rate-utility":  is[shed.Policy](shed.RateUtility{Target: target}),
			"pattern-aware": is[shed.Policy](shed.PatternAware{Target: target}),
		})
}

func TestOverflowFromString(t *testing.T) {
	checkParser(t, "overflow", shard.OverflowFromString, map[string]func(shard.Overflow) bool{
		"block": is(shard.Backpressure),
		"drop":  is(shard.DropNewest),
	})
}

// TestEngineFlags: the engine block declares exactly the flags a remote
// worker owns, and Node carries every one of them into the node config.
func TestEngineFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	PatternFlags(fs)
	e := EngineFlags(fs)
	want := []string{"check", "d", "k", "model", "overflow", "policy", "queue-cap", "shards",
		"shed", "shed-pms", "shed-rate", "shed-target", "shed-wait", "t"}
	if !reflect.DeepEqual(e.names, want) {
		t.Fatalf("engine flags %q, want %q", e.names, want)
	}
	for _, name := range []string{"kind", "size", "window"} {
		if e.Declares(name) {
			t.Errorf("-%s is a pattern flag, not an engine flag", name)
		}
	}
	if err := fs.Parse([]string{"-model", "zstream", "-policy", "threshold", "-t", "0.5", "-check", "100",
		"-shed", "random", "-shed-target", "0.6", "-shed-rate", "50", "-shards", "3", "-queue-cap", "64",
		"-overflow", "drop"}); err != nil {
		t.Fatal(err)
	}
	nc, err := e.Node()
	if err != nil {
		t.Fatal(err)
	}
	sc := nc.Engine.Shedding
	if nc.Engine.Model != engine.ZStreamTree || nc.Engine.CheckEvery != 100 ||
		!reflect.DeepEqual(nc.Engine.NewPolicy(), &core.Threshold{T: 0.5}) ||
		sc.Policy != (shed.Random{P: 0.6}) || sc.Budget != (shed.Budget{EventsPerSec: 50}) ||
		nc.Shards != 3 || nc.QueueCap != 64 || nc.Overflow != shard.DropNewest {
		t.Errorf("node config %+v", nc)
	}
	fs = flag.NewFlagSet("test", flag.ContinueOnError)
	e = EngineFlags(fs)
	if err := fs.Parse([]string{"-shed", "random"}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Node(); err == nil || !strings.Contains(err.Error(), "budget") {
		t.Errorf("-shed without a budget: err = %v", err)
	}
}

func TestKindFromString(t *testing.T) {
	checkParser(t, "kind", gen.KindFromString, map[string]func(gen.Kind) bool{
		"sequence":    is(gen.Sequence),
		"conjunction": is(gen.Conjunction),
		"negation":    is(gen.Negation),
		"kleene":      is(gen.Kleene),
		"composite":   is(gen.Composite),
	})
}
