package gen

import (
	"bytes"
	"testing"
)

func TestPatternSetRoundTrip(t *testing.T) {
	spec := PatternSetSpec{
		Dataset: "traffic", Types: 10, Keys: 16, Kind: Negation,
		Patterns: 32, Overlap: 3, Window: 150, Tenants: 4,
	}
	var buf bytes.Buffer
	if err := WritePatternSet(&buf, spec); err != nil {
		t.Fatal(err)
	}
	got, err := readPatternSet(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != spec {
		t.Fatalf("round trip: %+v != %+v", got, spec)
	}
}

func TestPatternSetReproducible(t *testing.T) {
	spec := PatternSetSpec{
		Dataset: "stocks", Types: 8, Kind: Sequence,
		Patterns: 12, Overlap: 3, Window: 90, Tenants: 2,
	}
	w1, err := spec.Workload(10, 7)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := spec.Workload(10, 7)
	if err != nil {
		t.Fatal(err)
	}
	a, err := spec.Build(w1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Build(w2)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) || len(a) != 12 {
		t.Fatalf("set sizes %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Tenant != b[i].Tenant {
			t.Fatalf("entry %d differs: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].Pattern.String() != b[i].Pattern.String() {
			t.Fatalf("entry %d pattern differs:\n%s\n%s", i, a[i].Pattern, b[i].Pattern)
		}
	}
	// Overlapping prefix: the first patterns' type sequences agree on
	// the prefix and diverge after.
	if a[0].Pattern.Positions[0].Type != a[1].Pattern.Positions[0].Type {
		t.Fatal("prefix types differ")
	}
}

func TestPatternSetRejectsBadInput(t *testing.T) {
	if _, err := readPatternSet(bytes.NewBufferString("dataset=traffic\nbogus=1\n")); err == nil {
		t.Fatal("unknown key accepted")
	}
	if _, err := readPatternSet(bytes.NewBufferString("dataset=traffic\n")); err == nil {
		t.Fatal("missing keys accepted")
	}
	w := Traffic(TrafficConfig{Types: 4, Events: 10})
	if _, err := w.OverlapPatterns(Sequence, 4, 4, 100, 1); err == nil {
		t.Fatal("overlap consuming all types accepted")
	}
	if _, err := w.OverlapPatterns(Composite, 4, 2, 100, 1); err == nil {
		t.Fatal("composite kind accepted")
	}
}
