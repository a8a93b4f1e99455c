package bench

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"acep/internal/shed"
)

// shedScale keeps the shedding experiment fast while leaving enough
// same-key chains for recall differences to be statistically meaningful.
func shedScale() Scale {
	s := DefaultScale()
	s.Events = 20000
	return s
}

func TestSheddingExperiment(t *testing.T) {
	h := NewHarness(shedScale())
	d, err := h.Shedding("traffic", []float64{0.4}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.BaselineMatches == 0 {
		t.Fatal("baseline produced no matches")
	}
	byPolicy := map[string]ShedPoint{}
	for _, p := range d.Points {
		byPolicy[p.Policy] = p
		if p.Recall < 0 || p.Recall > 1 {
			t.Fatalf("%s: recall %v out of [0,1]", p.Policy, p.Recall)
		}
		if p.Matches > d.BaselineMatches {
			t.Fatalf("%s: shedding grew the match set (%d > %d)",
				p.Policy, p.Matches, d.BaselineMatches)
		}
	}
	rnd, ok1 := byPolicy["random"]
	pa, ok2 := byPolicy["pattern-aware"]
	if !ok1 || !ok2 {
		t.Fatalf("missing policies in %v", byPolicy)
	}
	// The headline claim of the shedding layer: at equal achieved drop
	// rate, protecting events that extend live partial matches retains
	// strictly more matches than uniform dropping.
	if math.Abs(rnd.Dropped-pa.Dropped) > 0.08 {
		t.Fatalf("drop rates not comparable: random %.3f vs pattern-aware %.3f",
			rnd.Dropped, pa.Dropped)
	}
	if pa.Recall <= rnd.Recall {
		t.Fatalf("pattern-aware recall %.3f not above random %.3f at equal drop rate",
			pa.Recall, rnd.Recall)
	}

	var buf bytes.Buffer
	d.Write(&buf)
	if !strings.Contains(buf.String(), "pattern-aware") {
		t.Fatalf("table output missing policies:\n%s", buf.String())
	}
	buf.Reset()
	if err := WriteJSON(&buf, d); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\"baseline_matches\"") {
		t.Fatalf("JSON output missing fields:\n%s", buf.String())
	}
}

// TestSheddingDeterministic: the whole experiment is a pure function of
// the scale — two runs must produce identical match counts per cell.
func TestSheddingDeterministic(t *testing.T) {
	run := func() *ShedData {
		h := NewHarness(shedScale())
		d, err := h.Shedding("traffic", []float64{0.3}, []string{"random", "pattern-aware"}, 0)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	a, b := run(), run()
	if len(a.Points) != len(b.Points) {
		t.Fatalf("point counts differ: %d vs %d", len(a.Points), len(b.Points))
	}
	for i := range a.Points {
		if a.Points[i].Matches != b.Points[i].Matches || a.Points[i].Dropped != b.Points[i].Dropped {
			t.Fatalf("cell %d differs: %+v vs %+v", i, a.Points[i], b.Points[i])
		}
	}
}

func TestShedPolicyNames(t *testing.T) {
	for _, n := range ShedPolicyNames() {
		p, err := shed.PolicyFromString(n, 0.5)
		if err != nil || p == nil {
			t.Fatalf("%s: %v", n, err)
		}
	}
}
