package stream

import (
	"bytes"
	"strings"
	"testing"

	"acep/internal/event"
	"acep/internal/gen"
)

func TestCSVRoundTrip(t *testing.T) {
	for _, mk := range []func() *gen.Workload{
		func() *gen.Workload { return gen.Traffic(gen.TrafficConfig{Types: 4, Events: 500, Seed: 3}) },
		func() *gen.Workload { return gen.Stocks(gen.StocksConfig{Types: 3, Events: 500, Seed: 3}) },
	} {
		wk := mk()
		var buf bytes.Buffer
		if err := WriteCSV(&buf, wk); err != nil {
			t.Fatalf("WriteCSV: %v", err)
		}
		got, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("ReadCSV: %v", err)
		}
		if got.Domain != wk.Domain {
			t.Fatalf("domain %q != %q", got.Domain, wk.Domain)
		}
		if got.Schema.NumTypes() != wk.Schema.NumTypes() {
			t.Fatal("type count mismatch")
		}
		if len(got.Events) != len(wk.Events) {
			t.Fatalf("event count %d != %d", len(got.Events), len(wk.Events))
		}
		for i := range wk.Events {
			a, b := &wk.Events[i], &got.Events[i]
			if a.Type != b.Type || a.TS != b.TS || a.Seq != b.Seq {
				t.Fatalf("event %d header mismatch: %v vs %v", i, a, b)
			}
			for j := range a.Attrs {
				if a.Attrs[j] != b.Attrs[j] {
					t.Fatalf("event %d attr %d: %v vs %v", i, j, a.Attrs[j], b.Attrs[j])
				}
			}
		}
		// Patterns must build over the reconstructed schema.
		if _, err := got.Pattern(gen.Sequence, 3, 100); err != nil {
			t.Fatalf("pattern over reloaded workload: %v", err)
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := map[string]string{
		"empty":      "",
		"no header":  "0,1,1,2,3\n",
		"bad types":  "#acep domain=traffic types=x attrs=a\n",
		"bad row":    "#acep domain=traffic types=2 attrs=speed,count\n0,1\n",
		"bad type":   "#acep domain=traffic types=2 attrs=speed,count\n9,1,1,1,1\n",
		"bad ts":     "#acep domain=traffic types=2 attrs=speed,count\n0,x,1,1,1\n",
		"bad seq":    "#acep domain=traffic types=2 attrs=speed,count\n0,1,x,1,1\n",
		"bad attr":   "#acep domain=traffic types=2 attrs=speed,count\n0,1,1,x,1\n",
		"attr count": "#acep domain=traffic types=2 attrs=speed,count\n0,1,1,1\n",
	}
	for name, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestReadCSVSkipsCommentsAndBlanks(t *testing.T) {
	in := "#acep domain=traffic types=1 attrs=speed,count\n\n# comment\n0,5,1,1.5,2\n"
	wk, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(wk.Events) != 1 || wk.Events[0].TS != 5 {
		t.Fatalf("events = %v", wk.Events)
	}
}

func TestSortByTime(t *testing.T) {
	evs := []event.Event{
		{Type: 0, TS: 30, Seq: 1},
		{Type: 1, TS: 10, Seq: 2},
		{Type: 2, TS: 10, Seq: 3},
		{Type: 0, TS: 20, Seq: 4},
	}
	SortByTime(evs)
	wantTS := []event.Time{10, 10, 20, 30}
	wantType := []int{1, 2, 0, 0} // stable for equal timestamps
	for i := range evs {
		if evs[i].TS != wantTS[i] || evs[i].Type != wantType[i] {
			t.Fatalf("order wrong at %d: %v", i, evs)
		}
		if evs[i].Seq != uint64(i+1) {
			t.Fatalf("seq not renumbered at %d", i)
		}
	}
	if Validate(evs) != -1 {
		t.Fatal("sorted stream invalid")
	}
}

func TestValidate(t *testing.T) {
	bad := []event.Event{{TS: 5, Seq: 1}, {TS: 4, Seq: 2}}
	if Validate(bad) != 1 {
		t.Fatal("decreasing ts not flagged")
	}
	badSeq := []event.Event{{TS: 1, Seq: 2}, {TS: 2, Seq: 2}}
	if Validate(badSeq) != 1 {
		t.Fatal("non-increasing seq not flagged")
	}
	if Validate(nil) != -1 {
		t.Fatal("empty stream flagged")
	}
}
