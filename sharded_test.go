package acep_test

import (
	"reflect"
	"sort"
	"testing"

	"acep"
)

// personPattern is the quick-start pattern: SEQ(A,B,C) joined on
// person_id — the canonical key-partitionable shape.
func personPattern(t *testing.T) (*acep.Schema, *acep.Pattern, []int) {
	t.Helper()
	schema := acep.NewSchema()
	camA := schema.MustAddType("A", "person_id")
	camB := schema.MustAddType("B", "person_id")
	camC := schema.MustAddType("C", "person_id")
	pb := acep.NewPattern(schema, acep.Seq, 10*acep.Minute)
	a, b, c := pb.Event(camA), pb.Event(camB), pb.Event(camC)
	pb.WhereEq(a, "person_id", b, "person_id")
	pb.WhereEq(b, "person_id", c, "person_id")
	return schema, pb.MustBuild(), []int{camA, camB, camC}
}

// TestFacadeSharded runs interleaved per-person event chains through the
// sharded engine at several shard counts and checks the match set against
// the single-threaded engine.
func TestFacadeSharded(t *testing.T) {
	schema, pat, types := personPattern(t)
	if err := acep.ShardPartitionable(pat, schema, "person_id"); err != nil {
		t.Fatal(err)
	}

	// 40 persons, each walking A→B→C, interleaved in time.
	var events []acep.Event
	seq := uint64(0)
	for step, typ := range types {
		for person := 0; person < 40; person++ {
			seq++
			events = append(events, acep.Event{
				Type:  typ,
				TS:    acep.Time(step*60+person) * acep.Second,
				Seq:   seq,
				Attrs: []float64{float64(person)},
			})
		}
	}

	var want []string
	single, err := acep.NewEngine(pat, acep.Config{
		OnMatch: func(m *acep.Match) { want = append(want, m.Key()) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range events {
		single.Process(&events[i])
	}
	single.Finish()
	sort.Strings(want)
	if len(want) == 0 {
		t.Fatal("reference found no matches")
	}

	for _, shards := range []int{1, 3, 8} {
		var got []string
		eng, err := acep.NewShardedEngine(pat, acep.Config{}, acep.ShardedConfig{
			Shards:  shards,
			Batch:   16,
			KeyAttr: "person_id",
			Schema:  schema,
			OnMatch: func(m *acep.Match) { got = append(got, m.Key()) },
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range events {
			eng.Process(&events[i])
		}
		eng.Finish()
		sort.Strings(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: %d matches vs %d", shards, len(got), len(want))
		}
		if eng.Metrics().Events != uint64(len(events)) {
			t.Fatalf("shards=%d: merged metrics missed events", shards)
		}
	}
}

// TestFacadeShardedRejectsUnpartitionable: a pattern without the
// connecting equality predicates must be refused.
func TestFacadeShardedRejectsUnpartitionable(t *testing.T) {
	schema := acep.NewSchema()
	a := schema.MustAddType("A", "person_id")
	b := schema.MustAddType("B", "person_id")
	pb := acep.NewPattern(schema, acep.Seq, acep.Minute)
	pb.Event(a)
	pb.Event(b) // no WhereEq: matches may span persons
	pat := pb.MustBuild()
	_, err := acep.NewShardedEngine(pat, acep.Config{}, acep.ShardedConfig{
		KeyAttr: "person_id",
		Schema:  schema,
	})
	if err == nil {
		t.Fatal("unpartitionable pattern accepted")
	}
}
