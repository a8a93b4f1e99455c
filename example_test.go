package acep_test

import (
	"fmt"

	"acep"
)

// Example detects the paper's camera pattern over a handcrafted stream.
func Example() {
	schema := acep.NewSchema()
	camA := schema.MustAddType("A", "person_id")
	camB := schema.MustAddType("B", "person_id")
	camC := schema.MustAddType("C", "person_id")

	pat, err := acep.ParsePattern(schema, `
		PATTERN SEQ(A a, B b, C c)
		WHERE a.person_id = b.person_id AND b.person_id = c.person_id
		WITHIN 10 minutes`)
	if err != nil {
		panic(err)
	}

	eng, err := acep.NewEngine(pat, acep.Config{
		NewPolicy: func() acep.Policy {
			return acep.NewInvariantPolicy(acep.InvariantOptions{Distance: 0.1})
		},
		OnMatch: func(m *acep.Match) {
			fmt.Printf("person %.0f reached the restricted area\n", m.Events[0].Attr(0))
		},
	})
	if err != nil {
		panic(err)
	}
	events := []acep.Event{
		{Type: camA, TS: 1 * acep.Minute, Seq: 1, Attrs: []float64{7}},
		{Type: camB, TS: 3 * acep.Minute, Seq: 2, Attrs: []float64{7}},
		{Type: camC, TS: 6 * acep.Minute, Seq: 3, Attrs: []float64{7}},
	}
	for i := range events {
		eng.Process(&events[i])
	}
	eng.Finish()
	// Output: person 7 reached the restricted area
}

// ExampleParsePattern shows the SASE-style grammar including negation
// and Kleene closure.
func ExampleParsePattern() {
	schema := acep.NewSchema()
	schema.MustAddType("A", "x")
	schema.MustAddType("B", "x")
	schema.MustAddType("G", "x")

	pat, err := acep.ParsePattern(schema,
		`PATTERN SEQ(A a, B+ b, ~G g) WHERE b.x = a.x AND g.x = a.x WITHIN 30 s`)
	if err != nil {
		panic(err)
	}
	fmt.Println(pat.Size()) // A and Kleene B count; negated G does not
	// Output: 2
}

// ExampleNewMetaInvariantPolicy runs the meta-adaptive policy on a
// synthetic workload.
func ExampleNewMetaInvariantPolicy() {
	w := acep.NewTrafficWorkload(acep.TrafficConfig{Types: 6, Events: 5000, Seed: 3})
	pat, err := w.Pattern(acep.SequencePatterns, 3, 100*acep.Millisecond)
	if err != nil {
		panic(err)
	}
	eng, err := acep.NewEngine(pat, acep.Config{
		NewPolicy: func() acep.Policy { return acep.NewMetaInvariantPolicy(0.1) },
	})
	if err != nil {
		panic(err)
	}
	for i := range w.Events {
		eng.Process(&w.Events[i])
	}
	eng.Finish()
	fmt.Println(eng.Metrics().Events == 5000)
	// Output: true
}
