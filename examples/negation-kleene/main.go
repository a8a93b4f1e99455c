// Negation and Kleene closure: the advanced pattern operators. The
// scenario extends the paper's camera example: raise an alert when a
// person is seen at the main gate (A) and later in the restricted area
// (C) with one or more lobby sightings in between (B*), but only if no
// security-guard checkpoint event (G) for that person occurred between
// the gate and the restricted area.
package main

import (
	"fmt"

	"acep"
)

func main() {
	schema := acep.NewSchema()
	camA := schema.MustAddType("A", "person_id")
	camB := schema.MustAddType("B", "person_id")
	camC := schema.MustAddType("C", "person_id")
	guard := schema.MustAddType("G", "person_id")

	pb := acep.NewPattern(schema, acep.Seq, 10*acep.Minute)
	a := pb.Event(camA)
	b := pb.Event(camB)
	g := pb.Event(guard)
	c := pb.Event(camC)
	pb.Kleene(b) // one or more lobby sightings
	pb.Negate(g) // no guard checkpoint in between
	pb.WhereEq(b, "person_id", a, "person_id")
	pb.WhereEq(g, "person_id", a, "person_id")
	pb.WhereEq(c, "person_id", a, "person_id")
	pat := pb.MustBuild()
	fmt.Println("pattern:", pat)

	eng, err := acep.NewEngine(pat, acep.Config{
		NewPolicy: func() acep.Policy { return acep.NewInvariantPolicy(acep.InvariantOptions{}) },
		OnMatch: func(m *acep.Match) {
			fmt.Printf("ALERT person %.0f: gate@%d, %d lobby sighting(s), restricted@%d\n",
				m.Events[a].Attr(0), m.Events[a].TS, len(m.Kleene[b]), m.Events[c].TS)
		},
	})
	if err != nil {
		panic(err)
	}

	mins := func(n int) acep.Time { return acep.Time(n) * acep.Minute }
	events := []acep.Event{
		// Person 1: full route, two lobby sightings, no guard -> alert
		// with a Kleene set of size 2.
		{Type: camA, TS: mins(1), Seq: 1, Attrs: []float64{1}},
		{Type: camB, TS: mins(2), Seq: 2, Attrs: []float64{1}},
		{Type: camB, TS: mins(3), Seq: 3, Attrs: []float64{1}},
		{Type: camC, TS: mins(4), Seq: 4, Attrs: []float64{1}},
		// Person 2: same route but a guard checked them in between -> no
		// alert.
		{Type: camA, TS: mins(5), Seq: 5, Attrs: []float64{2}},
		{Type: camB, TS: mins(6), Seq: 6, Attrs: []float64{2}},
		{Type: guard, TS: mins(7), Seq: 7, Attrs: []float64{2}},
		{Type: camC, TS: mins(8), Seq: 8, Attrs: []float64{2}},
		// Person 3: never seen in the lobby -> no alert (Kleene needs at
		// least one sighting).
		{Type: camA, TS: mins(9), Seq: 9, Attrs: []float64{3}},
		{Type: camC, TS: mins(11), Seq: 10, Attrs: []float64{3}},
		// Late watermark driver so open negation scopes close.
		{Type: camA, TS: mins(30), Seq: 11, Attrs: []float64{99}},
	}
	for i := range events {
		eng.Process(&events[i])
	}
	eng.Finish()
	fmt.Printf("detected %d match(es) from %d events\n",
		eng.Metrics().Matches, len(events))
}
