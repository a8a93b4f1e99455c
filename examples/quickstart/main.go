// Quickstart: the paper's Example 1. A building's security cameras emit
// face-recognition events; we detect a person entering through the main
// gate (camera A), crossing the lobby (camera B) and reaching the
// restricted area (camera C) within ten minutes.
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

	// PATTERN SEQ(A a, B b, C c)
	// WHERE a.person_id = b.person_id AND b.person_id = c.person_id
	// WITHIN 10 minutes
	pb := acep.NewPattern(schema, acep.Seq, 10*acep.Minute)
	a := pb.Event(camA)
	b := pb.Event(camB)
	c := pb.Event(camC)
	pb.WhereEq(a, "person_id", b, "person_id")
	pb.WhereEq(b, "person_id", c, "person_id")
	pattern := pb.MustBuild()
	fmt.Println("pattern:", pattern)

	eng, err := acep.NewEngine(pattern, acep.Config{
		NewPolicy: func() acep.Policy { return acep.NewInvariantPolicy(acep.InvariantOptions{}) },
		OnMatch: func(m *acep.Match) {
			fmt.Printf("ALERT: person %.0f took the route A->B->C (%s)\n",
				m.Events[a].Attr(0), m)
		},
	})
	if err != nil {
		panic(err)
	}

	// A small handcrafted stream: person 7 walks the full route; person 9
	// is seen at A and C but never at B, so no alert fires for them.
	events := []acep.Event{
		{Type: camA, TS: 1 * acep.Minute, Seq: 1, Attrs: []float64{7}},
		{Type: camA, TS: 2 * acep.Minute, Seq: 2, Attrs: []float64{9}},
		{Type: camB, TS: 3 * acep.Minute, Seq: 3, Attrs: []float64{7}},
		{Type: camC, TS: 5 * acep.Minute, Seq: 4, Attrs: []float64{9}},
		{Type: camC, TS: 6 * acep.Minute, Seq: 5, Attrs: []float64{7}},
	}
	for i := range events {
		eng.Process(&events[i])
	}
	eng.Finish()

	m := eng.Metrics()
	fmt.Printf("processed %d events, detected %d match(es)\n", m.Events, m.Matches)
}
