package stream

import (
	"testing"

	"acep/internal/event"
)

// TestSortByTimeDegenerateInputs: nil and empty slices are fine.
func TestSortByTimeDegenerateInputs(t *testing.T) {
	SortByTime(nil)
	SortByTime([]event.Event{})
	one := []event.Event{{Type: 0, TS: 3, Seq: 77}}
	SortByTime(one)
	if one[0].Seq != 1 {
		t.Fatalf("single-event stream not renumbered: %v", one)
	}
}
