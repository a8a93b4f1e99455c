package stats

import (
	"acep/internal/event"
	"acep/internal/pattern"
)

// Exact computes a precise Snapshot from a finite slice of events, with
// rates measured over the span of the slice and selectivities evaluated
// exhaustively over all event pairs. It is the ground truth against which
// the streaming estimators are tested, and a convenient way to seed an
// engine with a-priori statistics.
//
// Events need not be sorted. An empty slice yields zero rates and unit
// selectivities.
func Exact(pat *pattern.Pattern, events []event.Event) *Snapshot {
	n := pat.NumPositions()
	s := NewSnapshot(n)
	if len(events) == 0 {
		return s
	}
	minTS, maxTS := events[0].TS, events[0].TS
	lay := layoutColumns(pat)
	counts := make([]int, n)       // events per position
	cols := make([][][]float64, n) // cols[pos][c]: the values of attribute lay.attrs[pos][c]
	for i := range cols {
		cols[i] = make([][]float64, len(lay.attrs[i]))
	}
	for idx := range events {
		ev := &events[idx]
		if ev.TS < minTS {
			minTS = ev.TS
		}
		if ev.TS > maxTS {
			maxTS = ev.TS
		}
		for _, i := range pat.PositionsOfType(ev.Type) {
			counts[i]++
			for c, a := range lay.attrs[i] {
				cols[i][c] = append(cols[i][c], ev.Attrs[a])
			}
		}
	}
	span := float64(maxTS-minTS) / float64(event.Second)
	if span <= 0 {
		span = 1
	}
	for i := 0; i < n; i++ {
		s.Rates[i] = float64(counts[i]) / span
	}
	selOf := func(k int) float64 {
		pr := &pat.Preds[k]
		var rcol []float64
		if !pr.IsUnary() {
			rcol = cols[pr.R][lay.r[k]]
		}
		pass, total := countPred(pr, cols[pr.L][lay.l[k]], rcol)
		if total == 0 {
			return 1
		}
		return float64(pass) / float64(total)
	}
	for i := 0; i < n; i++ {
		for _, k := range pat.PredsAt(i) {
			s.Sel[i][i] *= selOf(k)
		}
		for j := i + 1; j < n; j++ {
			v := 1.0
			for _, k := range pat.PredsBetween(i, j) {
				v *= selOf(k)
			}
			s.SetSym(i, j, v)
		}
	}
	return s
}
