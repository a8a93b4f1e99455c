package engine_test

import (
	"testing"

	"acep/internal/engine"
	"acep/internal/match"
	"acep/internal/rungtest"
)

// TestTable runs the table on engine.New, on each model: one engine per
// pattern over the whole stream, unpartitioned — the single-threaded
// engine a partitioned deployment must reproduce. It delivers no merge
// tags, so its matches compare as a multiset.
func TestTable(t *testing.T) {
	rung := func(model engine.Model) rungtest.Rung {
		return rungtest.Rung{Name: "engine/" + model.String(), Expect: rungtest.Engine, Run: func(t *testing.T, row rungtest.Row, rec *rungtest.Recorder) rungtest.Metrics {
			m := rungtest.Metrics{Patterns: make(map[uint32]engine.Metrics)}
			for _, sp := range row.WithModel(model).Specs {
				cfg := sp.Config
				cfg.OnMatch = func(mt *match.Match) { rec.Match(sp.ID, mt) }
				eng, err := engine.New(sp.Pattern, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for i := range row.Events {
					eng.Process(&row.Events[i])
				}
				eng.Finish()
				m.Patterns[sp.ID] = eng.Metrics()
				m.Arrived = eng.Metrics().EventsArrived
			}
			return m
		}}
	}
	rungtest.Run(t, rung(engine.GreedyNFA), rung(engine.ZStreamTree))
}
