package multi_test

import (
	"testing"

	"acep/internal/event"
	"acep/internal/match"
	"acep/internal/match/matchtest"
	"acep/internal/multi"
	"acep/internal/rungtest"
)

// TestTable runs the table one rung below the shard workers: a bare
// evaluator per partition that owns its events' storage and releases it
// on its own Floor, its caller feeding one reused event overwritten after
// every Process (matchtest.Reused).
func TestTable(t *testing.T) {
	rungtest.Run(t, rungtest.Rung{Name: "evaluator", Expect: rungtest.Evaluator, Run: func(t *testing.T, row rungtest.Row, rec *rungtest.Recorder) rungtest.Metrics {
		set := rungtest.Analyze(t, row)
		var caller matchtest.Reused
		return rungtest.Partitioned(t, row, rec, func(onMatch func(uint32, *match.Match)) *multi.Evaluator {
			v, err := multi.NewEvaluator(set, multi.Options{Budgets: row.Tenants, OnMatch: onMatch})
			if err != nil {
				t.Fatal(err)
			}
			return v
		}, func(v *multi.Evaluator, ev *event.Event) { caller.Feed(ev, v.Process) })
	}})
}
