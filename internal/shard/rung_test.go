package shard_test

import (
	"testing"

	"acep/internal/engine"
	"acep/internal/pattern"
	"acep/internal/rungtest"
	"acep/internal/shard"
	"acep/internal/wire"
)

// TestTable runs the table on the sharded engine, whose workers hand their
// blocks back for reuse, fed per event. Under the race detector returned
// blocks are poisoned, and a pointer left behind anywhere shows up as a
// diverging record, a panic in type dispatch, or a reported race.
//
//   - shard: the set as Options.Patterns.
//   - shard/encoded: matches leave the workers encoded into the cut's
//     outbox slab (Options.EncodeMatch), readable during OnTagged only;
//     the slab is poisoned too when it goes back to its worker.
//   - shard/arg: a set of one through New's pattern argument, which must
//     deliver the identical bytes.
//   - shard/tree: every engine on the tree model.
//
// Where no control event seals a cut early, every cut is sealed after
// Batch events handed in, read or not.
func TestTable(t *testing.T) {
	solo := rungtest.Sharded
	solo.Solo = true
	rung := func(name string, e rungtest.Expect, arg, encode bool, model engine.Model) rungtest.Rung {
		return rungtest.Rung{Name: name, Expect: e, Run: func(t *testing.T, row rungtest.Row, rec *rungtest.Recorder) rungtest.Metrics {
			return runRow(t, row.WithModel(model), rec, arg, encode)
		}}
	}
	rungtest.Run(t,
		rung("shard", rungtest.Sharded, false, false, engine.GreedyNFA),
		rung("shard/encoded", rungtest.Sharded, false, true, engine.GreedyNFA),
		rung("shard/arg", solo, true, false, engine.GreedyNFA),
		rung("shard/tree", rungtest.Sharded, false, false, engine.ZStreamTree))
}

func runRow(t *testing.T, row rungtest.Row, rec *rungtest.Recorder, arg, encode bool) rungtest.Metrics {
	var marks []uint64
	opts := shard.Options{
		Shards: row.Shards, Batch: row.Batch, KeyAttr: "key", Schema: row.Schema,
		Patterns: row.Specs, Tenants: row.Tenants, OnTagged: rec.Tagged,
		OnProgress: func(upTo uint64) { marks = append(marks, upTo) },
	}
	var pat *pattern.Pattern
	var cfg engine.Config
	if arg {
		pat, cfg, opts.Patterns = row.Specs[0].Pattern, row.Specs[0].Config, nil
	}
	if encode {
		opts.EncodeMatch = wire.AppendMatchBody
	}
	eng, err := shard.New(pat, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range row.Events {
		if op, ok := row.Ops[i]; ok {
			if op.Add != nil {
				err = eng.AddPattern(*op.Add)
			} else {
				err = eng.RemovePattern(op.Remove)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		eng.Process(&row.Events[i])
	}
	eng.Finish()
	for _, upTo := range marks {
		if len(row.Ops) == 0 && upTo < uint64(len(row.Events)) && upTo%uint64(row.Batch) != 0 {
			t.Fatalf("progress at %d, not at a cut of %d events", upTo, row.Batch)
		}
	}
	return rungtest.Metrics{Arrived: eng.Metrics().EventsArrived, Patterns: rungtest.ByID(eng.PatternMetrics())}
}
