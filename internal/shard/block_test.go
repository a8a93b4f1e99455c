package shard_test

import (
	"testing"

	"acep/internal/engine"
	"acep/internal/match"
	"acep/internal/shard"
	"acep/internal/shard/shardtest"
	"acep/internal/wire"
)

// TestBlockReuseScenarios holds the sharded engine, whose workers hand
// their blocks back for reuse, against a reference that never reuses
// storage, on streams shaped to stretch or shrink how long a worker must
// hold a block (see shardtest.Scenarios). The consumer keeps every
// delivered match and renders them all only after Finish — by then the
// engine has reused most blocks many times over — so the comparison also
// holds the contract that a delivered match points into nothing the
// engine owns. Under the race detector returned blocks are poisoned, and
// a pointer left behind anywhere shows up here as a diverging record, a
// panic in type dispatch, or a reported race.
//
// Each scenario runs both ways a match leaves a worker: copied, and
// encoded into the cut's outbox slab (Options.EncodeMatch), where the
// consumer may read the bytes during the call only — it copies them, as
// the cluster node does, and decodes them after Finish. The slab is
// poisoned too when it goes back to its worker, so one returned before
// its last match was delivered fails the decode here.
func TestBlockReuseScenarios(t *testing.T) {
	const shards = 2
	for _, sc := range shardtest.Scenarios(t, shards) {
		for _, encoded := range []bool{false, true} {
			name := sc.Name
			if encoded {
				name += "/encoded"
			}
			t.Run(name, func(t *testing.T) {
				want := shardtest.Reference(t, sc, shards)
				var kept []shard.Tagged
				opts := shard.Options{
					Shards: shards, Batch: 64, KeyAttr: "key", Schema: sc.Schema,
					Patterns: sc.Specs, Tenants: sc.Tenants,
					OnTagged: func(tg shard.Tagged) {
						tg.Enc = append([]byte(nil), tg.Enc...)
						kept = append(kept, tg)
					},
				}
				if encoded {
					opts.EncodeMatch = wire.AppendMatchBody
				}
				eng, err := shard.New(nil, engine.Config{}, opts)
				if err != nil {
					t.Fatal(err)
				}
				for i := range sc.Events {
					if op, ok := sc.Ops[i]; ok {
						if op.Add != nil {
							err = eng.AddPattern(*op.Add)
						} else {
							err = eng.RemovePattern(op.Remove)
						}
						if err != nil {
							t.Fatal(err)
						}
					}
					eng.Process(&sc.Events[i])
				}
				eng.Finish()
				var keep match.Keeper
				for i := range kept {
					if !encoded {
						continue
					}
					keep.StepTo(kept[i].Seq)
					if kept[i].M, err = wire.DecodeMatchBody(kept[i].Enc, &keep); err != nil {
						t.Fatalf("match %d of %d, at %d of shard %d: %v", i, len(kept), kept[i].Seq, kept[i].Src, err)
					}
				}
				shardtest.RequireSame(t, kept, want)
			})
		}
	}
}

// TestBlockReuseScenariosEvaluator runs the scenarios that turn on what an
// evaluator's engines still hold — a plan replaced, a tenant gated, a
// shedder's span, a set that changes — one rung down: against bare
// evaluators that own their events' storage and release it on their own
// Floor, their caller reusing one event. Same reference, same comparison,
// same vacuity checks as the sharded rung above.
func TestBlockReuseScenariosEvaluator(t *testing.T) {
	const shards = 2
	run := map[string]bool{"plan-replaced": true, "tenant-gated": true, "shed-span": true, "add-remove": true}
	for _, sc := range shardtest.Scenarios(t, shards) {
		if !run[sc.Name] {
			continue
		}
		delete(run, sc.Name)
		t.Run(sc.Name, func(t *testing.T) {
			want := shardtest.Reference(t, sc, shards)
			shardtest.RequireSame(t, shardtest.Evaluators(t, sc, shards), want)
		})
	}
	if len(run) > 0 {
		t.Fatalf("scenarios %v are gone from the table", run)
	}
}
