package cluster

import (
	"testing"

	"acep/internal/shard"
	"acep/internal/shard/shardtest"
)

// TestBlockReuseScenarios runs the sharded engine's block-reuse table
// (see shardtest.Scenarios) through a two-node in-process cluster, where
// every run is decoded into a block of the node's pool and
// comes back from the shard worker that consumed it, against the same
// reference that never reuses storage. One more row moves a shard
// mid-stream: its journaled history — timestamps far behind the
// destination's live traffic — is replayed into the destination's
// running session, out of the pool that session's busy worker returns
// its blocks to.
func TestBlockReuseScenarios(t *testing.T) {
	const shards = 2
	scs := shardtest.Scenarios(t, shards)
	moved := scs[0] // idle-shard: shard 1 moves while it is silent
	moved.Name = "migrate-replay"
	for _, sc := range append(scs, moved) {
		t.Run(sc.Name, func(t *testing.T) {
			want := shardtest.Reference(t, sc, shards)
			var kept []shard.Tagged
			nc := NodeConfig{Engine: sc.Config, Batch: 64, KeyAttr: "key", Schema: sc.Schema}
			opts := IngressOptions{
				Batch: 64, KeyAttr: "key", Schema: sc.Schema,
				Patterns: sc.Specs, Tenants: sc.Tenants,
				OnTagged: func(tg shard.Tagged) { kept = append(kept, tg) },
			}
			if sc.Name == moved.Name {
				opts.Recovery = &RecoveryConfig{Standby: SpawnStandbys(2, nc)}
			}
			ing := spawnCluster(t, nil, shards, nc, opts)
			var err error
			for i := range sc.Events {
				if op, ok := sc.Ops[i]; ok {
					if op.Add != nil {
						err = ing.AddPattern(*op.Add)
					} else {
						err = ing.RemovePattern(op.Remove)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				if sc.Name == moved.Name && i == 2800 {
					if err := ing.MigrateShard(1, 0); err != nil {
						t.Fatalf("live migration failed: %v", err)
					}
				}
				ing.Process(&sc.Events[i])
			}
			if err := ing.Finish(); err != nil {
				t.Fatal(err)
			}
			if mgs := ing.Migrations(); sc.Name == moved.Name && (len(mgs) != 1 || mgs[0].ReplayEvents == 0) {
				t.Fatalf("migrations %+v, want one that replayed journaled events", mgs)
			}
			shardtest.RequireSame(t, kept, want)
		})
	}
}
