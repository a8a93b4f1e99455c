package cluster

import (
	"fmt"
	"time"

	"acep/internal/engine"
	"acep/internal/event"
	"acep/internal/match"
	"acep/internal/multi"
	"acep/internal/pattern"
	recovery "acep/internal/recover"
	"acep/internal/shard"
	"acep/internal/shed"
)

// LocalConfig assembles an in-process cluster: worker nodes served inside
// this process, each behind a loopback Pipe — the transport a TCP
// deployment runs, without addresses to manage. This is the zero-setup
// way to run the cluster layer (and what the facade's NewClusterIngress
// builds when no addresses are given).
type LocalConfig struct {
	// Nodes is the worker-node count (default 2).
	Nodes int
	// ShardsPerNode is each node's local shard-engine count (default 1).
	ShardsPerNode int
	// Batch is the events-per-cut of the ingress and the local handoff
	// batch of every node (default 256).
	Batch int
	// QueueCap bounds each node's local ingestion queues (see
	// shard.Options).
	QueueCap int
	// Overflow selects the nodes' full-queue behavior.
	Overflow shard.Overflow
	// Key or KeyAttr+Schema selects the partition key (see shard.Options).
	Key     shard.KeyFunc
	KeyAttr string
	Schema  *event.Schema
	// OnMatch / OnTagged receive the merged match stream (exactly one).
	OnMatch  func(*match.Match)
	OnTagged func(shard.Tagged)
	// Patterns is the pattern set to host, for callers with more than one
	// pattern (pass pat nil to StartLocal): the nodes start bare and
	// matches arrive pattern-tagged through OnTagged. Same contract as
	// IngressOptions.Patterns.
	Patterns []multi.Spec
	// Tenants installs per-tenant admission budgets.
	Tenants map[uint32]shed.TenantBudget
	// OnNodeErr (optional) observes node-side session errors; transport
	// failures surface at the ingress regardless.
	OnNodeErr func(error)
	// Recover enables fault-tolerant failover: the ingress journals cuts
	// and, when a node dies, spawns a bare in-process standby (at most
	// Standbys of them, default 2) that adopts the lost shard block via
	// pattern shipping and watermark replay.
	Recover  bool
	Standbys int
	// HeartbeatTimeout / MaxJournalBytes / OnFailover tune detection,
	// the journal bound and failover observation (see RecoveryConfig).
	HeartbeatTimeout time.Duration
	MaxJournalBytes  int64
	OnFailover       func(recovery.Failover)
	// Elastic, when non-nil, enables and tunes the placement controller
	// (see ElasticConfig; it needs Recover).
	Elastic *ElasticConfig
}

// StartLocal builds the nodes, connects them to a new ingress over
// loopback Pipes, and returns the ingress ready for Process/Finish. cfg
// configures every shard engine on every node identically (same contract
// as shard.New).
func StartLocal(pat *pattern.Pattern, cfg engine.Config, lc LocalConfig) (*Ingress, error) {
	if lc.Nodes <= 0 {
		lc.Nodes = 2
	}
	if lc.ShardsPerNode <= 0 {
		lc.ShardsPerNode = 1
	}
	// spawn starts one in-process node behind a pipe and returns the
	// ingress end. A nil pattern starts it bare: it learns the pattern set
	// and schema from the Assign frame and its shards from the Migrate
	// handshake, so it needs only the engine config and the key.
	spawn := func(pat *pattern.Pattern, schema *event.Schema) (Conn, error) {
		node, err := NewNode(NodeConfig{
			Pattern: pat, Schema: schema, Engine: cfg,
			Shards: lc.ShardsPerNode, Batch: lc.Batch, QueueCap: lc.QueueCap, Overflow: lc.Overflow,
			Key: lc.Key, KeyAttr: lc.KeyAttr,
		})
		if err != nil {
			return nil, err
		}
		client, server := Pipe()
		go func() {
			if err := node.Serve(server); err != nil && lc.OnNodeErr != nil {
				lc.OnNodeErr(err)
			}
		}()
		return client, nil
	}
	conns := make([]Conn, lc.Nodes)
	for i := range conns {
		var err error
		if conns[i], err = spawn(pat, lc.Schema); err != nil {
			for _, c := range conns[:i] {
				c.Close() // ends the node goroutine behind the pipe
			}
			return nil, fmt.Errorf("cluster: node %d: %w", i, err)
		}
	}
	opts := IngressOptions{
		Batch:    lc.Batch,
		Key:      lc.Key,
		KeyAttr:  lc.KeyAttr,
		Schema:   lc.Schema,
		OnMatch:  lc.OnMatch,
		OnTagged: lc.OnTagged,
		Patterns: lc.Patterns,
		Tenants:  lc.Tenants,
		Elastic:  lc.Elastic,
	}
	if lc.Recover {
		if lc.Standbys <= 0 {
			lc.Standbys = 2
		}
		spawned := 0
		opts.Recovery = &RecoveryConfig{
			HeartbeatTimeout: lc.HeartbeatTimeout,
			MaxJournalBytes:  lc.MaxJournalBytes,
			OnFailover:       lc.OnFailover,
			Standby: func() (Conn, error) {
				if spawned >= lc.Standbys {
					return nil, fmt.Errorf("cluster: all %d in-process standbys used", lc.Standbys)
				}
				spawned++
				return spawn(nil, nil)
			},
		}
	}
	return NewIngress(pat, conns, opts)
}
