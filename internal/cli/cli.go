// Package cli declares the flags acep-run and acep-node share: the
// pattern flags and the engine flags every shard engine is configured by.
// Declared once, both commands agree on every name, default and help
// text, and acep-run refuses exactly the engine flags under -connect,
// where each worker configures its own engines.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"slices"
	"time"

	"acep/internal/cluster"
	"acep/internal/core"
	"acep/internal/engine"
	"acep/internal/event"
	"acep/internal/gen"
	"acep/internal/pattern"
	"acep/internal/shard"
	"acep/internal/shed"
)

// PatternFlags declares -kind, -size and -window on fs. Once fs is
// parsed, the returned function builds the flagged pattern over a
// workload's schema.
func PatternFlags(fs *flag.FlagSet) func(*gen.Workload) (*pattern.Pattern, error) {
	kind := fs.String("kind", "sequence", "pattern family: sequence, conjunction, negation, kleene, composite")
	size := fs.Int("size", 3, "pattern size")
	window := fs.Int64("window", 150, "pattern window in logical ms")
	return func(w *gen.Workload) (*pattern.Pattern, error) {
		k, err := gen.KindFromString(*kind)
		if err != nil {
			return nil, err
		}
		return w.Pattern(k, *size, event.Time(*window))
	}
}

// Engine holds the engine flags' values once the flag set is parsed.
type Engine struct {
	names                               []string
	model, policy, shed, over           *string
	t, d, shedTarget, shedEPS           *float64
	k, check, shedPMs, shards, queueCap *int
	shedWait                            *time.Duration
}

// EngineFlags declares the engine flags on fs.
func EngineFlags(fs *flag.FlagSet) *Engine {
	// Declared on a set of their own first, so the block knows its names.
	own := flag.NewFlagSet("engine", flag.ContinueOnError)
	e := &Engine{
		model:      own.String("model", "greedy", "evaluation model: greedy (order-based NFA), zstream (tree)"),
		policy:     own.String("policy", "invariant", "adaptation policy: static, unconditional, threshold, invariant"),
		t:          own.Float64("t", 0.3, "threshold for -policy threshold"),
		d:          own.Float64("d", 0.2, "distance for -policy invariant"),
		k:          own.Int("k", 1, "invariants per building block (K-invariant method)"),
		check:      own.Int("check", 500, "adaptation check interval in events"),
		shed:       own.String("shed", "none", "load-shedding policy: none, random, rate-utility, pattern-aware"),
		shedTarget: own.Float64("shed-target", 0.3, "drop fraction the shedding policy aims for while overloaded"),
		shedPMs:    own.Int("shed-pms", 0, "live partial-match budget per shard engine (shedding activates above it)"),
		shedEPS:    own.Float64("shed-rate", 0, "arrival-rate budget in events per logical second"),
		shedWait:   own.Duration("shed-wait", 0, "p99 ingestion queue-wait budget (latency-aware shedding; 0 = off)"),
		shards:     own.Int("shards", 1, "parallel shard engines (the workload must be keyed); in a cluster, engines per node"),
		queueCap:   own.Int("queue-cap", 0, "per-shard ingestion queue bound in events (0 = default of 4 batches)"),
		over:       own.String("overflow", "block", "full-queue behavior: block (backpressure), drop"),
	}
	own.VisitAll(func(f *flag.Flag) {
		fs.Var(f.Value, f.Name, f.Usage)
		e.names = append(e.names, f.Name)
	})
	return e
}

// Declares reports whether name is one of the engine flags.
func (e *Engine) Declares(name string) bool { return slices.Contains(e.names, name) }

// Node returns the node configuration the engine flags set: the engine
// config, shards, queue bound and overflow mode. The caller adds the
// pattern, schema, key and batch.
func (e *Engine) Node() (cluster.NodeConfig, error) {
	model, errModel := engine.ModelFromString(*e.model)
	newPolicy, errPolicy := core.PolicyFromString(*e.policy, *e.t, *e.d, *e.k)
	shedPolicy, errShed := shed.PolicyFromString(*e.shed, *e.shedTarget)
	overflow, errOverflow := shard.OverflowFromString(*e.over)
	if err := errors.Join(errModel, errPolicy, errShed, errOverflow); err != nil {
		return cluster.NodeConfig{}, err
	}
	sc := shed.Config{Policy: shedPolicy}
	if shedPolicy != nil {
		if *e.shedPMs <= 0 && *e.shedEPS <= 0 && *e.shedWait <= 0 {
			return cluster.NodeConfig{}, fmt.Errorf("-shed %s needs a budget: set -shed-pms, -shed-rate and/or -shed-wait", *e.shed)
		}
		sc.Budget = shed.Budget{LivePMs: *e.shedPMs, EventsPerSec: *e.shedEPS, QueueWait: *e.shedWait}
	}
	return cluster.NodeConfig{
		Engine:   engine.Config{Model: model, NewPolicy: newPolicy, CheckEvery: *e.check, Shedding: sc},
		Shards:   *e.shards,
		QueueCap: *e.queueCap,
		Overflow: overflow,
	}, nil
}
