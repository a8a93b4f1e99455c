package shard

import (
	"fmt"
	"math"

	"acep/internal/event"
	"acep/internal/multi"
	"acep/internal/pattern"
)

// KeyFunc extracts the partition key of an event. The returned value is a
// key, not a shard index: the engine hashes it (splitmix64) before taking
// it modulo the shard count, so small integer keys spread evenly. Two
// events belong to the same partition iff their KeyFunc values are equal.
type KeyFunc func(*event.Event) uint64

// GlobalIndex maps a partition-key value to its shard index among n
// shards (the splitmix64 finalizer modulo n) — the same placement Engine
// uses by default, exported so the cluster ingress and its worker nodes
// compute one consistent global layout.
func GlobalIndex(key uint64, n int) int { return int(mix64(key) % uint64(n)) }

// mix64 is the splitmix64 finalizer: a cheap bijective hash that turns
// clustered keys (entity ids 0..n) into uniformly spread shard indices.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ByAttrName keys on the named attribute, resolved per event type through
// the schema. Every registered type must carry the attribute.
func ByAttrName(s *event.Schema, name string) (KeyFunc, error) {
	if s == nil {
		return nil, fmt.Errorf("shard: ByAttrName needs a schema")
	}
	if s.NumTypes() == 0 {
		return nil, fmt.Errorf("shard: schema has no types")
	}
	idx := make([]int, s.NumTypes())
	for t := 0; t < s.NumTypes(); t++ {
		i, ok := s.AttrIndex(t, name)
		if !ok {
			return nil, fmt.Errorf("shard: type %q has no attribute %q", s.TypeName(t), name)
		}
		idx[t] = i
	}
	return func(ev *event.Event) uint64 {
		return math.Float64bits(ev.Attrs[idx[ev.Type]])
	}, nil
}

// KeyFor resolves a partition key into its KeyFunc — the one statement
// of the rule every layer that places events applies: the key is a named
// attribute, resolved per type through the schema, and every pattern of
// specs must be partitionable by it.
func KeyFor(attr string, s *event.Schema, specs []multi.Spec) (KeyFunc, error) {
	switch {
	case attr == "":
		return nil, fmt.Errorf("shard: a partition key is required: set KeyAttr")
	case s == nil:
		return nil, fmt.Errorf("shard: KeyAttr needs Schema to resolve the attribute")
	}
	for _, sp := range specs {
		if err := Partitionable(sp.Pattern, s, attr); err != nil {
			return nil, fmt.Errorf("shard: pattern %d: %w", sp.ID, err)
		}
	}
	return ByAttrName(s, attr)
}

// Partitionable verifies that pat can be detected shard-locally when the
// stream is partitioned by the attribute named key: every position must
// carry the attribute, and exact-equality predicates on it must connect
// all positions (including negated and Kleene ones) into one component.
// Under that condition any match — and any partial match, negation scope
// or Kleene scope — combines events of a single key value, all of which
// the partitioner routes to the same shard, so the per-shard match sets
// union to exactly the global match set.
func Partitionable(pat *pattern.Pattern, s *event.Schema, key string) error {
	if pat == nil {
		return fmt.Errorf("shard: nil pattern")
	}
	if pat.Op == pattern.Or {
		for i, sub := range pat.Subs {
			if err := Partitionable(sub, s, key); err != nil {
				return fmt.Errorf("shard: OR disjunct %d: %w", i, err)
			}
		}
		return nil
	}
	n := pat.NumPositions()
	keyIdx := make([]int, n)
	for p := 0; p < n; p++ {
		i, ok := s.AttrIndex(pat.Positions[p].Type, key)
		if !ok {
			return fmt.Errorf("shard: position %d (type %q) has no attribute %q",
				p, s.TypeName(pat.Positions[p].Type), key)
		}
		keyIdx[p] = i
	}
	// Union positions connected by exact key-equality predicates.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, pr := range pat.Preds {
		if pr.IsUnary() || pr.Op != pattern.EQ || pr.C != 0 {
			continue
		}
		if pr.AttrL != keyIdx[pr.L] || pr.AttrR != keyIdx[pr.R] {
			continue
		}
		parent[find(pr.L)] = find(pr.R)
	}
	root := find(0)
	for p := 1; p < n; p++ {
		if find(p) != root {
			return fmt.Errorf("shard: pattern is not partitionable by %q: position %d is not connected to position 0 by equality-on-%s predicates", key, p, key)
		}
	}
	return nil
}
