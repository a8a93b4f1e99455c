package cluster

import (
	"fmt"
	"maps"
	"slices"
	"sync/atomic"

	"acep/internal/event"
	"acep/internal/multi"
	"acep/internal/shard"
	"acep/internal/shed"
	"acep/internal/wire"
)

// patternSet is the session's pattern set and everything derived from it
// (ingress goroutine unless noted). specs is the current set — the truth
// shipped to every join and adoption — reads the types it reads, which
// Process routes by, and sig its fingerprint under schema; keyAttr is
// the partition key every session is shipped, and re-validates runtime
// additions; tenants are the shipped budgets.
// addCut maps runtime-added pattern ids to the cut boundary they joined
// at; reader goroutines load it to drop matches a migration replay
// regenerated from events the pattern never saw in the original timeline
// (dropRegen).
type patternSet struct {
	specs   []multi.Spec
	reads   multi.Reads
	schema  *event.Schema
	sig     uint64
	keyAttr string
	tenants map[uint32]shed.TenantBudget
	addCut  atomic.Pointer[map[uint32]uint64]
}

// derive installs specs as the set and re-derives what Process and the
// handshake read off it.
func (ps *patternSet) derive(specs []multi.Spec) {
	ps.specs, ps.reads, ps.sig = specs, multi.ReadsOf(specs), signature(specs, ps.schema)
}

// index is the position of pattern id in the set (-1: not registered).
func (ps *patternSet) index(id uint32) int {
	return slices.IndexFunc(ps.specs, func(sp multi.Spec) bool { return sp.ID == id })
}

// maxWindow is the widest time window any hosted pattern can reach back
// — the journal-sizing horizon.
func (ps *patternSet) maxWindow() event.Time {
	var w event.Time
	for _, sp := range ps.specs {
		w = max(w, sp.Pattern.Window)
	}
	return w
}

// assignFrame is the handshake reply every session gets: the global
// shard space, the partition key, the epoch, the current pattern set and
// the tenant budgets, sorted for a deterministic wire image.
func (in *Ingress) assignFrame() wire.Assign {
	a := wire.Assign{Total: uint32(in.total), Schema: in.schema, KeyAttr: in.keyAttr, Epoch: in.epoch}
	for _, sp := range in.specs {
		a.Patterns = append(a.Patterns, wire.PatternEntry{ID: sp.ID, Tenant: sp.Tenant, Pattern: sp.Pattern})
	}
	for _, t := range slices.Sorted(maps.Keys(in.tenants)) {
		a.Tenants = append(a.Tenants, wire.TenantBudgetEntry{Tenant: t, Budget: in.tenants[t]})
	}
	return a
}

// dropRegen reports whether a match of pattern p tagged at seq is a
// replay artifact: a migration replays journaled history into a live
// session whose evaluators already host patterns added later, so a
// replayed cut can regenerate matches from events the pattern never saw
// in the original timeline. Every legitimate match of a runtime-added
// pattern is triggered by an event after its add boundary, so matches
// at or below the boundary are dropped. Reader goroutines.
func (ps *patternSet) dropRegen(p uint32, seq uint64) bool {
	m := ps.addCut.Load()
	if m == nil {
		return false
	}
	born, ok := (*m)[p]
	return ok && seq <= born
}

// AddPattern registers one more pattern on a running cluster. The
// in-progress cut is sealed first, so the mutation lands
// on a clean cut boundary on every node: events already ingested stay
// ahead of the new pattern and events after this call are the first it
// sees. The spec joins the shipped set — future joins, adoptions and
// failover replays host it — and matches a migration replay regenerates
// from history before the boundary are filtered at the merge, so the
// delivered stream for the new pattern is exactly what a cluster that
// had hosted it from this boundary onward would produce. The spec's
// Config is ignored (each node applies its own engine configuration).
// Must be called from the Process goroutine.
func (in *Ingress) AddPattern(sp multi.Spec) error {
	return in.repattern("AddPattern", func() ([]multi.Spec, wire.Frame, error) {
		if in.index(sp.ID) >= 0 {
			return nil, nil, fmt.Errorf("cluster: pattern id %d already registered", sp.ID)
		}
		// Prevalidate here so a bad spec is one error return, not a
		// poisoned session on every node.
		if _, err := multi.Analyze([]multi.Spec{sp}, in.schema); err != nil {
			return nil, nil, err
		}
		if err := shard.Partitionable(sp.Pattern, in.schema, in.keyAttr); err != nil {
			return nil, nil, err
		}
		entry := wire.PatternEntry{ID: sp.ID, Tenant: sp.Tenant, Pattern: sp.Pattern}
		return append(in.specs, sp), wire.PatternAdd{Entry: entry}, nil
	})
}

// RemovePattern retires a pattern cluster-wide at the next cut
// boundary: its evaluation state is dropped on every node and no
// further matches of it are delivered. Removal is a deliberate
// stop-caring operation — matches the pattern produced before the
// boundary but not yet delivered still drain normally, but if a shard
// later migrates or fails over, undelivered matches of the retired
// pattern inside the replayed span are not regenerated (the successor
// no longer hosts it). The last live pattern cannot be removed. Must be
// called from the Process goroutine.
func (in *Ingress) RemovePattern(id uint32) error {
	return in.repattern("RemovePattern", func() ([]multi.Spec, wire.Frame, error) {
		at := in.index(id)
		if at < 0 {
			return nil, nil, fmt.Errorf("cluster: no pattern %d registered", id)
		}
		if len(in.specs) == 1 {
			return nil, nil, fmt.Errorf("cluster: cannot remove the last pattern (joins and adoptions need a live set)")
		}
		return append(in.specs[:at:at], in.specs[at+1:]...), wire.PatternRemove{ID: id}, nil
	})
}

// repattern is the one path of a pattern-set change: refused on a sealed
// ingress and after Finish, then next checks the change and returns the
// new set and the frame that tells the nodes; the in-progress cut is
// sealed and barriered, so the change lands on a clean cut boundary, and
// the set is re-derived before the frame goes out. An id the set did
// not hold gets its add boundary published first: the reader-side
// replay filter must be in place before any node can emit for it.
func (in *Ingress) repattern(op string, next func() ([]multi.Spec, wire.Frame, error)) error {
	if in.sealedTags {
		return fmt.Errorf("cluster: %s on a sealed ingress (its pattern set is fixed)", op)
	}
	if in.finished {
		return fmt.Errorf("cluster: %s after Finish", op)
	}
	specs, f, err := next()
	if err != nil {
		return err
	}
	if in.pending > 0 {
		in.cutAll()
	}
	in.waitSends()
	born := map[uint32]uint64{}
	if old := in.addCut.Load(); old != nil {
		maps.Copy(born, *old)
	}
	for _, sp := range specs {
		if in.index(sp.ID) < 0 {
			born[sp.ID] = in.lastSeq
		}
	}
	in.addCut.Store(&born)
	in.derive(specs)
	in.broadcast(f, slotLive)
	return nil
}
