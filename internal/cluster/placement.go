package cluster

import (
	"time"

	"acep/internal/wire"
)

// ElasticConfig tunes the placement controller, which a non-nil
// IngressOptions.Elastic enables (it requires IngressOptions.Recovery:
// migrations replay shard history from the journal). The ingress watches
// per-shard queue-wait p99 snapshots reported by the nodes and migrates
// the busiest shard off the hottest node onto the coolest one — with
// hysteresis (the hot node must be HotRatio times the cool one and above
// MinWaitP99 before anything moves) and a cooldown (CooldownCuts cuts
// must pass between moves, and never while another migration is still in
// flight) so the controller converges instead of thrashing. The rule
// itself is place.
type ElasticConfig struct {
	// HotRatio is the load ratio (hottest node / coolest node, by max
	// owned-shard queue-wait p99) that triggers a move. Values <= 1 mean
	// the default 2.0.
	HotRatio float64
	// MinWaitP99 is the absolute queue-wait floor below which the
	// controller never moves anything, however skewed the ratio looks
	// (default 1ms): an idle cluster has nothing worth migrating.
	MinWaitP99 time.Duration
	// CooldownCuts is the minimum number of cuts between moves (default
	// 16), giving each move's effect time to show up in the stats.
	CooldownCuts int
}

func (ec ElasticConfig) withDefaults() ElasticConfig {
	if ec.HotRatio <= 1 {
		ec.HotRatio = 2.0
	}
	if ec.MinWaitP99 <= 0 {
		ec.MinWaitP99 = time.Millisecond
	}
	if ec.CooldownCuts <= 0 {
		ec.CooldownCuts = 16
	}
	return ec
}

// slotView is one node slot as the placement rule sees it.
type slotView struct {
	eligible bool             // live: may give up or take a shard
	hosted   map[int]bool     // shards its session has hosted; none may move back
	report   []wire.ShardStat // its latest load report (nil: none yet)
}

// placementView is everything the placement rule reads, gathered by the
// ingress once per decision.
type placementView struct {
	cfg    ElasticConfig // defaults applied
	owner  []int         // shard -> slot (-1: abandoned)
	pinned []bool        // shard: the journal can no longer replay it
	slots  []slotView
	// moveHorizon is the cut watermark of the last shard move; ageHorizon
	// is how far a report's stamp may trail the freshest report's.
	moveHorizon uint64
	ageHorizon  uint64
	inFlight    bool // a migration is still unacknowledged
}

// place is the placement rule: which shard, if any, should move where.
// A slot's load is the largest queue-wait p99 among the shards it owns,
// and is *known* only when its report carries a current stamp for one of
// them; a stale or missing report makes the slot's load unknown, not
// zero. The hottest known slot gives up its busiest movable shard to the
// coldest candidate — a known slot, or an unknown one that owns nothing
// (a joiner has nothing to report) — when the hot load exceeds both
// MinWaitP99 and HotRatio times the cold one. A slot whose load is
// unknown while it owns shards is neither: moving on a guess is how a
// lagging node used to beat a fresh joiner.
func place(v placementView) (shard, to int, reason string, ok bool) {
	if v.inFlight {
		return 0, 0, "", false
	}
	owns := func(n int, s wire.ShardStat) bool {
		return int(s.Shard) < len(v.owner) && v.owner[s.Shard] == n
	}
	var freshest uint64
	for n, sl := range v.slots {
		for _, s := range sl.report {
			if owns(n, s) && s.Cut > freshest {
				freshest = s.Cut
			}
		}
	}
	waits := make([]time.Duration, len(v.owner))
	events := make([]uint64, len(v.owner))
	known := make([]bool, len(v.slots))
	for n, sl := range v.slots {
		for _, s := range sl.report {
			// Three ways a stat is stale: its reporter no longer owns the
			// shard; it predates the last move, which reshaped the load it
			// describes (acting on it would ping-pong the same shard); or
			// it trails the freshest report by more than the age horizon —
			// stats ride the nodes' upstream frame flow, so a node that
			// stops reporting leaves numbers many cuts old next to its
			// peers' current ones. The reference is the newest *report*,
			// not the ingest frontier: nothing paces Process against worker
			// progress, so every report trails the frontier by a shared,
			// unbounded lag — what marks one stale is falling behind its
			// peers.
			if !owns(n, s) || s.Cut < v.moveHorizon || s.Cut+v.ageHorizon < freshest {
				continue
			}
			known[n] = true
			waits[s.Shard], events[s.Shard] = time.Duration(s.P99Nanos), s.Events
		}
	}
	owned := make([]int, len(v.slots))
	for _, o := range v.owner {
		if o >= 0 {
			owned[o]++
		}
	}
	hot, cold := -1, -1
	var hotLoad, coldLoad time.Duration
	for n, sl := range v.slots {
		if !sl.eligible {
			continue
		}
		var load time.Duration
		for g, o := range v.owner {
			if o == n && waits[g] > load {
				load = waits[g]
			}
		}
		if known[n] && (hot < 0 || load > hotLoad) {
			hot, hotLoad = n, load
		}
		if !known[n] && owned[n] > 0 {
			continue
		}
		// Ties go to the slot owning fewest shards, then the lowest index.
		if cold < 0 || load < coldLoad || load == coldLoad && owned[n] < owned[cold] {
			cold, coldLoad = n, load
		}
	}
	if hot < 0 || cold < 0 || hot == cold ||
		hotLoad <= v.cfg.MinWaitP99 || float64(hotLoad) <= v.cfg.HotRatio*float64(coldLoad) {
		return 0, 0, "", false
	}
	// Never empty the hot node unless the cold one has nothing: moving a
	// sole shard between two busy nodes just relocates the hotspot.
	if owned[hot] < 2 && owned[cold] != 0 {
		return 0, 0, "", false
	}
	pick := -1
	for g, o := range v.owner {
		if o != hot || v.pinned[g] || v.slots[cold].hosted[g] {
			continue
		}
		if pick < 0 || events[g] > events[pick] {
			pick = g
		}
	}
	if pick < 0 {
		return 0, 0, "", false
	}
	if owned[cold] == 0 {
		return pick, cold, "join", true
	}
	return pick, cold, "rebalance", true
}
