package cluster

// ElasticConfig tunes the placement controller, which a non-nil
// RecoveryConfig.Elastic enables (migrations replay shard history from
// the journal). The controller reads
// the routing the ingress already does: a shard's load is the number of
// events routed to it since the last move, and the busiest shard of the
// most loaded node migrates to the least loaded one — with hysteresis
// (the hot node must carry HotRatio times the cool one's load) and a
// cooldown (CooldownCuts cuts must pass between moves, and never while
// another migration is still in flight) so the controller converges
// instead of thrashing. Cuts are sealed by events, so every decision sees
// at least CooldownCuts×Batch routed events, and an idle stream makes
// none. The rule itself is place.
type ElasticConfig struct {
	// HotRatio is the load ratio (hottest node / coolest node, by events
	// routed to their owned shards since the last move) that triggers a
	// move. Values <= 1 mean the default 2.0.
	HotRatio float64
	// CooldownCuts is the minimum number of cuts between moves (default
	// 16): the count a decision reads starts afresh at every move.
	CooldownCuts int
}

func (ec ElasticConfig) withDefaults() ElasticConfig {
	if ec.HotRatio <= 1 {
		ec.HotRatio = 2.0
	}
	if ec.CooldownCuts <= 0 {
		ec.CooldownCuts = 16
	}
	return ec
}

// slotView is one node slot as the placement rule sees it.
type slotView struct {
	eligible bool         // live: may give up or take a shard
	hosted   map[int]bool // shards its session has hosted; none may move back
}

// placementView is everything the placement rule reads, gathered by the
// ingress once per decision.
type placementView struct {
	cfg      ElasticConfig // defaults applied
	owner    []int         // shard -> slot (-1: abandoned)
	pinned   []bool        // shard: the journal can no longer replay it
	load     []uint64      // shard -> events routed to it since the last move
	slots    []slotView
	inFlight bool // a migration is still unacknowledged
}

// place is the placement rule: which shard, if any, should move where.
// A slot's load is the sum of its owned shards' loads. The hottest
// live slot gives up its busiest movable shard to the coldest one, ties
// going to the slot that owns fewest shards, when the hot load exceeds
// HotRatio times the cold one.
func place(v placementView) (shard, to int, reason string, ok bool) {
	if v.inFlight {
		return 0, 0, "", false
	}
	owned := make([]int, len(v.slots))
	load := make([]uint64, len(v.slots))
	for g, o := range v.owner {
		if o >= 0 {
			owned[o]++
			load[o] += v.load[g]
		}
	}
	hot, cold := -1, -1
	for n, sl := range v.slots {
		if !sl.eligible {
			continue
		}
		if hot < 0 || load[n] > load[hot] {
			hot = n
		}
		if cold < 0 || load[n] < load[cold] || load[n] == load[cold] && owned[n] < owned[cold] {
			cold = n
		}
	}
	if hot == cold || float64(load[hot]) <= v.cfg.HotRatio*float64(load[cold]) {
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
		if pick < 0 || v.load[g] > v.load[pick] {
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
