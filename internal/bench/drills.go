package bench

import (
	"fmt"
	"time"

	"acep/internal/chaos"
	"acep/internal/cluster"
	"acep/internal/ha"
)

// drills are the four fault drills, each a list of scenarios on the rig.
// Every scenario's delivered stream is digest-verified against the
// single-process sharded engine before anything is reported, and each
// fails unless the fault it injects actually happened.
var drills = []struct {
	name, doc string
	run       func(*rig) error
}{
	{"failover", "one worker's link severed 40% in, its shards failed over to a bare standby, across node counts 2-6 at the journal's two-window horizon: recovery time, journal and replay volumes", (*rig).failover},
	{"elastic", "a bare third node joins a 2-node cluster a third in, with the placement controller off (nothing may move) and on (load must migrate onto it): migrations onto the joiner, longest migration pause, time to the last move", (*rig).elastic},
	{"ha", "the primary of a replicated coordinator pair killed 40% in: takeover pause, mirrored, replayed and re-fed volumes, skipped regenerated matches", (*rig).takeover},
	{"chaos", "a replicated pair over a replication link that duplicates and delays frames (absorbed), then over one silently blackholed 40% in under a lease arbiter: demotion, lease-arbitrated takeover, partition-to-resume time", (*rig).partitionTolerance},
}

// Drill runs one fault drill ("failover", "elastic", "ha", "chaos") on
// the keyed variant of a dataset. A scenario whose delivered stream
// differs from the reference, or whose fault never took effect, is an
// error, not a data point.
func (h *Harness) Drill(name, dataset string) (*DrillRecord, error) {
	for _, dr := range drills {
		if dr.name != name {
			continue
		}
		r, err := h.newRig(name+"-"+dataset, dataset)
		if err != nil {
			return nil, err
		}
		if err := dr.run(r); err != nil {
			return nil, err
		}
		return r.rec, nil
	}
	return nil, fmt.Errorf("bench: unknown drill %q", name)
}

// failover sweeps cluster width at the journal's fixed retention (two
// windows of slack), so the recovery cost is seen against the share of
// the shard space one node holds. Each run severs node 1's link 40% into
// the stream; its shard block must fail over, exactly once, to the bare
// standby.
func (r *rig) failover() error {
	for nodes := 2; nodes <= 6; nodes++ {
		err := r.run(fmt.Sprintf("kill nodes=%d", nodes), nodes, drillShardsPerNode, 1, func(d *drill) error {
			conns, err := cluster.Dial(d.addrs[:d.Nodes])
			if err != nil {
				return err
			}
			victim := chaos.Wrap(conns[1], chaos.Config{})
			conns[1] = victim
			ing, err := d.ingress(conns, &cluster.RecoveryConfig{Standby: cluster.DialStandbys(d.addrs[d.Nodes:])})
			if err != nil {
				return err
			}
			killAt := len(r.w.Events) * 2 / 5
			if err := d.feed(ing, func(i int) error {
				if i == killAt {
					victim.Sever(nil)
				}
				return nil
			}); err != nil {
				return err
			}
			fos := ing.Failovers()
			if len(fos) != 1 {
				return fmt.Errorf("%d failovers, want 1: %+v", len(fos), fos)
			}
			fo := fos[0]
			d.add("recovery_ms", ms(fo.RecoveryTime())) // detection -> last shard caught up
			d.add("journal_bytes", float64(fo.JournalBytes))
			d.add("journal_cuts", float64(fo.JournalCuts))
			d.add("replay_cuts", float64(fo.ReplayCuts))
			d.add("replay_events", float64(fo.ReplayEvents))
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// elastic starts two nodes hosting the whole shard space and admits a
// bare joiner a third of the way in — once with rebalancing off, where
// nothing may move, and once with the placement controller on, which
// must migrate load onto the joiner (the traffic regime's Zipf key skew
// is the hot-shard source; stocks is the near-uniform control).
func (r *rig) elastic() error {
	for _, rebalance := range []bool{false, true} {
		scenario := "join-static"
		var ec *cluster.ElasticConfig
		if rebalance {
			scenario = "join-rebalance"
			// Default hysteresis and cooldown: an empty joiner is always the
			// coldest node, so the scale-out move fires, and the wide ratio
			// keeps the controller from flapping once the joiner carries its
			// share.
			ec = &cluster.ElasticConfig{}
		}
		err := r.run(scenario, 2, 3, 1, func(d *drill) error {
			conns, err := cluster.Dial(d.addrs[:d.Nodes])
			if err != nil {
				return err
			}
			ing, err := d.ingress(conns, &cluster.RecoveryConfig{Elastic: ec})
			if err != nil {
				return err
			}
			joinAt := len(r.w.Events) / 3
			joinSlot := -1
			var joined time.Time
			err = d.feed(ing, func(i int) error {
				if i == joinAt {
					c, err := cluster.DialTCP(d.addrs[d.Nodes])
					if err != nil {
						return err
					}
					if joinSlot, err = ing.AddNode(c); err != nil {
						return err
					}
					joined = time.Now()
				}
				return nil
			})
			if err != nil {
				return err
			}
			if fos := ing.Failovers(); len(fos) != 0 {
				return fmt.Errorf("failed over: %+v", fos)
			}
			migs := ing.Migrations()
			if !rebalance && len(migs) != 0 {
				return fmt.Errorf("migrated without a controller: %+v", migs)
			}
			var toJoiner, replayed int
			var maxPause time.Duration
			var lastToJoiner time.Time
			for _, m := range migs {
				if m.CompletedAt.IsZero() {
					return fmt.Errorf("migration of shard %d never completed", m.Shard)
				}
				if m.Pause() > maxPause {
					maxPause = m.Pause()
				}
				replayed += m.ReplayEvents
				if m.To == joinSlot {
					toJoiner++
					if m.CompletedAt.After(lastToJoiner) {
						lastToJoiner = m.CompletedAt
					}
				}
			}
			if rebalance && toJoiner == 0 {
				return fmt.Errorf("the controller never moved a shard to the joiner (migrations: %+v)", migs)
			}
			d.add("join_event", float64(joinAt))
			d.add("migrations", float64(len(migs)))
			d.add("to_joiner", float64(toJoiner))
			d.add("max_pause_ms", ms(maxPause)) // longest single-shard delivery freeze
			d.add("replay_events", float64(replayed))
			var recovery time.Duration // AddNode -> last move onto the joiner
			if toJoiner > 0 {
				recovery = lastToJoiner.Sub(joined)
			}
			d.add("recovery_ms", ms(recovery))
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// takeover kills the primary of a replicated coordinator pair 40% into
// the stream; the hot standby must take over exactly once.
func (r *rig) takeover() error {
	return r.run("takeover", 3, drillShardsPerNode, 0, func(d *drill) error {
		p, err := ha.New(d.pairConfig())
		if err != nil {
			return err
		}
		killAt := len(r.w.Events) * 2 / 5
		if err := d.feed(p, func(i int) error {
			if i == killAt {
				return p.KillPrimary()
			}
			return nil
		}); err != nil {
			return err
		}
		return d.addTakeover(p)
	})
}

// addTakeover reports the pair's takeover record (there must be one).
func (d *drill) addTakeover(p *ha.Pair) error {
	tk := p.Takeover()
	if tk == nil {
		return fmt.Errorf("no takeover recorded")
	}
	cuts, events := p.MirrorStats()
	d.add("takeover_ms", ms(tk.Pause())) // detection -> first post-takeover delivery
	d.add("mirror_cuts", float64(cuts))
	d.add("mirror_events", float64(events))
	d.add("replay_cuts", float64(tk.ReplayCuts))
	d.add("replay_events", float64(tk.ReplayEvents))
	d.add("refed_events", float64(tk.RefedEvents))
	d.add("skipped_matches", float64(tk.Skipped))
	return nil
}

// chaosSeed makes the injected fault stream reproducible run to run.
const chaosSeed = 0xace9

// partitionTolerance runs the replicated pair under deterministic fault
// injection (internal/chaos) on its replication link. The faulty-link
// run duplicates and delays frames the whole way — the cut-ordinal
// protocol must absorb every one. The partition run silently blackholes
// the link 40% in: the primary must demote
// (not emit through the partition) once its acknowledgement window times
// out, the feed continues frozen, and at end of feed the successor must
// win the lease and take over.
func (r *rig) partitionTolerance() error {
	var link *chaos.Wrapper
	wrap := func(cfg chaos.Config) func(cluster.Conn) cluster.Conn {
		cfg.Seed = chaosSeed
		return func(c cluster.Conn) cluster.Conn {
			link = chaos.Wrap(c, cfg)
			return link
		}
	}
	err := r.run("faulty-link", 3, drillShardsPerNode, 0, func(d *drill) error {
		cfg := d.pairConfig()
		cfg.WrapRepl = wrap(chaos.Config{DupProb: 0.05, DelayProb: 0.10, MaxDelay: 2 * time.Millisecond})
		p, err := ha.New(cfg)
		if err != nil {
			return err
		}
		if err := d.feed(p, nil); err != nil {
			return err // a demotion fails Finish
		}
		st := link.Stats()
		if st.Dups == 0 || st.Delays == 0 {
			return fmt.Errorf("the link injected %d dups and %d delays; the run absorbed nothing", st.Dups, st.Delays)
		}
		d.add("injected_dups", float64(st.Dups))
		d.add("injected_delays", float64(st.Delays))
		return nil
	})
	if err != nil {
		return err
	}
	return r.run("partition", 3, drillShardsPerNode, 0, func(d *drill) error {
		cfg := d.pairConfig()
		cfg.ReplTimeout = 400 * time.Millisecond
		cfg.WrapRepl = wrap(chaos.Config{})
		p, err := ha.New(cfg)
		if err != nil {
			return err
		}
		cutAt := len(r.w.Events) * 2 / 5
		var cut time.Time
		if err := d.feed(p, func(i int) error {
			switch i {
			case cutAt:
				cut = time.Now()
				link.Partition()
			case len(r.w.Events):
				dem := p.Demotion()
				if dem == nil {
					return fmt.Errorf("the primary never demoted through the blackhole")
				}
				d.add("partition_at_event", float64(cutAt))
				d.add("demote_ms", ms(dem.At.Sub(cut))) // partition -> gate frozen
				d.add("lease_committed_matches", float64(dem.Count))
				return p.KillPrimary()
			}
			return nil
		}); err != nil {
			return err
		}
		if err := d.addTakeover(p); err != nil {
			return err
		}
		d.add("recovery_ms", ms(p.Takeover().ResumedAt.Sub(cut))) // partition -> resumed
		return nil
	})
}
