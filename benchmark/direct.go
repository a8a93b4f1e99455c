package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"time"

	"acep/internal/cluster"
	"acep/internal/event"
	"acep/internal/lease"
	"acep/internal/match"
	recovery "acep/internal/recover"
	"acep/internal/shard"
	"acep/internal/wire"
)

// directReps is how many times each direct call walks the stream; the
// median walk is reported.
const directReps = 5

// named is one measured value.
type named struct {
	name  string
	value float64
}

// cuts splits the stream into the batch-sized cuts the cutting layers
// seal.
func cuts(evs []event.Event) [][]event.Event {
	out := make([][]event.Event, 0, len(evs)/batch+1)
	for lo := 0; lo < len(evs); lo += batch {
		out = append(out, evs[lo:min(lo+batch, len(evs))])
	}
	return out
}

// perEventNS runs walk directReps times and returns the median time per
// event in nanoseconds.
func perEventNS(events int, walk func() error) (float64, error) {
	reps := make([]float64, directReps)
	for i := range reps {
		start := time.Now()
		if err := walk(); err != nil {
			return 0, err
		}
		reps[i] = float64(time.Since(start).Nanoseconds()) / float64(events)
	}
	return median(reps), nil
}

// directCalls times single functions of wire, recover, lease and shard
// on stream K's cuts, outside any pipeline: what the function costs when
// nothing waits on anything.
func directCalls(in *inputs) ([]named, error) {
	evs := in.w.Events
	cs := cuts(evs)
	var out []named

	// wire: encode every cut into one reused buffer, then decode the
	// concatenated frames into an arena released two windows behind.
	var buf, frames []byte
	v, err := perEventNS(len(evs), func() error {
		for _, c := range cs {
			buf = wire.Append(buf[:0], wire.Batch{UpTo: c[len(c)-1].Seq, Events: c})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out = append(out, named{"wire.encode_ns_per_event", v})
	for _, c := range cs {
		frames = wire.Append(frames, wire.Batch{UpTo: c[len(c)-1].Seq, Events: c})
	}
	v, err = perEventNS(len(evs), func() error {
		var arena match.Arena
		arena.SetRecycle(true) // no decoded pointer outlives its cut here
		r := wire.NewReader(bytes.NewReader(frames))
		r.SetDecodeArena(&arena)
		for range cs {
			f, err := r.Read()
			if err != nil {
				return fmt.Errorf("wire decode: %w", err)
			}
			view := f.(*wire.BatchView)
			arena.Release(view.Events[len(view.Events)-1].TS - 2*in.pat.Window)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out = append(out,
		named{"wire.decode_ns_per_event", v},
		named{"wire.bytes_per_event", float64(len(frames)) / float64(len(evs))})

	// recover: journal every cut per shard and advance the released
	// frontier one cut behind, as an ingress with a prompt collector does.
	key, err := shard.ByAttrName(in.w.Schema, "key")
	if err != nil {
		return nil, err
	}
	split := make([][][]event.Event, len(cs))
	for i, c := range cs {
		split[i] = make([][]event.Event, totalShards)
		for _, ev := range c {
			g := shard.GlobalIndex(key(&ev), totalShards)
			split[i][g] = append(split[i][g], ev)
		}
	}
	v, err = perEventNS(len(evs), func() error {
		j, err := recovery.NewJournal(recovery.JournalConfig{Window: in.pat.Window, Shards: totalShards})
		if err != nil {
			return err
		}
		released := uint64(0)
		for i, c := range cs {
			upTo := c[len(c)-1].Seq
			j.Append(split[i], upTo)
			j.Advance(released)
			released = upTo
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out = append(out, named{"recover.append_ns_per_event", v})

	// lease: one renew round trip over loopback, the commit that stands
	// between a released match and its emission.
	rtt, err := leaseRenewRTT()
	if err != nil {
		return nil, err
	}
	// shard: the collector's merge, two sources posting alternately.
	return append(out,
		named{"lease.renew_rtt_us", rtt},
		named{"shard.collector_ns_per_match", collectorNSPerMatch()}), nil
}

// leaseRenewRTT is the median round trip of Client.Renew in
// microseconds.
func leaseRenewRTT() (float64, error) {
	const renews = 2000
	srv := lease.New()
	defer srv.Close()
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	cl, err := lease.Dial(context.Background(), addr, cluster.DialPolicy{}, nil)
	if err != nil {
		return 0, err
	}
	defer cl.Close()
	const holder, ttl = 1, 2 * time.Second
	grant, err := cl.Acquire(holder, ttl)
	if err != nil || !grant.Granted {
		return 0, fmt.Errorf("lease acquire: granted=%v: %v", grant.Granted, err)
	}
	rtts := make([]float64, renews)
	for i := range rtts {
		start := time.Now()
		f, err := cl.Renew(holder, grant.Epoch, ttl, uint64(i+1), uint64(i+1))
		if err != nil || !f.Granted {
			return 0, fmt.Errorf("lease renew %d: granted=%v: %v", i, f.Granted, err)
		}
		rtts[i] = float64(time.Since(start).Nanoseconds()) / 1e3
	}
	return median(rtts), nil
}

// collectorNSPerMatch posts matches from two sources in turn, ten per
// post with a watermark that releases them, and returns the time from
// the first post until Close has delivered everything, per match.
func collectorNSPerMatch() float64 {
	const perPost, posts = 10, 20000
	m := &match.Match{}
	reps := make([]float64, directReps)
	for rep := range reps {
		delivered := 0
		c := shard.NewCollector(totalShards, func(shard.Tagged) { delivered++ }, nil)
		tagged := make([][]shard.Tagged, posts)
		for p := range tagged {
			tagged[p] = make([]shard.Tagged, perPost)
			for i := range tagged[p] {
				tagged[p][i] = shard.Tagged{M: m, Seq: uint64(p + 1), Src: p % totalShards}
			}
		}
		start := time.Now()
		for p := range tagged {
			c.Post(p%totalShards, uint64(p+1), tagged[p])
		}
		for node := 0; node < totalShards; node++ {
			c.Post(node, math.MaxUint64, nil)
		}
		c.Close()
		reps[rep] = float64(time.Since(start).Nanoseconds()) / float64(delivered)
	}
	return median(reps)
}
