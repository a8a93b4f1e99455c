package shard_test

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"slices"
	"testing"

	"acep/internal/cluster"
	"acep/internal/engine"
	"acep/internal/event"
	"acep/internal/gen"
	"acep/internal/shard"
	"acep/internal/wire"
)

// routerRecord is one delivered match as a consumer of tags can tell it
// apart: the tag's Seq, and the wire match record of shard, pattern id and
// body.
type routerRecord struct {
	seq uint64
	rec []byte
}

type routerRecords []routerRecord

func (r *routerRecords) add(tg shard.Tagged) {
	*r = append(*r, routerRecord{tg.Seq, wire.AppendMatchRecord(nil, uint32(tg.Src), 0, tg.Pattern, wire.AppendMatchBody(nil, tg.M))})
}

// digest is FNV-64a over the records in delivery order, tags included, or
// over the matches alone, sorted: the multiset.
func (r routerRecords) digest(multiset bool) uint64 {
	h := fnv.New64a()
	if multiset {
		recs := make([][]byte, len(r))
		for i, x := range r {
			recs[i] = x.rec
		}
		slices.SortFunc(recs, bytes.Compare)
		for _, rec := range recs {
			h.Write(rec)
		}
		return h.Sum64()
	}
	for _, x := range r {
		h.Write(binary.LittleEndian.AppendUint64(nil, x.seq))
		h.Write(x.rec)
	}
	return h.Sum64()
}

// TestRouterDeliveryPinned pins what the sharded engine delivers through
// its per-event entry, tags included, on a stream of six types of which
// each pattern reads three to five — the values were recorded with a
// router that placed every event, whatever its type. Sequence,
// conjunction and OR are pinned in delivery order: a match is tagged at
// the event that completes it, which is of a type the pattern reads.
// Negation and Kleene closure are pinned as multisets: a parked match
// resolves at the next event its shard is offered, so its tag may move
// with what the shard is offered, never the match. Every cut is sealed
// after Batch events handed in, read or not. A two-node cluster over
// pipes must deliver the sequence row's stream.
func TestRouterDeliveryPinned(t *testing.T) {
	w := gen.Traffic(gen.TrafficConfig{Types: 6, Events: 5000, Seed: 17, Shifts: 1, MeanGap: 3, Keys: 4})
	const shards, batch = 2, 64
	cfg := engine.Config{CheckEvery: 250}
	for _, row := range []struct {
		kind     gen.Kind
		window   event.Time
		multiset bool
		matches  int
		digest   uint64
	}{
		{gen.Sequence, 300, false, 90, 0x6e8139eb6570c6c3},
		{gen.Conjunction, 300, false, 487, 0xdeee841ccbf0d157},
		{gen.Composite, 300, false, 106, 0xe0f6f3562c6ec06},
		{gen.Negation, 300, true, 2, 0x8fbbb50ef0f70451},
		{gen.Negation, 1000, true, 80, 0xfff1e489a2603fad},
		{gen.Kleene, 300, true, 150, 0x6ab05b8280e752ff},
	} {
		pat, err := w.Pattern(row.kind, 3, row.window)
		if err != nil {
			t.Fatal(err)
		}
		var got routerRecords
		var marks []uint64
		eng, err := shard.New(pat, cfg, shard.Options{
			Shards: shards, Batch: batch, KeyAttr: "key", Schema: w.Schema, OnTagged: got.add,
			OnProgress: func(upTo uint64) { marks = append(marks, upTo) },
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range w.Events {
			eng.Process(&w.Events[i])
		}
		eng.Finish()
		for _, upTo := range marks {
			if upTo < uint64(len(w.Events)) && upTo%batch != 0 {
				t.Fatalf("%v: progress at %d, not at a cut of %d events", row.kind, upTo, batch)
			}
		}
		t.Logf("%v/%d: %d matches, ordered %#x, multiset %#x", row.kind, row.window, len(got), got.digest(false), got.digest(true))
		if d := got.digest(row.multiset); len(got) != row.matches || d != row.digest {
			t.Errorf("%v/%d: %d matches, digest %#x; recorded %d, %#x", row.kind, row.window, len(got), d, row.matches, row.digest)
		}
		if row.kind != gen.Sequence {
			continue
		}
		var viaCluster routerRecords
		conns, err := cluster.Spawn(shards, cluster.NodeConfig{
			Pattern: pat, Schema: w.Schema, Engine: cfg, Batch: batch, KeyAttr: "key",
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		ing, err := cluster.NewIngress(pat, conns, cluster.IngressOptions{
			Batch: batch, KeyAttr: "key", Schema: w.Schema, OnTagged: viaCluster.add,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range w.Events {
			ing.Process(&w.Events[i])
		}
		if err := ing.Finish(); err != nil {
			t.Fatal(err)
		}
		if d := viaCluster.digest(false); len(viaCluster) != row.matches || d != row.digest {
			t.Errorf("cluster over pipes: %d matches, digest %#x; want the sharded engine's %d, %#x", len(viaCluster), d, row.matches, row.digest)
		}
	}
}
