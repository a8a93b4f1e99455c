package cluster

import (
	"fmt"
	"io"
	"slices"

	"acep/internal/match"
	"acep/internal/shard"
	"acep/internal/wire"
)

// Open decodes a sealed tag in place (Enc into M, kept by k, whose slab's
// matches share their events): the one decode of a match's life, and the
// emission boundary is the only place for it — this ingress handing a
// match to its consumer, or a consumer of sealed tags
// (NewSealedIngress) doing so later. The reader's decode checked these
// bytes when they arrived (tagsOf), so an error is a fault of the
// coordinator, not of the worker that sent them.
func Open(t *shard.Tagged, k *match.Keeper) error {
	m, err := wire.DecodeMatchBody(t.Enc, k)
	if err != nil {
		return fmt.Errorf("match at %d of shard %d does not decode at emission: %w", t.Seq, t.Src, err)
	}
	t.M, t.Enc = m, nil
	return nil
}

// deliverer returns the emission boundary: the collector orders sealed
// tags, and each match is decoded here, as the consumer takes it —
// unless the consumer asked for the tags sealed. The matches metrics
// report are the ones that reach the consumer, counted by pattern: an
// engine also counts the ones a moved shard's collector purge or its
// destination's replay suppression keeps from the consumer, and a match
// that does not open is not delivered. Collector goroutine.
func (in *Ingress) deliverer(opts IngressOptions, sealed bool) func(shard.Tagged) {
	in.delivered = make(map[uint32]uint64)
	counted := func(out func(shard.Tagged)) func(shard.Tagged) {
		return func(t shard.Tagged) {
			in.delivered[t.Pattern]++
			if out != nil {
				out(t)
			}
		}
	}
	switch {
	case sealed:
		return counted(opts.OnTagged)
	case opts.OnTagged != nil:
		return in.opened(counted(opts.OnTagged))
	case opts.OnMatch != nil:
		return in.opened(counted(func(t shard.Tagged) { opts.OnMatch(t.M) }))
	}
	return counted(nil)
}

// opened wraps a consumer that takes matches decoded, on the collector
// goroutine. A match that does not open is not delivered, and Finish
// reports why.
func (in *Ingress) opened(out func(shard.Tagged)) func(shard.Tagged) {
	k := &match.Keeper{}
	return func(t shard.Tagged) {
		if err := Open(&t, k); err != nil {
			in.recordErr(fmt.Errorf("cluster: %w", err))
			return
		}
		out(t)
	}
}

// tagsOf appends to tags (empty) a node's Matches frame as the tags the
// merge collector orders: each carries its body as Enc, aliasing the
// frame's own bytes, undecoded. The frame is one the reader decoded, which
// checked it whole (wire.Matches.Each) — corrupt bytes failed this node's
// session there, before anything of the frame could be posted — so the
// walk reads its records without checking the bodies again
// (wire.Matches.Records), and drops replay artifacts of runtime-added
// patterns. Reader goroutines.
func (in *Ingress) tagsOf(v *wire.Matches, tags []shard.Tagged) ([]shard.Tagged, error) {
	tags = slices.Grow(tags, v.Count) // decoding held the count against the bytes
	err := v.Records(func(r wire.MatchRecord) {
		if !in.dropRegen(r.Pattern, r.Seq) {
			tags = append(tags, shard.Tagged{Seq: r.Seq, Src: int(r.Shard), Pattern: r.Pattern, Enc: r.Body})
		}
	})
	return tags, err
}

// metricsDone reports whether the session delivered its final metrics
// (the clean-exit marker), synchronized with the reader that records them.
func (in *Ingress) metricsDone(s *slot) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return s.gotMetrics
}

// read is the reader goroutine of session s on node slot i: it turns each
// Matches frame into one post to the merge collector — the frame's
// matches, sealed, and its completion watermark — applies migration
// acknowledgements and the node's final metrics, and on failure queues
// a suspect and closes the link, posting nothing: the ingress goroutine
// fails the node at its next barrier (failNode), which either seats a
// successor or abandons the slot's shards at the collector.
func (in *Ingress) read(i int, s *slot) {
	defer func() { // runs last: done is closed by the time the drain wakes
		select {
		case in.exitCh <- struct{}{}:
		default:
		}
	}()
	defer close(s.done)
	// lost ends the session on a failure. Closing the link stops a node
	// that is still talking from filling it, undrained, and stalling the
	// cut in flight to it; the suspect is queued first, so the next
	// barrier acts on it.
	lost := func(err error) {
		in.suspect(i, s, err)
		s.close()
	}
	for {
		f, err := s.conn.Recv()
		if err != nil {
			if err == io.EOF && in.metricsDone(s) {
				// Clean end of stream. The session is over, so its conn
				// closes now, not at Finish: a drained slot's pooled
				// standby address (DialStandbys) is free again at once.
				s.conn.Close()
				in.col.Post(i, maxSeq, nil)
			} else {
				lost(fmt.Errorf("cluster: node %d stream: %w", i, err))
			}
			return
		}
		in.det.Heard(i)
		switch v := f.(type) {
		case *wire.Matches:
			r := in.take(s)
			if r.tags, err = in.tagsOf(v, r.tags); err != nil {
				lost(fmt.Errorf("cluster: node %d: %w", i, err))
				return
			}
			if v.UpTo > 0 || len(r.tags) > 0 {
				in.col.PostRun(i, v.UpTo, r.tags, r)
			} else {
				r.Release()
			}
		case wire.Heartbeat:
			// Liveness only (recorded above).
		case wire.MigrateAck:
			// The destination caught up to a migration's replay horizon; the
			// matches it released on the way arrived ahead of this frame.
			in.col.Complete(i, int(v.Shard), v.UpTo)
			in.mu.Lock()
			in.acked(i, int(v.Shard))
			in.mu.Unlock()
		case wire.Metrics:
			// The session's one report: fold it into the per-slot,
			// per-pattern and per-tenant views.
			in.mu.Lock()
			s.metrics = v.M
			for _, pm := range v.Patterns {
				agg := in.patMetrics[pm.ID]
				agg.Merge(pm.M)
				in.patMetrics[pm.ID] = agg
			}
			for _, ts := range v.Tenants {
				agg := in.tenantAgg[ts.Tenant]
				agg.Tenant = ts.Tenant
				agg.Admitted += ts.Admitted
				agg.Shed += ts.Shed
				in.tenantAgg[ts.Tenant] = agg
			}
			s.gotMetrics = true
			in.mu.Unlock()
		default:
			lost(fmt.Errorf("cluster: node %d sent unexpected %s frame", i, wire.KindOf(f)))
			return
		}
	}
}
