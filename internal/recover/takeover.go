package recovery

import "time"

// Takeover is the record of one coordinator-death incident: the standby
// ingress assuming the primary's cluster. Where a Failover rebuilds one
// node's shards on survivors, a Takeover rebuilds the coordinator
// itself — every worker connection is re-established, the merge
// collector is reconstructed at the replicated release boundary, and
// the mirrored journal replays the unacknowledged tail — so the fields
// measure the whole-cluster pause and the replication state the standby
// resumed from.
type Takeover struct {
	// Epoch is the fencing epoch the successor coordinator announced to
	// the workers (strictly greater than the dead primary's).
	Epoch uint64
	// Cause describes how the primary's death surfaced on the
	// replication link.
	Cause string
	// DetectedAt is when the standby observed the primary dead.
	DetectedAt time.Time
	// Boundary is the primary's replicated emitted-up-to watermark E*:
	// the successor suppresses every regenerated match tagged at or
	// below it, and the consumer-side skip count covers the rest.
	Boundary uint64
	// Skipped counts the regenerated matches above Boundary that the
	// primary had already delivered (its D − N*): the successor drops
	// exactly that many before resuming emission, closing the gap the
	// watermark alone cannot express.
	Skipped uint64
	// Workers counts the worker connections the successor
	// re-established; Redialed counts how many needed a fresh dial (the
	// rest were adopted from the standby pool).
	Workers  int
	Redialed int
	// ReplayCuts/ReplayEvents measure the mirrored journal tail the
	// successor replayed into the workers to rebuild in-flight state.
	ReplayCuts   int
	ReplayEvents int
	// RefedEvents counts the source events re-fed through the successor
	// ingress — those past the last mirrored cut, retained consumer-side
	// because the primary never acknowledged them.
	RefedEvents int
	// ResumedAt is when the successor delivered its first post-takeover
	// match or progress watermark (zero while takeover is in flight).
	ResumedAt time.Time
}

// Pause is the detection-to-resumption duration — how long the output
// stream stalled across the coordinator swap (0 while in flight).
func (t Takeover) Pause() time.Duration {
	if t.ResumedAt.IsZero() {
		return 0
	}
	return t.ResumedAt.Sub(t.DetectedAt)
}

// Demotion is the record of a primary coordinator stepping down: it
// could not renew (or was fenced off) the single-writer emission lease,
// so it froze its emission gate rather than risk emitting a stream a
// successor might also emit. A demotion is the deliberate, safe half of
// a network partition — the complement of the successor's Takeover — and
// a demoted run that was never taken over must surface it as an error,
// never exit clean.
type Demotion struct {
	// At is when the primary froze its gate.
	At time.Time
	// Cause describes why the lease could not be held: a fence from a
	// higher-epoch holder, or an unreachable arbiter.
	Cause string
	// Epoch is the lease epoch the primary held while it was primary.
	Epoch uint64
	// Boundary and Count are the last emission state committed to the
	// lease before the demotion — exactly what a successor resumes from.
	Boundary uint64
	Count    uint64
}
