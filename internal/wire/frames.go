package wire

import (
	"bytes"
	"slices"

	"acep/internal/engine"
	"acep/internal/event"
	"acep/internal/pattern"
	"acep/internal/shed"
)

// Hello is the node's handshake greeting: the protocol version it speaks,
// its local shard count, and the pattern-set fingerprint it expects.
type Hello struct {
	Version    uint32
	Shards     uint32 // local shard engines hosted by the node
	PatternSig uint64 // Fingerprint of the pattern set the node expects (0: any)
}

func (v Hello) code(c *codec) Hello { c.u32(&v.Version, &v.Shards); c.u64(&v.PatternSig); return v }

// Assign is the ingress's handshake reply fixing the global shard space,
// Total shards. It names no shard: a session runs the shards whose runs
// it is sent, and a shard moved onto it arrives by Migrate. Every node
// hosts exactly the pattern set and schema shipped here; a node
// configured with a pattern of its own only pins, through the fingerprint
// in its Hello, which set it is willing to be handed.
type Assign struct {
	Total  uint32 // cluster-wide shard count
	Schema *event.Schema

	// Patterns is the pattern set the session hosts; one pattern is the
	// set of one.
	Patterns []PatternEntry

	// Tenants is the per-tenant budget table applied node-side before
	// pattern evaluation; empty means no tenant is budgeted.
	Tenants []TenantBudgetEntry

	// Epoch is the sending coordinator's epoch. A node remembers the
	// highest epoch it has ever been assigned under and rejects sessions
	// carrying a lower one, fencing a superseded primary whose standby
	// already took over. Zero on clusters without ingress HA.
	Epoch uint64
}

func (v Assign) code(c *codec) Assign {
	c.u32(&v.Total)
	c.schema(&v.Schema)
	table(c, &v.Patterns, maxPatternEntries, 3, "pattern entry")
	for i := range v.Patterns {
		v.Patterns[i].code(c, v.Schema)
	}
	table(c, &v.Tenants, maxTenantEntries, 17, "tenant budget")
	for i := range v.Tenants {
		c.u32(&v.Tenants[i].Tenant)
		c.f64(&v.Tenants[i].Budget.Rate, &v.Tenants[i].Budget.Burst)
	}
	c.u64(&v.Epoch)
	return v
}

// PatternEntry is one pattern of a session's set: the id tagging its
// matches and metrics on the wire, the tenant it bills to, and the
// pattern itself.
type PatternEntry struct {
	ID      uint32
	Tenant  uint32
	Pattern *pattern.Pattern
}

// code codes the entry, its pattern validated against s, the schema
// shipped with it (nil: structural validation only). An entry without a
// pattern is invalid: an id with nothing to evaluate.
func (e *PatternEntry) code(c *codec, s *event.Schema) {
	c.u32(&e.ID, &e.Tenant)
	if c.pattern(&e.Pattern, s); e.Pattern == nil {
		c.fail("pattern entry %d has no pattern", e.ID)
	}
}

// TenantBudgetEntry binds one tenant to its token-bucket budget.
type TenantBudgetEntry struct {
	Tenant uint32
	Budget shed.TenantBudget
}

// Watermark acknowledges progress on the replication link: the standby
// has mirrored every cut at or below UpTo.
type Watermark struct {
	UpTo uint64
}

func (v Watermark) code(c *codec) Watermark { c.u64(&v.UpTo); return v }

// Metrics is a node's final report, sent once, after Finish: M merges
// every hosted pattern on every local shard and adds what only the shard
// layer sees (queue drops, latency estimators); Patterns breaks it down
// per live pattern in ascending id order; Tenants counts admissions.
type Metrics struct {
	M        engine.Metrics
	Patterns []PatternMetrics
	Tenants  []shed.TenantStat
}

func (v Metrics) code(c *codec) Metrics {
	c.metrics(&v.M)
	// An entry is at least 23 bytes: the id, 18 counters and two empty
	// estimators of two count bytes each.
	table(c, &v.Patterns, maxPatternEntries, 23, "pattern metrics")
	for i := range v.Patterns {
		c.u32(&v.Patterns[i].ID)
		c.metrics(&v.Patterns[i].M)
	}
	table(c, &v.Tenants, maxTenantEntries, 3, "tenant stat")
	for i := range v.Tenants {
		c.u32(&v.Tenants[i].Tenant)
		c.u64(&v.Tenants[i].Admitted, &v.Tenants[i].Shed)
	}
	return v
}

// PatternMetrics is one pattern's engine counters within a Metrics
// frame.
type PatternMetrics struct {
	ID uint32
	M  engine.Metrics
}

// Finish signals end of stream (ingress → node).
type Finish struct{}

func (v Finish) code(*codec) Finish { return v }

// Heartbeat is a node's liveness signal, sent on receipt of every cut,
// before processing it, so the ingress failure detector can tell a slow
// node from a dead one. UpTo echoes the cut's watermark.
type Heartbeat struct {
	UpTo uint64
}

func (v Heartbeat) code(c *codec) Heartbeat { c.u64(&v.UpTo); return v }

// Migrate hands one global shard to the receiving node. The journaled
// cuts of its window follow; the node suppresses its matches tagged at or
// below SuppressUpTo (delivered before the handoff) and answers with
// MigrateAck once its completion watermark reaches ReplayUpTo.
type Migrate struct {
	Shard        uint32
	SuppressUpTo uint64
	ReplayUpTo   uint64
}

func (v Migrate) code(c *codec) Migrate {
	c.u32(&v.Shard)
	c.u64(&v.SuppressUpTo, &v.ReplayUpTo)
	return v
}

// MigrateAck reports a migrated shard live on its new owner: the node's
// completion watermark, UpTo, crossed the migration's ReplayUpTo.
type MigrateAck struct {
	Shard uint32
	UpTo  uint64
}

func (v MigrateAck) code(c *codec) MigrateAck { c.u32(&v.Shard); c.u64(&v.UpTo); return v }

// ShardRoute is the authoritative shard → node owner table, broadcast to
// every live node after a routing change: Owner[g] is the ingress-side
// slot index owning global shard g.
type ShardRoute struct {
	Owner []uint32
}

func (v ShardRoute) code(c *codec) ShardRoute { c.owners(&v.Owner); return v }

// PatternAdd registers one more pattern on a running node from the next
// cut boundary on; the other patterns are unaffected. It is validated
// against the Assign handshake's schema on application.
type PatternAdd struct {
	Entry PatternEntry
}

func (v PatternAdd) code(c *codec) PatternAdd { v.Entry.code(c, nil); return v }

// PatternRemove retires one pattern on a running node at the next cut
// boundary; its partial matches are discarded.
type PatternRemove struct {
	ID uint32
}

func (v PatternRemove) code(c *codec) PatternRemove { c.u32(&v.ID); return v }

// ReplCut replicates one sealed cut to a hot-standby ingress, which
// mirrors it and acknowledges with a Watermark. Runs are the cut's runs in
// ascending shard order (shards without events omitted). Owner and Addrs
// — the shard → slot table and the per-slot worker addresses — ride only
// the cuts where the topology changed (nil: the standby keeps the last).
// Final marks the stream-ending cut: the primary finished cleanly and the
// standby must stand down instead of taking over when the link closes.
type ReplCut struct {
	UpTo uint64
	// Cut is the dense cut ordinal (1, 2, 3, …): at or below the last one
	// mirrored, a duplicate (ack again, mirror nothing); past the next, a
	// gap that fails the link rather than journal an incomplete history.
	Cut   uint64
	Final bool
	Owner []uint32
	Addrs []string
	Runs  []ReplRun
}

func (v ReplCut) code(c *codec) ReplCut { v.codeReusing(c, nil); return v }

// codeReusing codes v. A Reader decodes every ReplCut into one of its own
// with re, what it kept of the previous one (nil elsewhere): the run
// headers go into re's array — each Body is still the consumer's to keep
// — and Owner and Addrs stay as they were while the flag bits and bytes
// they were decoded from repeat.
func (v *ReplCut) codeReusing(c *codec, re *replReuse) {
	c.u64(&v.UpTo, &v.Cut)
	owner, addrs := v.Owner != nil, v.Addrs != nil
	c.flags("repl-cut", &v.Final, &owner, &addrs)
	// A run is at least its four metadata varints and a one-event body.
	if re == nil {
		c.topology(&v.Owner, &v.Addrs, owner, addrs)
		table(c, &v.Runs, maxShards, 9, "repl run")
	} else {
		re.topology(c, v, owner, addrs)
		n := c.count(0, maxShards, 9, "repl run")
		re.runs = slices.Grow(re.runs[:0], n)[:n]
		v.Runs = nil
		if n > 0 {
			v.Runs = re.runs
		}
	}
	for i := range v.Runs {
		v.Runs[i].code(c)
	}
}

// replReuse is what a Reader keeps from one ReplCut to the next: the run
// headers' array, and the topology flag bits and bytes that its ReplCut's
// Owner and Addrs were decoded from (empty: none yet).
type replReuse struct {
	runs []ReplRun
	topo []byte
}

// topology decodes v's Owner and Addrs anew unless their flag bits and
// bytes repeat the previous frame's, which decode to what v holds.
func (re *replReuse) topology(c *codec, v *ReplCut, owner, addrs bool) {
	var bits byte
	if owner {
		bits |= 1
	}
	if addrs {
		bits |= 2
	}
	at := c.off
	if t := re.topo; len(t) > 0 && t[0] == bits && bytes.HasPrefix(c.b[at:], t[1:]) {
		c.off += len(t) - 1
		return
	}
	v.Owner, v.Addrs = nil, nil
	if c.topology(&v.Owner, &v.Addrs, owner, addrs); c.err != nil {
		re.topo = re.topo[:0]
		return
	}
	re.topo = append(append(re.topo[:0], bits), c.b[at:c.off]...)
}

// ReplState publishes the primary's emission boundary to its standby:
// every match tagged at or below EmittedUpTo has been delivered, Count in
// total. The mirror keeps the history above it replayable, and a
// successor suppresses regenerated matches at or below it.
type ReplState struct {
	EmittedUpTo uint64
	Count       uint64
}

func (v ReplState) code(c *codec) ReplState { c.u64(&v.EmittedUpTo, &v.Count); return v }

// Epoch opens a replication link with the primary's coordination epoch (a
// takeover successor runs at Epoch+1 and fences the old primary's worker
// sessions through Assign) and the pattern window, the mirror journal's
// retention unit, so that an out-of-process standby needs no pattern
// knowledge of its own. The mirror's slack and byte bound are the journal
// defaults, as the primary's are.
type Epoch struct {
	Epoch  uint64
	Window int64 // pattern window (journal retention unit); 0 on non-replication uses
}

func (v Epoch) code(c *codec) Epoch { c.u64(&v.Epoch); c.i64(&v.Window); return v }

// LeaseAcquire requests the single-writer emission lease for Holder for
// TTLMillis, granted if the lease is free, expired or Holder's already;
// the lease server answers with a LeaseFence either way.
type LeaseAcquire struct {
	Holder    uint64
	TTLMillis uint64
}

func (v LeaseAcquire) code(c *codec) LeaseAcquire { c.u64(&v.Holder, &v.TTLMillis); return v }

// LeaseRenew extends a held lease and commits the holder's emission
// boundary: EmittedUpTo/Count record the prefix the holder is about to
// emit, persisted at the server before the matches reach the consumer, so
// a successor acquiring the lease learns exactly what the fenced holder
// delivered. TTLMillis zero releases the lease (the boundary survives).
type LeaseRenew struct {
	Holder      uint64
	Epoch       uint64
	TTLMillis   uint64
	EmittedUpTo uint64
	Count       uint64
}

func (v LeaseRenew) code(c *codec) LeaseRenew {
	c.u64(&v.Holder, &v.Epoch, &v.TTLMillis, &v.EmittedUpTo, &v.Count)
	return v
}

// LeaseFence is the lease server's answer: whether the request was
// granted, who holds the lease at which fencing epoch, and the last
// committed emission boundary.
type LeaseFence struct {
	Granted     bool
	Holder      uint64
	Epoch       uint64
	EmittedUpTo uint64 // last committed emission boundary
	Count       uint64 // matches delivered at that boundary
	LeftMillis  uint64 // on denial: how long the current grant has left
}

func (v LeaseFence) code(c *codec) LeaseFence {
	c.flags("lease-fence", &v.Granted)
	c.u64(&v.Holder, &v.Epoch, &v.EmittedUpTo, &v.Count, &v.LeftMillis)
	return v
}

// Handover asks a standby process for its mirrored state on behalf of a
// successor that holds the lease; the standby answers with a
// HandoverState and its retained journal cuts as ReplCut frames.
type Handover struct {
	Epoch uint64 // the successor's fencing epoch (logging/auditing)
}

func (v Handover) code(c *codec) Handover { c.u64(&v.Epoch); return v }

// HandoverState is the handover header: the mirror's replication
// watermarks and emission state, the topology tables, and the number of
// retained-journal ReplCut frames that follow on the same connection.
type HandoverState struct {
	LastUpTo    uint64 // newest mirrored cut watermark
	LastCut     uint64 // newest mirrored cut ordinal
	EmittedUpTo uint64 // primary's last received emission boundary (E*)
	Count       uint64 // delivered count at that boundary (N*)
	Cuts        uint64 // retained journal cuts following as ReplCut frames
	Events      uint64 // events mirrored in total (accounting)
	Dead        bool   // the mirror observed the primary die on the link
	Cause       string // how the death surfaced (truncated to 256 bytes)
	DetectedAt  uint64 // unix nanoseconds of the death observation
	Owner       []uint32
	Addrs       []string
}

func (v HandoverState) code(c *codec) HandoverState {
	c.u64(&v.LastUpTo, &v.LastCut, &v.EmittedUpTo, &v.Count, &v.Cuts, &v.Events)
	owner, addrs := v.Owner != nil, v.Addrs != nil
	c.flags("handover-state", &v.Dead, &owner, &addrs)
	v.Cause = v.Cause[:min(len(v.Cause), maxNameBytes)]
	c.str(&v.Cause, "handover cause")
	c.u64(&v.DetectedAt)
	c.topology(&v.Owner, &v.Addrs, owner, addrs)
	return v
}
