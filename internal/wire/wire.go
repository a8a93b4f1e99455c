// Package wire is the versioned binary codec of the distributed cluster
// layer (internal/cluster, internal/ha, internal/lease). It frames four
// conversations:
//
//   - ingress ↔ worker node: the Hello/Assign handshake that pins protocol
//     version, pattern-set identity, shard layout and coordinator epoch;
//     event Batch cuts with their watermarks; Matches — a completion
//     watermark and the matches released under it — Heartbeats and
//     ShardStats flowing back;
//     shard migration (Migrate, MigrateAck, ShardRoute); runtime pattern
//     registration (PatternAdd, PatternRemove); Takeover from a successor
//     coordinator; and Finish answered by one Metrics frame.
//   - primary → standby coordinator: Epoch opens the replication link,
//     ReplCut mirrors every sealed cut — its runs as the ingress encoded
//     them, unparsed — and ReplState the emission boundary.
//   - coordinator ↔ lease server: LeaseAcquire and LeaseRenew, answered by
//     LeaseFence.
//   - successor → standby process: Handover, answered by HandoverState
//     and the retained cuts as ReplCut frames.
//
// # Framing
//
// Every frame is length-prefixed:
//
//	[u32 little-endian length][u8 kind][body]
//
// where length covers kind+body and is bounded by MaxFrame, so a corrupt
// prefix cannot force an unbounded allocation. Bodies use unsigned/signed
// varints for counters and identifiers and little-endian IEEE-754 bit
// patterns for attribute values, which round-trip exactly (including NaN
// payloads, which partition keys may carry through Float64bits).
//
// Batch frames delta-encode timestamps and sequence numbers against the
// previous event in the frame: both are near-monotone within one cut, so
// the deltas almost always fit one varint byte where the absolute values
// take three to five. Matches keep absolute encoding (their events are
// position-ordered, not arrival-ordered).
//
// # Match bodies
//
// A match crosses every layer between the worker that detected it and
// the consumer as its body: the bytes AppendMatchBody wrote on the worker.
// A Matches frame carries bodies as records, whoever receives one checks
// them without allocating (Matches.Each, CheckMatchBody), and only the
// emission boundary — where a consumer is about to see the match —
// decodes one (DecodeMatchBody). The encoding is canonical: what
// CheckMatchBody accepts re-encodes to the same bytes.
//
// # Runs
//
// What follows the watermark in a Batch body — the event count, then the
// delta-coded events starting from (0, 0) — is a run: one shard's events
// of one cut. The ingress encodes a run once, as it accepts the events
// (RunEncoder), and everything above a worker carries those bytes as they
// are: the Batch frame to the worker (BatchRaw), the cut journal, the
// ReplCut to the standby, its mirror and the handover (ReplRun). Only a
// worker decodes one (DecodeRun, or a Reader with a decode arena).
//
// The protocol version travels in the Hello frame; both sides reject a
// mismatch at handshake time, so all later frames can assume one version.
// Decode never panics on arbitrary input — it returns an error for every
// truncated, oversized or structurally invalid frame (FuzzDecode asserts
// this), and all internal counts are validated against explicit caps
// before allocation.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"acep/internal/engine"
	"acep/internal/event"
	"acep/internal/match"
	"acep/internal/pattern"
	"acep/internal/shed"
	"acep/internal/stats"
)

// Version is the protocol version carried in Hello frames. Bump on any
// incompatible body-layout change; both sides refuse a peer that speaks
// another version, so no frame carries compatibility shapes (the
// protocol's history lives in CHANGES.md).
const Version = 9

// MaxFrame bounds one frame's payload (kind+body) in bytes; Decode and
// Reader reject larger length prefixes as corrupt.
const MaxFrame = 1 << 26

// Structural caps validated before any decode-side allocation.
const (
	maxBatchEvents = 1 << 22 // events per Batch frame
	maxAttrs       = 1 << 12 // attributes per event
	maxPositions   = 1 << 12 // positions per match
	maxKleene      = 1 << 20 // events per Kleene closure
	maxSamples     = 1 << 16 // retained quantile samples per estimator
	maxMatches     = 1 << 22 // records per Matches frame

	// Pattern/schema shipping caps (Assign payloads).
	maxSchemaTypes  = 1 << 10 // event types per schema
	maxSchemaAttrs  = 1 << 8  // attributes per type
	maxNameBytes    = 1 << 8  // bytes per type/attribute name
	maxPatPositions = 1 << 10 // positions per (sub-)pattern
	maxPatPreds     = 1 << 12 // predicates per (sub-)pattern
	maxSubPatterns  = 1 << 8  // disjuncts per OR pattern

	// Elasticity caps (ShardRoute owner tables, ShardStats entries).
	maxRouteShards = 1 << 20 // global shards per ShardRoute table
	maxShardStats  = 1 << 20 // entries per ShardStats frame

	// Pattern-set caps (Assign sets, Metrics entries, tenant tables).
	maxPatternEntries = 1 << 12 // pattern entries per Assign or Metrics frame
	maxTenantEntries  = 1 << 12 // tenant budget/stat entries per frame

	// Ingress-HA caps (ReplCut topology tables and per-shard runs).
	maxReplRuns  = 1 << 20 // per-shard event runs per ReplCut
	maxNodeAddrs = 1 << 16 // node addresses per ReplCut table
)

// Kind tags a frame's body layout.
type Kind uint8

const (
	// KindHello is the node's handshake greeting: protocol version, the
	// node's local shard count, and the pattern-set fingerprint it expects.
	KindHello Kind = 1 + iota
	// KindAssign is the ingress's handshake reply: the node's base index
	// in the global shard space, the cluster-wide total, and the pattern
	// set the session hosts.
	KindAssign
	// KindBatch carries one uniform cut: the node's events accumulated
	// since the last cut (possibly none) plus the global watermark.
	KindBatch
	// KindWatermark acknowledges progress on the replication link: the
	// standby has mirrored every cut at or below UpTo.
	KindWatermark
	// KindMatches is a node's answer to one progress step: the matches its
	// collector released, each with its merge tag, and the completion
	// watermark they were released under — every match tagged at or below
	// UpTo has been sent.
	KindMatches
	// KindMetrics carries a node's engine metrics — session-wide, per
	// pattern and per tenant — in one frame, sent once, after Finish.
	KindMetrics
	// KindFinish signals end of stream (ingress → node).
	KindFinish
	// KindHeartbeat is a node liveness signal (node → ingress), emitted on
	// receipt of every cut — before processing it — so the ingress failure
	// detector can tell a slow node from a dead one. UpTo echoes the
	// received cut's watermark.
	KindHeartbeat
	// KindMigrate hands one global shard to the receiving node
	// (ingress → node): the node becomes the shard's owner, suppresses
	// any of its matches tagged at or below SuppressUpTo (those were
	// already delivered by the merge collector), and acknowledges with
	// MigrateAck once its completion watermark reaches ReplayUpTo.
	KindMigrate
	// KindMigrateAck reports that a migrated shard's replay window has
	// been consumed: the node's completion watermark passed the
	// migration's ReplayUpTo, so the shard is live on its new owner.
	KindMigrateAck
	// KindShardRoute broadcasts the authoritative shard → node owner
	// table after a routing change (ingress → node), so nodes know the
	// full placement rather than inferring it from Migrate frames.
	KindShardRoute
	// KindShardStats carries a node's per-shard load snapshot
	// (node → ingress): events processed and queue-wait p99 per owned
	// shard, feeding the ingress placement controller.
	KindShardStats
	// KindPatternAdd registers one additional pattern on a running node
	// (ingress → node). The node starts evaluating it at the next cut
	// boundary; already-registered patterns are unaffected.
	KindPatternAdd
	// KindPatternRemove retires one pattern on a running node
	// (ingress → node); its partial matches are discarded and no further
	// matches with its id are emitted after the next cut boundary.
	KindPatternRemove
	// KindReplCut replicates one sealed cut to a hot-standby ingress
	// (primary → standby): the cut's per-shard event runs plus, when the
	// topology changed, the shard owner table and per-slot node
	// addresses. The standby appends the cut to its mirror journal and
	// acknowledges with a Watermark frame on the same link.
	KindReplCut
	// KindReplState publishes the primary's emission boundary
	// (primary → standby): every match tagged at or below EmittedUpTo has
	// been delivered to the consumer, Count matches in total. On takeover
	// the successor suppresses regenerated matches at or below the
	// boundary.
	KindReplState
	// KindTakeover announces a successor ingress to a worker
	// (successor → node, right after the Assign handshake): the
	// successor's epoch, the emission boundary below which every match
	// was already delivered to the consumer, and the delivered count at
	// that boundary. The node suppresses any match tagged at or below
	// Boundary for the rest of the session.
	KindTakeover
	// KindEpoch opens a replication link (primary → standby), declaring
	// the primary's coordination epoch; a takeover successor runs at
	// Epoch+1 and fences the old primary's worker sessions via the
	// epoch-stamped Assign.
	KindEpoch
	// KindLeaseAcquire requests the single-writer emission lease
	// (holder → lease server): grant it to Holder for TTLMillis if it is
	// free, expired, or already held by Holder. The server answers with a
	// LeaseFence frame either way.
	KindLeaseAcquire
	// KindLeaseRenew extends a held lease (holder → lease server) and
	// commits the holder's emission boundary: EmittedUpTo/Count record
	// the prefix the holder is about to emit, persisted at the server
	// *before* the matches reach the consumer, so a successor acquiring
	// the lease learns exactly what the fenced holder delivered.
	// TTLMillis zero releases the lease (the boundary survives).
	KindLeaseRenew
	// KindLeaseFence is the lease server's arbitration answer
	// (lease server → holder): whether the request was granted, who
	// holds the lease at which fencing epoch, the last committed
	// emission boundary, and — on denial — how long the current grant
	// has left.
	KindLeaseFence
	// KindHandover asks a standby process for its mirrored state
	// (successor → standby): the successor has acquired the lease and is
	// about to rebuild the coordinator. The standby answers with one
	// HandoverState header followed by its retained journal cuts as
	// ReplCut frames.
	KindHandover
	// KindHandoverState is the handover header (standby → successor):
	// the mirror's watermarks, emission state, topology tables, and the
	// number of ReplCut frames that follow.
	KindHandoverState
)

// String names the frame kind.
func (k Kind) String() string {
	switch k {
	case KindHello:
		return "hello"
	case KindAssign:
		return "assign"
	case KindBatch:
		return "batch"
	case KindWatermark:
		return "watermark"
	case KindMatches:
		return "matches"
	case KindMetrics:
		return "metrics"
	case KindFinish:
		return "finish"
	case KindHeartbeat:
		return "heartbeat"
	case KindMigrate:
		return "migrate"
	case KindMigrateAck:
		return "migrate-ack"
	case KindShardRoute:
		return "shard-route"
	case KindShardStats:
		return "shard-stats"
	case KindPatternAdd:
		return "pattern-add"
	case KindPatternRemove:
		return "pattern-remove"
	case KindReplCut:
		return "repl-cut"
	case KindReplState:
		return "repl-state"
	case KindTakeover:
		return "takeover"
	case KindEpoch:
		return "epoch"
	case KindLeaseAcquire:
		return "lease-acquire"
	case KindLeaseRenew:
		return "lease-renew"
	case KindLeaseFence:
		return "lease-fence"
	case KindHandover:
		return "handover"
	case KindHandoverState:
		return "handover-state"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Frame is one decoded protocol message.
type Frame interface{ kind() Kind }

// Hello is the node's handshake greeting.
type Hello struct {
	Version    uint32
	Shards     uint32 // local shard engines hosted by the node
	PatternSig uint64 // Fingerprint of the pattern set the node expects (0: any)
}

// Assign is the ingress's handshake reply fixing the shard layout: the
// node initially owns global shard indices [Base, Base+Shards) out of
// Total (Shards may be zero — a node admitted into a running cluster
// starts empty and receives its shards via Migrate frames). The ingress
// ships the session's pattern set and schema in the reply and every node
// hosts exactly what is shipped; a node configured with a pattern of its
// own only pins, through the fingerprint in its Hello, which set it is
// willing to be handed.
type Assign struct {
	Base   uint32
	Shards uint32 // initial block size (0 = join empty, shards arrive by Migrate)
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

// PatternEntry is one pattern of a session's set: the id tagging its
// matches and metrics on the wire, the tenant it bills to, and the
// pattern itself.
type PatternEntry struct {
	ID      uint32
	Tenant  uint32
	Pattern *pattern.Pattern
}

// TenantBudgetEntry binds one tenant to its token-bucket budget.
type TenantBudgetEntry struct {
	Tenant uint32
	Budget shed.TenantBudget
}

// Batch is one uniform cut of events bound for a node.
type Batch struct {
	UpTo   uint64 // global sequence watermark the cut covers
	Events []event.Event
}

// BatchView is the zero-copy decode of a Batch frame: a Reader with a
// decode arena (SetDecodeArena) materializes each event exactly once,
// directly into a block the arena opens, and returns pointers to the
// block's slots instead of an intermediate []event.Event.
//
// The view itself — Read returns a pointer to a Reader-owned BatchView,
// so the steady-state decode performs no allocation at all — and its
// Events slice header are scratch that the next Read on the same Reader
// reuses; the events Events points at are one block, alive until the
// arena releases it or, once taken (match.Arena.Take), until its new
// owner does. BatchView frames exist only on the decode side — senders
// encode Batch or BatchRaw.
type BatchView struct {
	UpTo   uint64
	Events []*event.Event
}

// BatchRaw is a pre-encoded Batch: Run holds the exact bytes that follow
// the watermark in the frame (see "Runs" in the package comment; nil
// stands for the empty run of a bare watermark frame), so Append emits a
// frame byte-identical to the Batch it replaces without an event struct
// ever existing on the sending side. A serializing transport decodes it
// as a Batch or BatchView like any other; the in-process pipe delivers
// it as it is and the node decodes a non-nil Run itself (DecodeRun).
type BatchRaw struct {
	UpTo uint64
	Run  []byte
}

// Watermark acknowledges a mirrored cut on the replication link.
type Watermark struct {
	UpTo uint64
}

// Matches is a node's answer to one progress step (see KindMatches). Recs
// holds Count records back to back, each a merge tag and a match body as
// the worker encoded it:
//
//	uvarint shard · uvarint seq · uvarint pattern · uvarint body length · body
//
// The sender builds Recs with AppendMatchRecord and the frame carries the
// bytes as they are; a decoded frame's Recs alias the buffer it was
// decoded from (a Reader reads such a frame into a buffer of its own and
// lets go of it), so the records — and the bodies Each hands out — stay
// valid for as long as anything holds them. UpTo zero advances nothing:
// the frame only delivers its records.
type Matches struct {
	UpTo  uint64
	Count int
	Recs  []byte
}

// MatchRecord is one record of a Matches frame: the global shard index
// whose engine emitted the match, the sequence number of the event whose
// processing emitted it (the within-shard order is record order), the
// emitting pattern's id, and the match body. Tagging matches with their
// shard — not their node — is what lets a shard's stream resume from a
// different node mid-run with the merge collector none the wiser.
type MatchRecord struct {
	Shard   uint32
	Seq     uint64
	Pattern uint32
	Body    []byte
}

// Metrics is a node's final report. M is the session-wide view: every
// hosted pattern on every local shard merged, plus what only the shard
// layer sees (queue drops and the latency estimators). Patterns breaks
// the engine counters down per live pattern in ascending id order, and
// Tenants reports the per-tenant admission counters.
type Metrics struct {
	M        engine.Metrics
	Patterns []PatternMetrics
	Tenants  []shed.TenantStat
}

// PatternMetrics is one pattern's engine counters within a Metrics
// frame.
type PatternMetrics struct {
	ID uint32
	M  engine.Metrics
}

// Finish signals end of stream.
type Finish struct{}

// Heartbeat is a node liveness signal (see KindHeartbeat).
type Heartbeat struct {
	UpTo uint64
}

// Migrate hands one global shard to the receiving node. The node
// becomes the shard's owner immediately; journaled cuts covering the
// shard's window follow on the same connection, so the node suppresses
// the shard's matches tagged at or below SuppressUpTo (already
// delivered by the merge collector before the handoff) and answers with
// MigrateAck once its completion watermark reaches ReplayUpTo. Pattern
// and schema travel in the Assign handshake, not here — by the time a
// Migrate arrives the node is already configured.
type Migrate struct {
	Shard        uint32
	SuppressUpTo uint64
	ReplayUpTo   uint64
}

// MigrateAck reports that a migrated shard's replay window has been
// consumed on its new owner (see KindMigrateAck). UpTo echoes the
// completion watermark that crossed the migration's ReplayUpTo.
type MigrateAck struct {
	Shard uint32
	UpTo  uint64
}

// ShardRoute is the authoritative shard → node owner table: Owner[g] is
// the ingress-side slot index owning global shard g. Broadcast to every
// live node after a routing change.
type ShardRoute struct {
	Owner []uint32
}

// ShardStats is a node's per-shard load snapshot (see KindShardStats).
type ShardStats struct {
	Stats []ShardStat
}

// ShardStat is one shard's load sample: events processed by its engine
// since the session started and the engine's queue-wait p99 estimate.
// Cut stamps the sample with the global watermark it was taken at, so
// the ingress placement controller can discard reports staled by an
// intervening migration instead of rebalancing on pre-move load.
type ShardStat struct {
	Shard    uint32
	Events   uint64
	P99Nanos uint64
	Cut      uint64
}

// PatternAdd registers one additional pattern on a running node (see
// KindPatternAdd). The pattern is validated against the schema shipped
// in the Assign handshake on application, not at decode time.
type PatternAdd struct {
	Entry PatternEntry
}

// PatternRemove retires one pattern on a running node (see
// KindPatternRemove).
type PatternRemove struct {
	ID uint32
}

// ReplCut replicates one sealed cut to a hot-standby ingress (see
// KindReplCut). Runs carries the cut's encoded runs in ascending shard
// order (shards with no events in the cut are omitted); Owner and Addrs ship
// the shard→slot table and per-slot worker addresses only on the cuts
// where the topology changed (nil otherwise — the standby keeps the last
// received tables). Final marks the stream-ending cut: the primary
// finished cleanly and the standby must stand down instead of taking
// over when the link closes.
type ReplCut struct {
	UpTo uint64
	// Cut is the dense per-run cut ordinal (1, 2, 3, …). The mirror
	// uses it to recognize a duplicated or reordered frame (Cut at or
	// below the last mirrored ordinal: ack again, mirror nothing) and to
	// detect a dropped one (a gap: the mirror is desynchronized and must
	// fail the link rather than journal an incomplete history).
	Cut   uint64
	Final bool
	Owner []uint32
	Addrs []string
	Runs  []ReplRun
}

// ReplRun is one shard's run of a sealed cut in the form every layer
// above a worker holds it: the encoded Body plus the three things a
// coordinator needs to know about it without decoding — whose it is, how
// many events it carries (the journal's accounting) and its newest
// timestamp (the journal's retention clock). Decode validates Events
// against the count Body opens with; nothing else of Body is read.
type ReplRun struct {
	Shard  uint32
	Events int
	LastTS event.Time
	Body   []byte
}

// ReplState publishes the primary's emission boundary to its standby
// (see KindReplState): every match tagged at or below EmittedUpTo has
// been delivered, Count matches in total. The standby advances its
// mirror journal's retention horizon to the boundary — matches above it
// may need regeneration on takeover, so the history that produces them
// must stay replayable.
type ReplState struct {
	EmittedUpTo uint64
	Count       uint64
}

// Takeover announces a successor ingress to a worker (see
// KindTakeover).
type Takeover struct {
	Epoch    uint64
	Boundary uint64 // suppress matches tagged ≤ Boundary (already delivered)
	Count    uint64 // matches delivered at the boundary (accounting)
}

// Epoch opens a replication link, declaring the primary's coordination
// epoch (see KindEpoch). It also ships the mirror journal's
// sizing — the pattern window, the retention slack and the byte bound —
// so an out-of-process standby (cmd/acep-standby) can size its journal
// without any pattern knowledge of its own.
type Epoch struct {
	Epoch    uint64
	Window   int64  // pattern window (journal retention unit); 0 on non-replication uses
	Slack    uint32 // retention horizon in windows (0 = journal default)
	MaxBytes uint64 // journal byte bound (0 = journal default)
}

// LeaseAcquire requests the single-writer emission lease (see
// KindLeaseAcquire).
type LeaseAcquire struct {
	Holder    uint64
	TTLMillis uint64
}

// LeaseRenew extends a held lease and commits the holder's emission
// boundary (see KindLeaseRenew). TTLMillis zero releases the lease.
type LeaseRenew struct {
	Holder      uint64
	Epoch       uint64
	TTLMillis   uint64
	EmittedUpTo uint64
	Count       uint64
}

// LeaseFence is the lease server's arbitration answer (see
// KindLeaseFence).
type LeaseFence struct {
	Granted     bool
	Holder      uint64
	Epoch       uint64
	EmittedUpTo uint64 // last committed emission boundary
	Count       uint64 // matches delivered at that boundary
	LeftMillis  uint64 // on denial: how long the current grant has left
}

// Handover asks a standby process for its mirrored state (see
// KindHandover).
type Handover struct {
	Epoch uint64 // the successor's fencing epoch (logging/auditing)
}

// HandoverState is the handover header (see KindHandoverState): the
// mirror's replication watermarks and emission state, the topology
// tables, and the number of retained-journal ReplCut frames that follow
// on the same connection.
type HandoverState struct {
	LastUpTo    uint64 // newest mirrored cut watermark
	LastCut     uint64 // newest mirrored cut ordinal
	EmittedUpTo uint64 // primary's last received emission boundary (E*)
	Count       uint64 // delivered count at that boundary (N*)
	Cuts        uint64 // retained journal cuts following as ReplCut frames
	Events      uint64 // events mirrored in total (accounting)
	Finished    bool   // the primary stood the mirror down cleanly
	Dead        bool   // the mirror observed the primary die on the link
	Cause       string // how the death surfaced (truncated to 256 bytes)
	DetectedAt  uint64 // unix nanoseconds of the death observation
	Owner       []uint32
	Addrs       []string
}

func (Hello) kind() Kind         { return KindHello }
func (Assign) kind() Kind        { return KindAssign }
func (Batch) kind() Kind         { return KindBatch }
func (BatchView) kind() Kind     { return KindBatch }
func (BatchRaw) kind() Kind      { return KindBatch }
func (Watermark) kind() Kind     { return KindWatermark }
func (Matches) kind() Kind       { return KindMatches }
func (Metrics) kind() Kind       { return KindMetrics }
func (Finish) kind() Kind        { return KindFinish }
func (Heartbeat) kind() Kind     { return KindHeartbeat }
func (Migrate) kind() Kind       { return KindMigrate }
func (MigrateAck) kind() Kind    { return KindMigrateAck }
func (ShardRoute) kind() Kind    { return KindShardRoute }
func (ShardStats) kind() Kind    { return KindShardStats }
func (PatternAdd) kind() Kind    { return KindPatternAdd }
func (PatternRemove) kind() Kind { return KindPatternRemove }
func (ReplCut) kind() Kind       { return KindReplCut }
func (ReplState) kind() Kind     { return KindReplState }
func (Takeover) kind() Kind      { return KindTakeover }
func (Epoch) kind() Kind         { return KindEpoch }
func (LeaseAcquire) kind() Kind  { return KindLeaseAcquire }
func (LeaseRenew) kind() Kind    { return KindLeaseRenew }
func (LeaseFence) kind() Kind    { return KindLeaseFence }
func (Handover) kind() Kind      { return KindHandover }
func (HandoverState) kind() Kind { return KindHandoverState }

// KindOf reports a frame's kind.
func KindOf(f Frame) Kind { return f.kind() }

// Fingerprint hashes a canonical textual rendering (FNV-1a) into the
// 64-bit signature the handshake compares; the cluster layer feeds it the
// pattern's String() plus the schema's type/attribute listing so an
// ingress and a node configured with different patterns refuse to pair.
func Fingerprint(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// ---------------------------------------------------------------------------
// Encoding

// Append encodes one frame (length prefix included) onto dst.
func Append(dst []byte, f Frame) []byte {
	lenAt := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length back-patched below
	dst = append(dst, byte(f.kind()))
	switch v := f.(type) {
	case Hello:
		dst = binary.AppendUvarint(dst, uint64(v.Version))
		dst = binary.AppendUvarint(dst, uint64(v.Shards))
		dst = binary.AppendUvarint(dst, v.PatternSig)
	case Assign:
		dst = binary.AppendUvarint(dst, uint64(v.Base))
		dst = binary.AppendUvarint(dst, uint64(v.Shards))
		dst = binary.AppendUvarint(dst, uint64(v.Total))
		dst = appendSchema(dst, v.Schema)
		dst = binary.AppendUvarint(dst, uint64(len(v.Patterns)))
		for _, e := range v.Patterns {
			dst = appendPatternEntry(dst, e)
		}
		dst = binary.AppendUvarint(dst, uint64(len(v.Tenants)))
		for _, t := range v.Tenants {
			dst = binary.AppendUvarint(dst, uint64(t.Tenant))
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(t.Budget.Rate))
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(t.Budget.Burst))
		}
		dst = binary.AppendUvarint(dst, v.Epoch)
	case Batch:
		dst = binary.AppendUvarint(dst, v.UpTo)
		dst = binary.AppendUvarint(dst, uint64(len(v.Events)))
		var prevTS event.Time
		var prevSeq uint64
		for i := range v.Events {
			ev := &v.Events[i]
			dst = appendEventDelta(dst, ev, prevTS, prevSeq)
			prevTS, prevSeq = ev.TS, ev.Seq
		}
	case BatchRaw:
		dst = binary.AppendUvarint(dst, v.UpTo)
		dst = appendRun(dst, v.Run)
	case Watermark:
		dst = binary.AppendUvarint(dst, v.UpTo)
	case Matches:
		dst = appendMatchesHead(dst, v)
		dst = append(dst, v.Recs...)
	case Metrics:
		dst = appendMetrics(dst, &v.M)
		dst = binary.AppendUvarint(dst, uint64(len(v.Patterns)))
		for i := range v.Patterns {
			dst = binary.AppendUvarint(dst, uint64(v.Patterns[i].ID))
			dst = appendMetrics(dst, &v.Patterns[i].M)
		}
		dst = binary.AppendUvarint(dst, uint64(len(v.Tenants)))
		for _, t := range v.Tenants {
			dst = binary.AppendUvarint(dst, uint64(t.Tenant))
			dst = binary.AppendUvarint(dst, t.Admitted)
			dst = binary.AppendUvarint(dst, t.Shed)
		}
	case Finish:
		// empty body
	case Heartbeat:
		dst = binary.AppendUvarint(dst, v.UpTo)
	case Migrate:
		dst = binary.AppendUvarint(dst, uint64(v.Shard))
		dst = binary.AppendUvarint(dst, v.SuppressUpTo)
		dst = binary.AppendUvarint(dst, v.ReplayUpTo)
	case MigrateAck:
		dst = binary.AppendUvarint(dst, uint64(v.Shard))
		dst = binary.AppendUvarint(dst, v.UpTo)
	case ShardRoute:
		dst = binary.AppendUvarint(dst, uint64(len(v.Owner)))
		for _, o := range v.Owner {
			dst = binary.AppendUvarint(dst, uint64(o))
		}
	case ShardStats:
		dst = binary.AppendUvarint(dst, uint64(len(v.Stats)))
		for _, s := range v.Stats {
			dst = binary.AppendUvarint(dst, uint64(s.Shard))
			dst = binary.AppendUvarint(dst, s.Events)
			dst = binary.AppendUvarint(dst, s.P99Nanos)
			dst = binary.AppendUvarint(dst, s.Cut)
		}
	case PatternAdd:
		dst = appendPatternEntry(dst, v.Entry)
	case PatternRemove:
		dst = binary.AppendUvarint(dst, uint64(v.ID))
	case ReplCut:
		dst = binary.AppendUvarint(dst, v.UpTo)
		dst = binary.AppendUvarint(dst, v.Cut)
		var flags byte
		if v.Final {
			flags |= 1
		}
		if v.Owner != nil {
			flags |= 2
		}
		if v.Addrs != nil {
			flags |= 4
		}
		dst = append(dst, flags)
		if v.Owner != nil {
			dst = binary.AppendUvarint(dst, uint64(len(v.Owner)))
			for _, o := range v.Owner {
				dst = binary.AppendUvarint(dst, uint64(o))
			}
		}
		if v.Addrs != nil {
			dst = binary.AppendUvarint(dst, uint64(len(v.Addrs)))
			for _, a := range v.Addrs {
				dst = appendString(dst, a)
			}
		}
		dst = binary.AppendUvarint(dst, uint64(len(v.Runs)))
		for _, run := range v.Runs {
			dst = binary.AppendUvarint(dst, uint64(run.Shard))
			dst = binary.AppendUvarint(dst, uint64(run.Events))
			dst = binary.AppendVarint(dst, int64(run.LastTS))
			dst = binary.AppendUvarint(dst, uint64(len(run.Body)))
			dst = append(dst, run.Body...)
		}
	case ReplState:
		dst = binary.AppendUvarint(dst, v.EmittedUpTo)
		dst = binary.AppendUvarint(dst, v.Count)
	case Takeover:
		dst = binary.AppendUvarint(dst, v.Epoch)
		dst = binary.AppendUvarint(dst, v.Boundary)
		dst = binary.AppendUvarint(dst, v.Count)
	case Epoch:
		dst = binary.AppendUvarint(dst, v.Epoch)
		dst = binary.AppendVarint(dst, v.Window)
		dst = binary.AppendUvarint(dst, uint64(v.Slack))
		dst = binary.AppendUvarint(dst, v.MaxBytes)
	case LeaseAcquire:
		dst = binary.AppendUvarint(dst, v.Holder)
		dst = binary.AppendUvarint(dst, v.TTLMillis)
	case LeaseRenew:
		dst = binary.AppendUvarint(dst, v.Holder)
		dst = binary.AppendUvarint(dst, v.Epoch)
		dst = binary.AppendUvarint(dst, v.TTLMillis)
		dst = binary.AppendUvarint(dst, v.EmittedUpTo)
		dst = binary.AppendUvarint(dst, v.Count)
	case LeaseFence:
		var flags byte
		if v.Granted {
			flags |= 1
		}
		dst = append(dst, flags)
		dst = binary.AppendUvarint(dst, v.Holder)
		dst = binary.AppendUvarint(dst, v.Epoch)
		dst = binary.AppendUvarint(dst, v.EmittedUpTo)
		dst = binary.AppendUvarint(dst, v.Count)
		dst = binary.AppendUvarint(dst, v.LeftMillis)
	case Handover:
		dst = binary.AppendUvarint(dst, v.Epoch)
	case HandoverState:
		dst = binary.AppendUvarint(dst, v.LastUpTo)
		dst = binary.AppendUvarint(dst, v.LastCut)
		dst = binary.AppendUvarint(dst, v.EmittedUpTo)
		dst = binary.AppendUvarint(dst, v.Count)
		dst = binary.AppendUvarint(dst, v.Cuts)
		dst = binary.AppendUvarint(dst, v.Events)
		var flags byte
		if v.Finished {
			flags |= 1
		}
		if v.Dead {
			flags |= 2
		}
		if v.Owner != nil {
			flags |= 4
		}
		if v.Addrs != nil {
			flags |= 8
		}
		dst = append(dst, flags)
		cause := v.Cause
		if len(cause) > maxNameBytes {
			cause = cause[:maxNameBytes]
		}
		dst = appendString(dst, cause)
		dst = binary.AppendUvarint(dst, v.DetectedAt)
		if v.Owner != nil {
			dst = binary.AppendUvarint(dst, uint64(len(v.Owner)))
			for _, o := range v.Owner {
				dst = binary.AppendUvarint(dst, uint64(o))
			}
		}
		if v.Addrs != nil {
			dst = binary.AppendUvarint(dst, uint64(len(v.Addrs)))
			for _, a := range v.Addrs {
				dst = appendString(dst, a)
			}
		}
	default:
		panic(fmt.Sprintf("wire: unencodable frame type %T", f))
	}
	binary.LittleEndian.PutUint32(dst[lenAt:], uint32(len(dst)-lenAt-4))
	return dst
}

func appendEvent(dst []byte, ev *event.Event) []byte {
	dst = binary.AppendUvarint(dst, uint64(ev.Type))
	dst = binary.AppendVarint(dst, int64(ev.TS))
	dst = binary.AppendUvarint(dst, ev.Seq)
	return appendAttrs(dst, ev.Attrs)
}

// appendEventDelta encodes an event against the previous event of its
// Batch frame: timestamps and sequence numbers are near-monotone within
// one cut, so signed deltas almost always fit a single varint byte.
// Subtraction wraps in two's complement, so arbitrary (even decreasing)
// inputs still round-trip exactly.
func appendEventDelta(dst []byte, ev *event.Event, prevTS event.Time, prevSeq uint64) []byte {
	dst = binary.AppendUvarint(dst, uint64(ev.Type))
	dst = binary.AppendVarint(dst, int64(ev.TS-prevTS))
	dst = binary.AppendVarint(dst, int64(ev.Seq-prevSeq))
	return appendAttrs(dst, ev.Attrs)
}

// appendRun appends a pre-encoded run; nil stands for the empty run,
// whose encoding is its zero event count.
func appendRun(dst, run []byte) []byte {
	if len(run) == 0 {
		return append(dst, 0)
	}
	return append(dst, run...)
}

// runHead is the room a RunEncoder keeps in front of the events for the
// count that opens the run: the count is known only at the seal, and a
// varint's width depends on its value.
const runHead = binary.MaxVarintLen64

// RunEncoder builds one run event by event — the ingress's cut buffer.
// The zero value is ready to use.
type RunEncoder struct {
	buf     []byte // runHead spare bytes, then the delta-coded events
	n       int
	prevTS  event.Time
	prevSeq uint64
}

// Append encodes ev onto the run. Nothing of ev is retained.
func (e *RunEncoder) Append(ev *event.Event) {
	if len(e.buf) == 0 {
		e.buf = append(e.buf, make([]byte, runHead)...)
	}
	e.buf = appendEventDelta(e.buf, ev, e.prevTS, e.prevSeq)
	e.prevTS, e.prevSeq = ev.TS, ev.Seq
	e.n++
}

// Events reports how many events the open run holds.
func (e *RunEncoder) Events() int { return e.n }

// Seal closes the run and returns it; Body aliases the encoder's storage
// until Reset lets go of it. An empty run seals to a ReplRun without a
// body.
func (e *RunEncoder) Seal(shard uint32) ReplRun {
	if e.n == 0 {
		return ReplRun{Shard: shard}
	}
	var count [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(count[:], uint64(e.n))
	copy(e.buf[runHead-k:], count[:k])
	return ReplRun{Shard: shard, Events: e.n, LastTS: e.prevTS, Body: e.buf[runHead-k:]}
}

// Reset starts the next run. With reuse it overwrites the storage of the
// last one, which is legal only once nothing reads the sealed body any
// more; otherwise the body keeps that storage and the encoder takes
// fresh storage sized after it — consecutive cuts give a shard runs of
// similar length.
func (e *RunEncoder) Reset(reuse bool) {
	if reuse {
		e.buf = e.buf[:0]
	} else if n := len(e.buf); n > 0 {
		e.buf = make([]byte, 0, n+n/8+64)
	}
	e.n, e.prevTS, e.prevSeq = 0, 0, 0
}

func appendAttrs(dst []byte, attrs []float64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(attrs)))
	for _, a := range attrs {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(a))
	}
	return dst
}

func appendPatternEntry(dst []byte, e PatternEntry) []byte {
	dst = binary.AppendUvarint(dst, uint64(e.ID))
	dst = binary.AppendUvarint(dst, uint64(e.Tenant))
	return appendPattern(dst, e.Pattern)
}

// appendPattern encodes a compiled pattern (1 byte presence, then for OR
// the disjunct list, else one sub-pattern body).
func appendPattern(dst []byte, p *pattern.Pattern) []byte {
	if p == nil {
		return append(dst, 0)
	}
	if p.Op == pattern.Or {
		dst = append(dst, 2)
		dst = binary.AppendUvarint(dst, uint64(len(p.Subs)))
		for _, s := range p.Subs {
			dst = appendSubPattern(dst, s)
		}
		return dst
	}
	dst = append(dst, 1)
	return appendSubPattern(dst, p)
}

func appendSubPattern(dst []byte, p *pattern.Pattern) []byte {
	dst = append(dst, byte(p.Op))
	dst = binary.AppendVarint(dst, int64(p.Window))
	dst = binary.AppendUvarint(dst, uint64(len(p.Positions)))
	for _, pos := range p.Positions {
		dst = binary.AppendUvarint(dst, uint64(pos.Type))
		var flags byte
		if pos.Neg {
			flags |= 1
		}
		if pos.Kleene {
			flags |= 2
		}
		dst = append(dst, flags)
	}
	dst = binary.AppendUvarint(dst, uint64(len(p.Preds)))
	for _, pr := range p.Preds {
		dst = binary.AppendUvarint(dst, uint64(pr.L))
		dst = binary.AppendVarint(dst, int64(pr.R)) // Unary is -1
		dst = binary.AppendUvarint(dst, uint64(pr.AttrL))
		dst = binary.AppendUvarint(dst, uint64(pr.AttrR))
		dst = append(dst, byte(pr.Op))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(pr.C))
	}
	return dst
}

// appendSchema encodes the schema's type/attribute registry (1 byte
// presence, then the type list in registration order).
func appendSchema(dst []byte, s *event.Schema) []byte {
	if s == nil {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	dst = binary.AppendUvarint(dst, uint64(s.NumTypes()))
	for t := 0; t < s.NumTypes(); t++ {
		dst = appendString(dst, s.TypeName(t))
		attrs := s.Attrs(t)
		dst = binary.AppendUvarint(dst, uint64(len(attrs)))
		for _, a := range attrs {
			dst = appendString(dst, a)
		}
	}
	return dst
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendMatchesHead encodes what precedes the records in a Matches frame.
func appendMatchesHead(dst []byte, v Matches) []byte {
	dst = binary.AppendUvarint(dst, v.UpTo)
	return binary.AppendUvarint(dst, uint64(v.Count))
}

// AppendMatchRecord appends one record of a Matches frame to dst: the
// merge tag, then body — the bytes AppendMatchBody wrote — copied as it
// is.
func AppendMatchRecord(dst []byte, shard uint32, seq uint64, pattern uint32, body []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(shard))
	dst = binary.AppendUvarint(dst, seq)
	dst = binary.AppendUvarint(dst, uint64(pattern))
	dst = binary.AppendUvarint(dst, uint64(len(body)))
	return append(dst, body...)
}

// minMatchRecord is the shortest record: four one-byte varints and the
// body of a match without positions.
const minMatchRecord = 6

// Each checks the frame — the count against the bytes, every record's
// tag and length, every body (CheckMatchBody) — and calls visit, when not
// nil, with each record in order; the bodies alias Recs. It allocates
// nothing. On an error the records visited so far were sound, the frame
// is not: a caller that must take all of it or none collects and discards.
func (m Matches) Each(visit func(MatchRecord)) error {
	if m.Count < 0 || uint64(m.Count)*minMatchRecord > uint64(len(m.Recs)) {
		return fmt.Errorf("wire: matches frame declares %d records over %d bytes", m.Count, len(m.Recs))
	}
	c := cursor{b: m.Recs}
	for i := 0; i < m.Count; i++ {
		r := MatchRecord{Shard: uint32(c.uvarint()), Seq: c.uvarint(), Pattern: uint32(c.uvarint())}
		n := c.count(MaxFrame, 1, "match body byte")
		if c.err != nil {
			return c.err
		}
		r.Body = c.b[c.off : c.off+n : c.off+n]
		c.off += n
		if err := CheckMatchBody(r.Body); err != nil {
			return fmt.Errorf("wire: matches frame record %d of %d: %w", i+1, m.Count, err)
		}
		if visit != nil {
			visit(r)
		}
	}
	if c.off != len(m.Recs) {
		return fmt.Errorf("wire: matches frame has %d trailing bytes", len(m.Recs)-c.off)
	}
	return nil
}

// AppendMatchBody encodes a match's body onto dst and returns the
// extended slice: the positions, then the Kleene sets, every event with
// absolute timestamp and sequence number. The match is read during the
// call and not retained — safe on a resolver's scratch match.
func AppendMatchBody(dst []byte, m *match.Match) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(m.Events)))
	for _, ev := range m.Events {
		if ev == nil {
			dst = append(dst, 0)
			continue
		}
		dst = append(dst, 1)
		dst = appendEvent(dst, ev)
	}
	dst = binary.AppendUvarint(dst, uint64(len(m.Kleene)))
	for _, set := range m.Kleene {
		if set == nil {
			dst = append(dst, 0)
			continue
		}
		dst = append(dst, 1)
		dst = binary.AppendUvarint(dst, uint64(len(set)))
		for _, ev := range set {
			dst = appendEvent(dst, ev)
		}
	}
	return dst
}

// CheckMatchBody reports whether b is a match body: exactly what
// DecodeMatchBody accepts, without allocating. Whoever takes bodies in
// from outside — the ingress reader, off a worker's link — checks them
// here, so that corrupt bytes fail the session they arrived on and never
// the emission boundary.
func CheckMatchBody(b []byte) error {
	_, err := matchLayout(b)
	return err
}

// DecodeMatchBody decodes a match body into a match the caller owns, in
// the one layout such a match has (match.Owned): four allocations, five
// with Kleene sets. It belongs at the emission boundary — the last point
// before a consumer sees the match; everything ahead of it carries the
// bytes.
func DecodeMatchBody(b []byte) (*match.Match, error) {
	l, err := matchLayout(b)
	if err != nil {
		return nil, err
	}
	// The walk above accepted these bytes, so none of the reads below can
	// fail, and it counted them, so nothing below relocates.
	m, own := l.New()
	c := cursor{b: b}
	next := func() *event.Event {
		typ, ts, seq := int(c.uvarint()), event.Time(c.varint()), c.uvarint()
		ev := own.Alloc(typ, ts, seq, int(c.uvarint()))
		for k := range ev.Attrs {
			ev.Attrs[k] = c.f64()
		}
		return ev
	}
	c.uvarint() // len(m.Events)
	for i := range m.Events {
		if c.u8() == 1 {
			m.Events[i] = next()
		}
	}
	c.uvarint() // len(m.Kleene)
	for p := range m.Kleene {
		if c.u8() == 1 {
			set := own.Set(int(c.uvarint()))
			for i := range set {
				set[i] = next()
			}
			m.Kleene[p] = set
		}
	}
	return m, nil
}

// matchLayout walks a match body once, allocating nothing: it checks the
// structure — counts against their caps and the bytes left, presence tags
// 0 or 1, every varint in its shortest form, nothing trailing — and
// counts what a decode will store. Every size DecodeMatchBody allocates
// comes from here, so each is bounded by bytes actually present: an event
// by the 4 bytes it takes at least, an attribute value by its 8, a
// position by its presence tag (and maxPositions).
func matchLayout(b []byte) (match.Layout, error) {
	var l match.Layout
	c := cursor{b: b, strict: true}
	skip := func() { // one event
		c.uvarint() // type
		c.varint()  // timestamp
		c.uvarint() // sequence number
		n := c.count(maxAttrs, 8, "attribute")
		c.off += 8 * n
		l.Events++
		l.Attrs += n
	}
	present := func() bool {
		switch c.u8() {
		case 0:
		case 1:
			return c.err == nil
		default:
			c.fail("presence tag at offset %d is neither 0 nor 1", c.off-1)
		}
		return false
	}
	l.Positions = c.count(maxPositions, 1, "match position")
	for i := 0; i < l.Positions && c.err == nil; i++ {
		if present() {
			skip()
		}
	}
	l.Sets = c.count(maxPositions, 1, "kleene position")
	for i := 0; i < l.Sets && c.err == nil; i++ {
		if !present() {
			continue
		}
		n := c.count(maxKleene, 4, "kleene event")
		l.Members += n
		for j := 0; j < n && c.err == nil; j++ {
			skip()
		}
	}
	if c.err != nil {
		return l, c.err
	}
	if c.off != len(b) {
		return l, fmt.Errorf("wire: match body has %d trailing bytes", len(b)-c.off)
	}
	return l, nil
}

func appendMetrics(dst []byte, m *engine.Metrics) []byte {
	for _, u := range []uint64{
		m.Events, m.Matches, m.LateDropped, m.EventsArrived, m.EventsShed,
		m.QueueDropped, m.DecisionCalls, m.PlanGenerations, m.Reoptimizations,
		m.PMCreated, m.PredEvals,
	} {
		dst = binary.AppendUvarint(dst, u)
	}
	for _, d := range []time.Duration{m.DecisionTime, m.PlanTime, m.StatTime} {
		dst = binary.AppendVarint(dst, int64(d))
	}
	dst = binary.AppendVarint(dst, int64(m.PeakPMs))
	dst = appendQuantile(dst, &m.QueueWait)
	dst = appendQuantile(dst, &m.DetectTime)
	return dst
}

func appendQuantile(dst []byte, q *stats.Quantile) []byte {
	dst = binary.AppendUvarint(dst, q.Count())
	s := q.Samples()
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	for _, v := range s {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// ---------------------------------------------------------------------------
// Decoding

// ErrShort reports that the buffer ends before one whole frame; stream
// readers treat it as "need more data", not corruption.
var ErrShort = errors.New("wire: short buffer")

// cursor walks a frame body, latching the first error. A strict cursor
// also refuses a varint that is not in its shortest form: what it accepts
// has one encoding.
type cursor struct {
	b      []byte
	off    int
	err    error
	strict bool
}

func (c *cursor) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("wire: "+format, args...)
	}
}

func (c *cursor) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		c.fail("truncated or overlong varint at offset %d", c.off)
		return 0
	}
	c.minimal(n)
	c.off += n
	return v
}

// minimal fails a strict cursor on an n-byte varint at the current offset
// that a shorter one would have encoded: its last byte adds nothing.
func (c *cursor) minimal(n int) {
	if c.strict && n > 1 && c.b[c.off+n-1] == 0 {
		c.fail("varint at offset %d is not in its shortest form", c.off)
	}
}

func (c *cursor) varint() int64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Varint(c.b[c.off:])
	if n <= 0 {
		c.fail("truncated or overlong varint at offset %d", c.off)
		return 0
	}
	c.minimal(n)
	c.off += n
	return v
}

func (c *cursor) u8() byte {
	if c.err != nil {
		return 0
	}
	if c.off >= len(c.b) {
		c.fail("truncated byte at offset %d", c.off)
		return 0
	}
	v := c.b[c.off]
	c.off++
	return v
}

func (c *cursor) f64() float64 {
	if c.err != nil {
		return 0
	}
	if c.off+8 > len(c.b) {
		c.fail("truncated float at offset %d", c.off)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(c.b[c.off:]))
	c.off += 8
	return v
}

// count reads a length-like uvarint and validates it against a cap and
// the bytes actually left in the frame (minSize per element), so a
// corrupt count can neither overflow a structural limit nor force an
// allocation much larger than the frame that claims it.
func (c *cursor) count(limit uint64, minSize int, what string) int {
	v := c.uvarint()
	if c.err != nil {
		return 0
	}
	if v > limit {
		c.fail("%s count %d exceeds cap %d", what, v, limit)
		return 0
	}
	if v*uint64(minSize) > uint64(len(c.b)-c.off) {
		c.fail("%s count %d exceeds remaining frame bytes", what, v)
		return 0
	}
	return int(v)
}

// Decode parses one frame from the head of b, returning the frame and the
// number of bytes consumed. A buffer ending before one whole frame
// returns ErrShort (possibly wrapped); anything structurally invalid
// returns a descriptive error.
func Decode(b []byte) (Frame, int, error) {
	if len(b) < 4 {
		return nil, 0, ErrShort
	}
	n := binary.LittleEndian.Uint32(b)
	if n < 1 || n > MaxFrame {
		return nil, 0, fmt.Errorf("wire: frame length %d out of range [1, %d]", n, MaxFrame)
	}
	if uint64(len(b)) < 4+uint64(n) {
		return nil, 0, fmt.Errorf("frame needs %d bytes, have %d: %w", 4+n, len(b), ErrShort)
	}
	payload := b[4 : 4+n]
	f, err := decodePayload(payload)
	if err != nil {
		return nil, 0, err
	}
	return f, 4 + int(n), nil
}

func decodePayload(p []byte) (Frame, error) {
	c := &cursor{b: p, off: 1}
	var f Frame
	switch Kind(p[0]) {
	case KindHello:
		f = Hello{
			Version:    uint32(c.uvarint()),
			Shards:     uint32(c.uvarint()),
			PatternSig: c.uvarint(),
		}
	case KindAssign:
		v := Assign{
			Base:   uint32(c.uvarint()),
			Shards: uint32(c.uvarint()),
			Total:  uint32(c.uvarint()),
		}
		v.Schema = c.schema()
		ne := c.count(maxPatternEntries, 3, "pattern entry")
		for i := 0; i < ne && c.err == nil; i++ {
			v.Patterns = append(v.Patterns, c.patternEntry(v.Schema))
		}
		nt := c.count(maxTenantEntries, 17, "tenant budget")
		for i := 0; i < nt && c.err == nil; i++ {
			v.Tenants = append(v.Tenants, TenantBudgetEntry{
				Tenant: uint32(c.uvarint()),
				Budget: shed.TenantBudget{Rate: c.f64(), Burst: c.f64()},
			})
		}
		v.Epoch = c.uvarint()
		f = v
	case KindBatch:
		v := Batch{UpTo: c.uvarint()}
		n := c.count(maxBatchEvents, 4, "batch event")
		if n > 0 {
			v.Events = make([]event.Event, n)
			var prevTS event.Time
			var prevSeq uint64
			for i := 0; i < n && c.err == nil; i++ {
				v.Events[i] = c.eventDelta(prevTS, prevSeq)
				prevTS, prevSeq = v.Events[i].TS, v.Events[i].Seq
			}
		}
		f = v
	case KindWatermark:
		f = Watermark{UpTo: c.uvarint()}
	case KindMatches:
		v := Matches{UpTo: c.uvarint()}
		v.Count = c.count(maxMatches, minMatchRecord, "match record")
		if c.err == nil {
			if c.off < len(p) {
				v.Recs = p[c.off:]
				c.off = len(p)
			}
			if err := v.Each(nil); err != nil {
				return nil, err
			}
		}
		f = v
	case KindMetrics:
		v := Metrics{M: c.metrics()}
		// An entry is at least 20 bytes: the id, 15 counters and two
		// empty estimators of two count bytes each.
		np := c.count(maxPatternEntries, 20, "pattern metrics")
		for i := 0; i < np && c.err == nil; i++ {
			v.Patterns = append(v.Patterns, PatternMetrics{ID: uint32(c.uvarint()), M: c.metrics()})
		}
		nt := c.count(maxTenantEntries, 3, "tenant stat")
		for i := 0; i < nt && c.err == nil; i++ {
			v.Tenants = append(v.Tenants, shed.TenantStat{
				Tenant:   uint32(c.uvarint()),
				Admitted: c.uvarint(),
				Shed:     c.uvarint(),
			})
		}
		f = v
	case KindFinish:
		f = Finish{}
	case KindHeartbeat:
		f = Heartbeat{UpTo: c.uvarint()}
	case KindMigrate:
		f = Migrate{
			Shard:        uint32(c.uvarint()),
			SuppressUpTo: c.uvarint(),
			ReplayUpTo:   c.uvarint(),
		}
	case KindMigrateAck:
		f = MigrateAck{Shard: uint32(c.uvarint()), UpTo: c.uvarint()}
	case KindShardRoute:
		v := ShardRoute{}
		n := c.count(maxRouteShards, 1, "route owner")
		if n > 0 {
			v.Owner = make([]uint32, n)
			for i := 0; i < n && c.err == nil; i++ {
				v.Owner[i] = uint32(c.uvarint())
			}
		}
		f = v
	case KindShardStats:
		v := ShardStats{}
		n := c.count(maxShardStats, 4, "shard stat")
		if n > 0 {
			v.Stats = make([]ShardStat, n)
			for i := 0; i < n && c.err == nil; i++ {
				v.Stats[i] = ShardStat{
					Shard:    uint32(c.uvarint()),
					Events:   c.uvarint(),
					P99Nanos: c.uvarint(),
					Cut:      c.uvarint(),
				}
			}
		}
		f = v
	case KindPatternAdd:
		v := PatternAdd{Entry: c.patternEntry(nil)}
		f = v
	case KindPatternRemove:
		f = PatternRemove{ID: uint32(c.uvarint())}
	case KindReplCut:
		v := ReplCut{UpTo: c.uvarint(), Cut: c.uvarint()}
		flags := c.u8()
		if c.err == nil && flags&^byte(7) != 0 {
			c.fail("repl-cut flags %#x unknown", flags)
		}
		v.Final = flags&1 != 0
		if flags&2 != 0 {
			n := c.count(maxRouteShards, 1, "repl owner")
			v.Owner = make([]uint32, n)
			for i := 0; i < n && c.err == nil; i++ {
				v.Owner[i] = uint32(c.uvarint())
			}
		}
		if flags&4 != 0 {
			n := c.count(maxNodeAddrs, 1, "repl addr")
			v.Addrs = make([]string, n)
			for i := 0; i < n && c.err == nil; i++ {
				v.Addrs[i] = c.str("repl addr")
			}
		}
		// A run is at least its four metadata varints and a one-event body.
		nr := c.count(maxReplRuns, 9, "repl run")
		if nr > 0 {
			v.Runs = make([]ReplRun, 0, nr)
		}
		for i := 0; i < nr && c.err == nil; i++ {
			v.Runs = append(v.Runs, c.replRun())
		}
		f = v
	case KindReplState:
		f = ReplState{EmittedUpTo: c.uvarint(), Count: c.uvarint()}
	case KindTakeover:
		f = Takeover{Epoch: c.uvarint(), Boundary: c.uvarint(), Count: c.uvarint()}
	case KindEpoch:
		f = Epoch{
			Epoch:    c.uvarint(),
			Window:   c.varint(),
			Slack:    uint32(c.uvarint()),
			MaxBytes: c.uvarint(),
		}
	case KindLeaseAcquire:
		f = LeaseAcquire{Holder: c.uvarint(), TTLMillis: c.uvarint()}
	case KindLeaseRenew:
		f = LeaseRenew{
			Holder:      c.uvarint(),
			Epoch:       c.uvarint(),
			TTLMillis:   c.uvarint(),
			EmittedUpTo: c.uvarint(),
			Count:       c.uvarint(),
		}
	case KindLeaseFence:
		flags := c.u8()
		if c.err == nil && flags&^byte(1) != 0 {
			c.fail("lease-fence flags %#x unknown", flags)
		}
		f = LeaseFence{
			Granted:     flags&1 != 0,
			Holder:      c.uvarint(),
			Epoch:       c.uvarint(),
			EmittedUpTo: c.uvarint(),
			Count:       c.uvarint(),
			LeftMillis:  c.uvarint(),
		}
	case KindHandover:
		f = Handover{Epoch: c.uvarint()}
	case KindHandoverState:
		v := HandoverState{
			LastUpTo:    c.uvarint(),
			LastCut:     c.uvarint(),
			EmittedUpTo: c.uvarint(),
			Count:       c.uvarint(),
			Cuts:        c.uvarint(),
			Events:      c.uvarint(),
		}
		flags := c.u8()
		if c.err == nil && flags&^byte(15) != 0 {
			c.fail("handover-state flags %#x unknown", flags)
		}
		v.Finished = flags&1 != 0
		v.Dead = flags&2 != 0
		v.Cause = c.str("handover cause")
		v.DetectedAt = c.uvarint()
		if flags&4 != 0 {
			n := c.count(maxRouteShards, 1, "handover owner")
			v.Owner = make([]uint32, n)
			for i := 0; i < n && c.err == nil; i++ {
				v.Owner[i] = uint32(c.uvarint())
			}
		}
		if flags&8 != 0 {
			n := c.count(maxNodeAddrs, 1, "handover addr")
			v.Addrs = make([]string, n)
			for i := 0; i < n && c.err == nil; i++ {
				v.Addrs[i] = c.str("handover addr")
			}
		}
		f = v
	default:
		return nil, fmt.Errorf("wire: unknown frame kind %d", p[0])
	}
	if c.err != nil {
		return nil, c.err
	}
	if c.off != len(p) {
		return nil, fmt.Errorf("wire: %s frame has %d trailing bytes", Kind(p[0]), len(p)-c.off)
	}
	return f, nil
}

// eventDelta decodes a Batch event whose timestamp and sequence number
// are deltas against the previous event of the frame (see
// appendEventDelta).
func (c *cursor) eventDelta(prevTS event.Time, prevSeq uint64) event.Event {
	ev := event.Event{Type: int(c.uvarint())}
	ev.TS = prevTS + event.Time(c.varint())
	ev.Seq = prevSeq + uint64(c.varint())
	c.attrs(&ev)
	return ev
}

// replRun reads one run of a ReplCut: the metadata, then the body as
// bytes. The body is copied out of the frame (the caller's buffer is
// reused) and only its opening count is looked at — it must be what the
// metadata claims, or the mirror's accounting would drift from what a
// worker later decodes.
func (c *cursor) replRun() ReplRun {
	run := ReplRun{Shard: uint32(c.uvarint())}
	run.Events = c.count(maxBatchEvents, 4, "repl run event")
	run.LastTS = event.Time(c.varint())
	n := c.count(MaxFrame, 1, "repl run byte")
	if c.err != nil {
		return run
	}
	body := c.b[c.off : c.off+n]
	c.off += n
	if count, k := binary.Uvarint(body); run.Events == 0 || k <= 0 || count != uint64(run.Events) {
		c.fail("repl run of shard %d declares %d events over a %d-byte body that does not open with that count", run.Shard, run.Events, n)
		return run
	}
	run.Body = append([]byte(nil), body...)
	return run
}

func (c *cursor) attrs(ev *event.Event) {
	n := c.count(maxAttrs, 8, "attribute")
	if n > 0 {
		ev.Attrs = make([]float64, n)
		for i := range ev.Attrs {
			ev.Attrs[i] = c.f64()
		}
	}
}

func (c *cursor) str(what string) string {
	n := c.count(maxNameBytes, 1, what)
	if c.err != nil {
		return ""
	}
	s := string(c.b[c.off : c.off+n])
	c.off += n
	return s
}

// patternEntry decodes one pattern-set entry. The pattern is rebuilt
// through the pattern Builder, so the shipped structure passes the same
// validation a locally built pattern does (position/attribute ranges
// against the schema when one is shipped alongside). A nil schema (the
// PatternAdd path — the schema was pinned by the Assign handshake —
// or a schema-free Assign) skips the range validation; structural
// validation still runs. An entry without a pattern is invalid — an id
// with nothing to evaluate.
func (c *cursor) patternEntry(s *event.Schema) PatternEntry {
	e := PatternEntry{ID: uint32(c.uvarint()), Tenant: uint32(c.uvarint())}
	e.Pattern = c.pattern(s)
	if c.err == nil && e.Pattern == nil {
		c.fail("pattern entry %d has no pattern", e.ID)
	}
	return e
}

func (c *cursor) schema() *event.Schema {
	if c.u8() == 0 || c.err != nil {
		return nil
	}
	s := event.NewSchema()
	nt := c.count(maxSchemaTypes, 2, "schema type")
	for t := 0; t < nt && c.err == nil; t++ {
		name := c.str("type name")
		na := c.count(maxSchemaAttrs, 1, "schema attribute")
		attrs := make([]string, 0, na)
		for a := 0; a < na && c.err == nil; a++ {
			attrs = append(attrs, c.str("attribute name"))
		}
		if c.err != nil {
			return nil
		}
		if _, err := s.AddType(name, attrs...); err != nil {
			c.fail("shipped schema: %v", err)
			return nil
		}
	}
	return s
}

func (c *cursor) pattern(s *event.Schema) *pattern.Pattern {
	switch c.u8() {
	case 0:
		return nil
	case 1:
		return c.subPattern(s)
	case 2:
		ns := c.count(maxSubPatterns, 4, "sub-pattern")
		subs := make([]*pattern.Pattern, 0, ns)
		for i := 0; i < ns && c.err == nil; i++ {
			subs = append(subs, c.subPattern(s))
		}
		if c.err != nil {
			return nil
		}
		p, err := pattern.NewOr(subs...)
		if err != nil {
			c.fail("shipped pattern: %v", err)
			return nil
		}
		return p
	default:
		c.fail("bad pattern presence tag")
		return nil
	}
}

func (c *cursor) subPattern(s *event.Schema) *pattern.Pattern {
	op := pattern.Op(c.u8())
	if op != pattern.Seq && op != pattern.And {
		c.fail("shipped pattern: bad operator %d", op)
		return nil
	}
	b := pattern.NewBuilder(s, op, event.Time(c.varint()))
	// A compiled pattern's dispatch table is as long as its largest type:
	// the schema bounds it, and where none was shipped the cap on any
	// schema's size does.
	types := uint64(maxSchemaTypes)
	if s != nil {
		types = uint64(s.NumTypes())
	}
	np := c.count(maxPatPositions, 2, "pattern position")
	for i := 0; i < np && c.err == nil; i++ {
		typ := c.uvarint()
		if typ >= types {
			c.fail("shipped pattern: event type %d outside the schema's %d", typ, types)
			return nil
		}
		pos := b.Event(int(typ))
		flags := c.u8()
		if flags&1 != 0 {
			b.Negate(pos)
		}
		if flags&2 != 0 {
			b.Kleene(pos)
		}
	}
	npr := c.count(maxPatPreds, 13, "pattern predicate")
	for i := 0; i < npr && c.err == nil; i++ {
		b.WherePred(pattern.Pred{
			L:     int(c.uvarint()),
			R:     int(c.varint()),
			AttrL: int(c.uvarint()),
			AttrR: int(c.uvarint()),
			Op:    pattern.CmpOp(c.u8()),
			C:     c.f64(),
		})
	}
	if c.err != nil {
		return nil
	}
	p, err := b.Build()
	if err != nil {
		c.fail("shipped pattern: %v", err)
		return nil
	}
	return p
}

func (c *cursor) metrics() engine.Metrics {
	var m engine.Metrics
	for _, u := range []*uint64{
		&m.Events, &m.Matches, &m.LateDropped, &m.EventsArrived, &m.EventsShed,
		&m.QueueDropped, &m.DecisionCalls, &m.PlanGenerations, &m.Reoptimizations,
		&m.PMCreated, &m.PredEvals,
	} {
		*u = c.uvarint()
	}
	m.DecisionTime = time.Duration(c.varint())
	m.PlanTime = time.Duration(c.varint())
	m.StatTime = time.Duration(c.varint())
	m.PeakPMs = int(c.varint())
	m.QueueWait = c.quantile()
	m.DetectTime = c.quantile()
	return m
}

func (c *cursor) quantile() stats.Quantile {
	count := c.uvarint()
	n := c.count(maxSamples, 8, "quantile sample")
	samples := make([]float64, n)
	for i := range samples {
		samples[i] = c.f64()
	}
	if c.err != nil {
		return stats.Quantile{}
	}
	return stats.RestoreQuantile(count, samples)
}

// ---------------------------------------------------------------------------
// Stream framing

// Writer frames messages onto an io.Writer. Each Write issues exactly one
// underlying write call — two for a BatchRaw or a Matches, whose run or
// records go out as they are instead of through the frame buffer — so
// frames on a net.Conn are not interleaved as long as one goroutine owns
// the Writer.
type Writer struct {
	w   io.Writer
	buf []byte
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Write encodes and sends one frame.
func (w *Writer) Write(f Frame) error {
	var tail []byte // pre-encoded bytes that follow the head as they are
	switch v := f.(type) {
	case BatchRaw:
		if tail = v.Run; len(tail) > 0 {
			w.buf = append(w.buf[:0], 0, 0, 0, 0, byte(KindBatch))
			w.buf = binary.AppendUvarint(w.buf, v.UpTo)
		}
	case Matches:
		if tail = v.Recs; len(tail) > 0 {
			w.buf = append(w.buf[:0], 0, 0, 0, 0, byte(KindMatches))
			w.buf = appendMatchesHead(w.buf, v)
		}
	}
	if len(tail) == 0 {
		w.buf = Append(w.buf[:0], f)
		_, err := w.w.Write(w.buf)
		return err
	}
	binary.LittleEndian.PutUint32(w.buf, uint32(len(w.buf)-4+len(tail)))
	if _, err := w.w.Write(w.buf); err != nil {
		return err
	}
	_, err := w.w.Write(tail)
	return err
}

// Reader decodes frames from an io.Reader. A clean end of stream at a
// frame boundary returns io.EOF; a stream ending mid-frame returns
// io.ErrUnexpectedEOF.
type Reader struct {
	r    io.Reader
	head [5]byte // length prefix and kind
	buf  []byte

	// Zero-copy batch decode state (SetDecodeArena).
	arena *match.Arena
	evs   []*event.Event
	view  BatchView
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// SetDecodeArena switches the Reader to zero-copy batch decoding: every
// Batch frame's run is decoded directly into a block of its own that a
// opens (each event materialized once, its attribute values written in
// place into the block's flat array) and returned as a *BatchView frame
// instead of a Batch. All other frame kinds are unaffected. The Reader
// hands out pointers into the block and does not track their lifetime:
// the block's owner — a, until it releases the block behind a horizon,
// or the consumer that took it (match.Arena.Take) and holds it until its
// engines' Floor has passed it — answers for no decoded pointer outliving
// it. A nil arena restores the copying decode.
func (r *Reader) SetDecodeArena(a *match.Arena) { r.arena = a }

// Read decodes the next frame. What it returns may alias the Reader's
// buffer only until the next Read, with one exception: a Matches frame's
// records are the consumer's to keep.
func (r *Reader) Read() (Frame, error) {
	if _, err := io.ReadFull(r.r, r.head[:4]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n := binary.LittleEndian.Uint32(r.head[:])
	if n < 1 || n > MaxFrame {
		return nil, fmt.Errorf("wire: frame length %d out of range [1, %d]", n, MaxFrame)
	}
	_, err := io.ReadFull(r.r, r.head[4:])
	var buf []byte
	if err == nil {
		if Kind(r.head[4]) == KindMatches {
			// The decoded records alias the frame's bytes and outlive this
			// call: the frame gets a buffer of its own, which goes with it.
			buf = make([]byte, n)
		} else {
			if cap(r.buf) < int(n) {
				r.buf = make([]byte, n)
			}
			buf = r.buf[:n]
		}
		buf[0] = r.head[4]
		_, err = io.ReadFull(r.r, buf[1:])
	}
	if err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if r.arena != nil && Kind(buf[0]) == KindBatch {
		return r.decodeBatchInto(buf)
	}
	return decodePayload(buf)
}

// decodeBatchInto is the zero-copy KindBatch decode: the watermark, then
// the run straight into the Reader's arena.
func (r *Reader) decodeBatchInto(p []byte) (Frame, error) {
	c := &cursor{b: p, off: 1}
	r.view = BatchView{UpTo: c.uvarint()}
	if c.err != nil {
		return nil, c.err
	}
	evs, err := DecodeRun(r.arena, p[c.off:], r.evs)
	if err != nil {
		return nil, err
	}
	r.evs, r.view.Events = evs, evs
	return &r.view, nil
}

// DecodeRun decodes a non-empty run into a block of its own in a
// (match.Arena.Open): the block reserves room for the run, every event is
// appended in place and its delta-coded fields and attribute values are
// written straight into the slot — no intermediate event slice exists, and
// the caller can lift the whole run out of the arena with Take. The pointers
// are appended to evs[:0], which the caller keeps as scratch between
// calls. This is the one decoder a worker runs, whether the run arrived in
// a socket frame or as a BatchRaw over the in-process pipe; corrupt bytes
// are an error, never a panic.
func DecodeRun(a *match.Arena, run []byte, evs []*event.Event) ([]*event.Event, error) {
	c := &cursor{b: run}
	n := c.count(maxBatchEvents, 4, "batch event")
	if cap(evs) < n {
		evs = make([]*event.Event, 0, n)
	}
	evs = evs[:0]
	var dst *match.Block
	if n > 0 { // a bare watermark frame's empty run opens nothing
		dst = a.Open()
		// An attribute value is 8 bytes of the run, so the bytes left bound
		// their number: nothing relocates while the run decodes.
		dst.Reserve(n, (len(run)-c.off)/8)
	}
	var prevTS event.Time
	var prevSeq uint64
	for i := 0; i < n && c.err == nil; i++ {
		typ := int(c.uvarint())
		ts := prevTS + event.Time(c.varint())
		seq := prevSeq + uint64(c.varint())
		na := c.count(maxAttrs, 8, "attribute")
		if c.err != nil {
			break
		}
		ev := dst.Alloc(typ, ts, seq, na)
		for k := 0; k < na && c.err == nil; k++ {
			ev.Attrs[k] = c.f64()
		}
		evs = append(evs, ev)
		prevTS, prevSeq = ts, seq
	}
	if c.err != nil {
		return evs, c.err
	}
	if c.off != len(run) {
		return evs, fmt.Errorf("wire: batch frame has %d trailing bytes", len(run)-c.off)
	}
	return evs, nil
}
