// Package wire is the versioned binary codec of the distributed cluster
// layer (internal/cluster, internal/ha, internal/lease). It frames four
// conversations:
//
//   - ingress ↔ worker node: the Hello/Assign handshake; Batch cuts down,
//     Matches and Heartbeats back; shard migration (Migrate,
//     MigrateAck, ShardRoute); pattern registration (PatternAdd,
//     PatternRemove); Finish, answered by Metrics.
//   - primary → standby coordinator: Epoch opens the replication link,
//     ReplCut mirrors every sealed cut and ReplState the emission boundary.
//   - coordinator ↔ lease server: LeaseAcquire and LeaseRenew, answered by
//     LeaseFence.
//   - successor → standby process: Handover, answered by HandoverState
//     and the retained cuts as ReplCut frames.
//
// Each frame type's doc says what the frame means. Both sides refuse a
// peer whose Hello carries another Version.
//
// # Framing and layouts
//
// A frame is [u32 little-endian length][u8 kind][body], the length
// covering kind and body and bounded by MaxFrame. Bodies are varints and
// little-endian IEEE-754 bits, which round-trip exactly (NaN payloads
// included). A control frame's layout is its code method (frames.go), one
// call per field in wire order, which Append runs with an encoding codec
// and Decode with a decoding one; the hot kinds are hand-written beside
// what they change with: Batch and its runs in run.go, Matches and match
// bodies in matches.go. Decoding is strict — varints in their shortest
// form, 32-bit fields within 32 bits, presence bytes 0 or 1, no unknown
// flag bit — so a frame Decode accepts has one encoding
// (TestDecodeMutations); it never panics, and every count is checked
// against a cap and the bytes present before anything is allocated.
// TestGoldenFrames pins the bytes of every kind.
//
// # Runs and match bodies
//
// What follows the watermark in a Batch body — the event count, then the
// events delta-coded from (0, 0) — is a run: one shard's events of one
// cut. The ingress encodes a run once, as it accepts the events
// (RunEncoder), and everything above a worker carries those bytes: the
// Batch frame to the worker (BatchRaw), the cut journal, the ReplCut to
// the standby, its mirror and the handover (ReplRun). Only a worker
// decodes one (DecodeRun, or a Reader with a decode arena).
//
// A match travels the other way as its body, the bytes AppendMatchBody
// wrote on the worker: a Matches frame carries bodies as records, whoever
// receives one checks them without allocating (Matches.Each,
// CheckMatchBody), and only the emission boundary — where a consumer is
// about to see the match — decodes one (DecodeMatchBody).
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
)

// Version is the protocol version carried in Hello frames. Bump it on any
// layout change: no frame carries compatibility shapes.
const Version = 13

// MaxFrame bounds one frame's payload (kind+body) in bytes; Decode and
// Reader reject larger length prefixes as corrupt.
const MaxFrame = 1 << 26

// Structural caps validated before any decode-side allocation.
const (
	maxBatchEvents = 1 << 22 // events per Batch frame
	maxAttrs       = 1 << 12 // attributes per event
	maxPositions   = 1 << 12 // positions per match
	maxKleene      = 1 << 20 // events per Kleene closure
	maxMatches     = 1 << 22 // records per Matches frame

	// Pattern/schema shipping caps (Assign payloads).
	maxSchemaTypes  = 1 << 10 // event types per schema
	maxSchemaAttrs  = 1 << 8  // attributes per type
	maxNameBytes    = 1 << 8  // bytes per type/attribute name
	maxPatPositions = 1 << 10 // positions per (sub-)pattern
	maxPatPreds     = 1 << 12 // predicates per (sub-)pattern
	maxSubPatterns  = 1 << 8  // disjuncts per OR pattern

	// Cluster caps (owner tables, ReplCut runs; pattern
	// sets and tenant tables; worker address tables).
	maxShards         = 1 << 20 // global shards
	maxPatternEntries = 1 << 12 // pattern entries per Assign or Metrics frame
	maxTenantEntries  = 1 << 12 // tenant budget/stat entries per frame
	maxNodeAddrs      = 1 << 16 // worker addresses per table
)

// Kind tags a frame's body layout; see the frame type of the same name.
type Kind uint8

// The frame kinds, numbered on the wire in this order from 1.
const (
	KindHello Kind = 1 + iota
	KindAssign
	KindBatch
	KindWatermark
	KindMatches
	KindMetrics
	KindFinish
	KindHeartbeat
	KindMigrate
	KindMigrateAck
	KindShardRoute
	_ // 12: retired (a node's load report, up to Version 9); decodes as unknown
	KindPatternAdd
	KindPatternRemove
	KindReplCut
	KindReplState
	_ // 17: retired (a successor's session-wide suppression floor, up to Version 12); decodes as unknown
	KindEpoch
	KindLeaseAcquire
	KindLeaseRenew
	KindLeaseFence
	KindHandover
	KindHandoverState
)

var kindNames = [...]string{
	KindHello: "hello", KindAssign: "assign", KindBatch: "batch",
	KindWatermark: "watermark", KindMatches: "matches", KindMetrics: "metrics",
	KindFinish: "finish", KindHeartbeat: "heartbeat", KindMigrate: "migrate",
	KindMigrateAck: "migrate-ack", KindShardRoute: "shard-route",
	KindPatternAdd: "pattern-add", KindPatternRemove: "pattern-remove",
	KindReplCut: "repl-cut", KindReplState: "repl-state", KindEpoch: "epoch",
	KindLeaseAcquire: "lease-acquire", KindLeaseRenew: "lease-renew",
	KindLeaseFence: "lease-fence", KindHandover: "handover",
	KindHandoverState: "handover-state",
}

// String names the frame kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Frame is one decoded protocol message.
type Frame interface{ kind() Kind }

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
func (PatternAdd) kind() Kind    { return KindPatternAdd }
func (PatternRemove) kind() Kind { return KindPatternRemove }
func (ReplCut) kind() Kind       { return KindReplCut }
func (ReplState) kind() Kind     { return KindReplState }
func (Epoch) kind() Kind         { return KindEpoch }
func (LeaseAcquire) kind() Kind  { return KindLeaseAcquire }
func (LeaseRenew) kind() Kind    { return KindLeaseRenew }
func (LeaseFence) kind() Kind    { return KindLeaseFence }
func (Handover) kind() Kind      { return KindHandover }
func (HandoverState) kind() Kind { return KindHandoverState }

// KindOf reports a frame's kind.
func KindOf(f Frame) Kind { return f.kind() }

// Fingerprint hashes a canonical rendering of a pattern set and schema
// (FNV-1a) into the signature the handshake compares, so that an ingress
// and a node configured with different patterns refuse to pair.
func Fingerprint(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// Append encodes one frame (length prefix included) onto dst.
func Append(dst []byte, f Frame) []byte {
	dst, tail := appendFrame(dst, f)
	return append(dst, tail...)
}

// appendFrame encodes f onto dst up to its pre-encoded tail — a BatchRaw's
// run, a Matches frame's records — which it returns instead of copying;
// the length prefix counts it.
func appendFrame(dst []byte, f Frame) (_, tail []byte) {
	switch v := f.(type) {
	case BatchRaw:
		return appendRaw(dst, v)
	case Matches:
		return appendMatches(dst, v)
	}
	c := codec{b: append(dst, 0, 0, 0, 0, byte(f.kind())), enc: true}
	switch v := f.(type) {
	case Hello:
		v.code(&c)
	case Assign:
		v.code(&c)
	case Batch:
		v.encode(&c)
	case Watermark:
		v.code(&c)
	case Metrics:
		v.code(&c)
	case Finish:
		v.code(&c)
	case Heartbeat:
		v.code(&c)
	case Migrate:
		v.code(&c)
	case MigrateAck:
		v.code(&c)
	case ShardRoute:
		v.code(&c)
	case PatternAdd:
		v.code(&c)
	case PatternRemove:
		v.code(&c)
	case ReplCut:
		v.code(&c)
	case ReplState:
		v.code(&c)
	case Epoch:
		v.code(&c)
	case LeaseAcquire:
		v.code(&c)
	case LeaseRenew:
		v.code(&c)
	case LeaseFence:
		v.code(&c)
	case Handover:
		v.code(&c)
	case HandoverState:
		v.code(&c)
	default:
		panic(fmt.Sprintf("wire: unencodable frame type %T", f))
	}
	return sealFrame(c.b, len(dst), tail), tail
}

// appendRaw is appendFrame for a BatchRaw, taken as it is: a sender of
// many runs (Writer.WriteRaw) boxes none of them into a Frame.
func appendRaw(dst []byte, v BatchRaw) (_, tail []byte) {
	c := codec{b: append(dst, 0, 0, 0, 0, byte(KindBatch)), enc: true}
	tail = v.encode(&c)
	return sealFrame(c.b, len(dst), tail), tail
}

// appendMatches is appendFrame for a Matches frame, taken as it is
// (Writer.WriteMatches); its records are the tail.
func appendMatches(dst []byte, v Matches) (_, tail []byte) {
	c := codec{b: append(dst, 0, 0, 0, 0, byte(KindMatches)), enc: true}
	tail = v.code(&c).Recs
	return sealFrame(c.b, len(dst), tail), tail
}

// sealFrame writes the length prefix of the frame that starts at b[at:]
// and continues with tail.
func sealFrame(b []byte, at int, tail []byte) []byte {
	binary.LittleEndian.PutUint32(b[at:], uint32(len(b)-at-4+len(tail)))
	return b
}

// Decode parses one frame from the head of b and reports the bytes it
// took. A buffer ending before one whole frame returns ErrShort (possibly
// wrapped); anything invalid a descriptive error.
func Decode(b []byte) (Frame, int, error) {
	if len(b) < 4 {
		return nil, 0, ErrShort
	}
	n, err := frameLen(b)
	if err != nil {
		return nil, 0, err
	}
	if uint64(len(b)) < 4+uint64(n) {
		return nil, 0, fmt.Errorf("frame needs %d bytes, have %d: %w", 4+n, len(b), ErrShort)
	}
	f, err := decodePayload(b[4 : 4+n])
	if err != nil {
		return nil, 0, err
	}
	return f, 4 + int(n), nil
}

// frameLen reads a frame's length prefix and checks it against MaxFrame.
func frameLen(prefix []byte) (uint32, error) {
	n := binary.LittleEndian.Uint32(prefix)
	if n < 1 || n > MaxFrame {
		return 0, fmt.Errorf("wire: frame length %d out of range [1, %d]", n, MaxFrame)
	}
	return n, nil
}

func decodePayload(p []byte) (Frame, error) {
	c := &codec{b: p, off: 1}
	var f Frame
	switch Kind(p[0]) {
	case KindHello:
		f = Hello{}.code(c)
	case KindAssign:
		f = Assign{}.code(c)
	case KindBatch:
		f = c.batch()
	case KindWatermark:
		f = Watermark{}.code(c)
	case KindMatches:
		f = Matches{}.code(c)
	case KindMetrics:
		f = Metrics{}.code(c)
	case KindFinish:
		f = Finish{}.code(c)
	case KindHeartbeat:
		f = Heartbeat{}.code(c)
	case KindMigrate:
		f = Migrate{}.code(c)
	case KindMigrateAck:
		f = MigrateAck{}.code(c)
	case KindShardRoute:
		f = ShardRoute{}.code(c)
	case KindPatternAdd:
		f = PatternAdd{}.code(c)
	case KindPatternRemove:
		f = PatternRemove{}.code(c)
	case KindReplCut:
		f = ReplCut{}.code(c)
	case KindReplState:
		f = ReplState{}.code(c)
	case KindEpoch:
		f = Epoch{}.code(c)
	case KindLeaseAcquire:
		f = LeaseAcquire{}.code(c)
	case KindLeaseRenew:
		f = LeaseRenew{}.code(c)
	case KindLeaseFence:
		f = LeaseFence{}.code(c)
	case KindHandover:
		f = Handover{}.code(c)
	case KindHandoverState:
		f = HandoverState{}.code(c)
	default:
		return nil, fmt.Errorf("wire: unknown frame kind %d", p[0])
	}
	if err := c.end(); err != nil {
		return nil, err
	}
	return f, nil
}

// end reports what is wrong with the frame a decoding codec has read
// (c.b, kind first): the first field that failed, or bytes left after the
// last field.
func (c *codec) end() error {
	if c.err != nil {
		return c.err
	}
	if c.off != len(c.b) {
		return fmt.Errorf("wire: %s frame has %d trailing bytes", Kind(c.b[0]), len(c.b)-c.off)
	}
	return nil
}
