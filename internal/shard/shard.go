// Package shard is the parallel execution layer: it partitions one input
// stream by a user-supplied key, hosts the session's pattern set on every
// shard — one multi.Evaluator per worker goroutine, a single pattern
// being the set of one — and merges the per-shard matches back into one
// deterministic, ordered output.
//
// Each shard owns a complete detection-adaptation loop per pattern — its
// own evaluation plan, statistics estimator and invariant policy — so the
// paper's adaptation method applies per partition without modification
// (§7: each shard keeps independent statistics and invariants, and may
// legitimately settle on a different plan when its key group's data
// characteristics differ). The layer preserves exact detection semantics
// for key-partitionable patterns: when equality-on-key predicates connect
// every pattern position (see Partitionable), the union of the shard-local
// match sets equals the global match set, because all events of one key
// value are routed to one shard.
//
// # Ingestion, bounded queues and ordering
//
// Per-shard ingestion queues are bounded (Options.QueueCap events,
// default four batches). When a shard falls behind, Options.Overflow
// chooses between blocking the producer (Backpressure, lossless) and
// discarding the overflowing handoff (DropNewest, counted in
// Metrics().QueueDropped) — the coarse, last-resort arm of overload
// control. The fine-grained arm is
// per-event shedding inside each shard's engine (engine.Config.Shedding,
// see internal/shed), whose load monitor watches this queue's depth.
//
// Process hands events to workers in batches (Options.Batch events per
// cut) to amortize channel synchronization; at every cut all shards
// receive their accumulated events together with the global sequence
// number the cut covers, so every shard's progress watermark advances
// uniformly even when its partition is momentarily idle. Matches are
// tagged with the sequence number of the event whose processing emitted
// them, buffered in a Collector, and released strictly in tag order once
// every shard's watermark has passed the tag: OnMatch therefore observes
// matches in nondecreasing detection order (and, the stream being
// timestamp-ordered, nondecreasing detection timestamp), in an order that
// is a deterministic function of the input for a fixed shard count.
//
// The cluster layer (internal/cluster) stacks on this package: a worker
// node hosts one Engine routed by explicit global shard index
// (Options.Route), flushes it at every network cut (Flush), receives
// tagged matches and completion watermarks through Options.OnTagged and
// Options.OnProgress, and the ingress coordinator merges whole node
// streams through another Collector.
package shard

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"acep/internal/engine"
	"acep/internal/event"
	"acep/internal/match"
	"acep/internal/multi"
	"acep/internal/pattern"
	"acep/internal/shed"
	"acep/internal/stats"
)

// Overflow selects what Process does when a shard's bounded ingestion
// queue is full.
type Overflow int

const (
	// Backpressure blocks Process until the shard drains (default): no
	// event is ever lost, at the cost of stalling ingestion.
	Backpressure Overflow = iota
	// DropNewest discards the overflowing handoff's events for that shard
	// and counts them in Metrics().QueueDropped. Ingestion never blocks;
	// the dropped cut's watermark rides on the next successful handoff,
	// so match ordering is unaffected (matches merely wait for the
	// lagging shard's progress). Finish always delivers the final cut.
	DropNewest
)

// String names the overflow mode.
func (o Overflow) String() string {
	switch o {
	case Backpressure:
		return "backpressure"
	case DropNewest:
		return "drop-newest"
	default:
		return fmt.Sprintf("Overflow(%d)", int(o))
	}
}

// Options assembles a sharded engine.
type Options struct {
	// Shards is the number of partitions (and worker goroutines).
	// Defaults to runtime.GOMAXPROCS(0).
	Shards int
	// Batch is the number of ingested events per handoff cut (default
	// 256). Larger batches amortize synchronization; smaller ones reduce
	// match emission latency.
	Batch int
	// QueueCap bounds the per-shard ingestion queue in events: the
	// channel holds QueueCap/Batch batches, rounded up (default
	// defaultQueueBatches); ingestion blocks (Backpressure) or drops
	// (DropNewest) when a shard falls this far behind.
	QueueCap int
	// Overflow selects the full-queue behavior (default Backpressure).
	Overflow Overflow
	// Key extracts the partition key (custom-extractor mode). Exactly one
	// of Key and KeyAttr must be set, unless Route is set (then Key is
	// optional and used only for shedding protection).
	Key KeyFunc
	// KeyAttr names the key attribute (hash mode): the key is the
	// attribute's value, resolved per type through Schema, and the
	// pattern is validated to be partitionable by it.
	KeyAttr string
	// Schema resolves KeyAttr; required in hash mode.
	Schema *event.Schema
	// Route, when set, maps an event directly to its shard index in
	// [0, Shards), overriding the default mix64(Key) % Shards placement.
	// The caller owns the correctness obligation that all events of one
	// partition key route to one shard. The cluster node layer uses it to
	// pin each global shard index to a fixed local engine.
	Route func(*event.Event) int
	// OnMatch receives every match, on the collector goroutine, in the
	// deterministic merged order described in the package comment.
	OnMatch func(*match.Match)
	// OnTagged, when set instead of OnMatch, receives every match with
	// its merge tag (sequence number, shard, emission index), in the same
	// order and on the same goroutine. The cluster node layer forwards
	// tags over the wire so the ingress can merge across nodes.
	OnTagged func(Tagged)
	// OnProgress (optional) is called on the collector goroutine whenever
	// the engine's completion watermark advances: every match tagged at
	// or below the reported sequence number has been delivered.
	OnProgress func(uint64)
	// Patterns is the pattern set to host, for callers with more than one
	// pattern (New is then called with a nil pattern and a zero
	// engine.Config — each spec carries its own Config; New's pattern
	// argument is shorthand for the set of one under multi.SoloID). Every
	// worker runs one multi.Evaluator over the whole set (shared unary
	// predicates, shared SEQ prefix runners, per-tenant budgets) on its
	// partition of the stream, and every Tagged match carries the
	// emitting pattern's id. In hash mode every pattern of the set must
	// be partitionable by KeyAttr. Mutate the running set with
	// AddPattern/RemovePattern.
	Patterns []multi.Spec
	// Tenants installs per-tenant token-bucket budgets. Each worker gates
	// its own partition independently with a full copy of the budget, so
	// a budget intended as a global rate should be divided by the shard
	// count before it lands here.
	Tenants map[uint32]shed.TenantBudget
	// EncodeMatch, settable only with OnTagged, switches the engine to the
	// owned-emit wire path: every shard's evaluators run under the
	// owned-emit contract, each match is encoded into a per-shard outbox
	// slab on the worker goroutine (dst is the slab to append to; return
	// the extended slice), and the resulting Tagged carries the encoded
	// bytes in Enc with M nil. The callback must read m synchronously and
	// retain nothing — the cluster node layer passes
	// wire.AppendMatchBody, so matches travel from the resolver's scratch
	// to the wire without ever materializing a collector-side copy.
	EncodeMatch func(dst []byte, m *match.Match) []byte
}

// cut is one batch handoff: pointers to the shard's events accumulated
// since the last cut (possibly none), their ingress wall-clock stamps
// (unix nanos, parallel to events), plus the global sequence watermark
// the cut covers. The events live in the engine's
// ingest arena (Process) or in caller-stable storage (ProcessStable) —
// either way they outlive the evaluators' retention window, so workers
// hand the pointers straight to their engines without re-interning.
type cut struct {
	events []*event.Event
	stamps []int64
	upTo   uint64
	// ops are pattern-set mutations applied before the cut's events:
	// sealing mutations into their own cut pins them to one
	// deterministic stream position on every worker.
	ops []patternOp
}

// patternOp is one pattern-set mutation: add (add != nil) or remove the
// pattern with id.
type patternOp struct {
	add *multi.Spec
	id  uint32
}

// detectSampleEvery is the per-worker sampling stride of the detection-
// time estimator (queue wait is measured for every event; detection time
// costs two clock reads, so it is sampled).
const detectSampleEvery = 16

// loadSampleCuts is the per-worker publishing stride of the live load
// snapshot (ShardLoads): the queue-wait p99 read sorts the estimator's
// reservoir, so it is refreshed every few cuts, not every cut.
const loadSampleCuts = 16

// worker runs one shard's evaluator on its own goroutine.
type worker struct {
	id   int
	eval *multi.Evaluator
	in   chan cut
	free chan cut // recycles consumed cut buffers back to the coordinator

	// Emission state, owned by the worker goroutine (emit, the
	// evaluator's OnMatch, runs there). scratch collects the matches
	// emitted while processing one event; flushEmits moves them into out
	// in canonical order (per-shard emission indices are assigned by the
	// collector in posting order). On the owned-emit wire path (Options.
	// EncodeMatch) the scratch entries are pooled copies of the
	// resolver's scratch match and flushEmits encodes each into the enc
	// outbox slab instead of letting it escape to the collector.
	curSeq  uint64
	scratch []scratchMatch
	out     []Tagged

	encode func(dst []byte, m *match.Match) []byte
	enc    []byte         // per-cut outbox slab; ownership passes with take()
	mfree  []*match.Match // pooled scratch copies (owned-emit path only)

	// Latency estimators, owned by the worker goroutine; read by
	// Metrics/ShardMetrics after Finish.
	qwait   stats.Quantile
	detect  stats.Quantile
	nevents uint64

	// Live load snapshot, published by the worker goroutine every
	// loadSampleCuts cuts and readable from any goroutine mid-run
	// (Engine.ShardLoads): events processed so far and the queue-wait
	// p99 estimate in nanoseconds. The placement controller of the
	// cluster layer feeds on these.
	cuts       uint64
	liveEvents atomic.Uint64
	liveWait   atomic.Uint64
}

// scratchMatch is one match emitted while processing the current event,
// tagged with its pattern id.
type scratchMatch struct {
	pat uint32
	m   *match.Match
}

// emit is the evaluator's OnMatch: it parks the match until the current
// event is fully processed (see flushEmits). On the owned-emit path the
// scratch match dies when this callback returns, so it is cloned into a
// pooled copy first.
func (w *worker) emit(id uint32, m *match.Match) {
	if w.encode != nil {
		m = w.copyScratch(m)
	}
	w.scratch = append(w.scratch, scratchMatch{pat: id, m: m})
}

func (w *worker) take() []Tagged {
	m := w.out
	w.out = nil
	// The outbox slab is now referenced by the taken tags; the next cut
	// starts a fresh one (the collector may buffer tags indefinitely, so
	// the slab must never be overwritten).
	w.enc = nil
	return m
}

// copyScratch clones the resolver's scratch match into a pooled worker
// match: the slice headers are the worker's own (reused across matches),
// the event pointers are stable arena events. Needed because the
// owned-emit contract invalidates the emitted match when the OnMatch
// callback returns, but canonical ordering (flushEmits) runs only after
// the whole event is processed.
func (w *worker) copyScratch(src *match.Match) *match.Match {
	var m *match.Match
	if n := len(w.mfree); n > 0 {
		m = w.mfree[n-1]
		w.mfree[n-1] = nil
		w.mfree = w.mfree[:n-1]
	} else {
		m = &match.Match{}
	}
	m.Events = append(m.Events[:0], src.Events...)
	m.Kleene = m.Kleene[:0]
	for _, set := range src.Kleene {
		m.Kleene = append(m.Kleene, append([]*event.Event(nil), set...))
	}
	return m
}

// putMatch recycles a pooled scratch copy, dropping its event references
// so dead matches don't pin arena chunks.
func (w *worker) putMatch(m *match.Match) {
	clear(m.Events[:cap(m.Events)])
	m.Events = m.Events[:0]
	clear(m.Kleene[:cap(m.Kleene)])
	m.Kleene = m.Kleene[:0]
	w.mfree = append(w.mfree, m)
}

// flushEmits tags the matches emitted while processing the current event
// and appends them to the outgoing batch in canonical order (by
// constituent event sequence numbers). The engine's own emission order
// within one event depends on its evaluation-plan trajectory — two
// engines fed the same events can enumerate simultaneous completions
// differently after adapting differently — so sorting here is what makes
// the delivered stream a function of the input alone. The cluster's
// failover replay relies on this: a successor rebuilding a lost shard
// from journaled history replans from scratch yet must reproduce the
// dead engine's stream byte for byte.
func (w *worker) flushEmits() {
	if len(w.scratch) == 0 {
		return
	}
	if len(w.scratch) > 1 {
		sortMatches(w.scratch)
	}
	for _, s := range w.scratch {
		t := Tagged{Seq: w.curSeq, Src: w.id, Pattern: s.pat}
		if w.encode != nil {
			// Owned-emit wire path: encode into the outbox slab and
			// recycle the pooled copy. Appends may grow the slab into a
			// new backing array; earlier tags keep the old one alive, so
			// every Enc slice stays valid.
			start := len(w.enc)
			w.enc = w.encode(w.enc, s.m)
			t.Enc = w.enc[start:len(w.enc):len(w.enc)]
			w.putMatch(s.m)
		} else {
			t.M = s.m
		}
		w.out = append(w.out, t)
	}
	w.scratch = w.scratch[:0]
}

func (w *worker) run(col *Collector, wg *sync.WaitGroup) {
	defer wg.Done()
	for c := range w.in {
		for _, op := range c.ops {
			// Pattern-set mutations are prevalidated by AddPattern /
			// RemovePattern on the coordinator goroutine, so the only
			// possible failure here is a duplicate id, which the engine-
			// side registry already rejected.
			if op.add != nil {
				_ = w.eval.Add(*op.add)
			} else {
				_ = w.eval.Remove(op.id)
			}
		}
		if len(c.events) > 0 {
			recv := time.Now().UnixNano()
			for i, ev := range c.events {
				w.qwait.Add(float64(recv - c.stamps[i]))
				w.curSeq = ev.Seq
				w.nevents++
				if w.nevents%detectSampleEvery == 0 {
					t0 := time.Now()
					w.eval.Process(ev)
					w.detect.Add(float64(time.Since(t0)))
				} else {
					w.eval.Process(ev)
				}
				w.flushEmits()
			}
		}
		col.Post(w.id, c.upTo, w.take())
		// Publish the live load sample on a stride (the p99 read sorts
		// the reservoir, too costly per cut).
		if w.cuts++; w.cuts%loadSampleCuts == 0 {
			w.liveEvents.Store(w.nevents)
			w.liveWait.Store(uint64(w.qwait.Quantile(0.99)))
		}
		// Recycle the consumed cut buffers: the evaluator retains the
		// events themselves, never these slice headers. Event pointers
		// are cleared first so a pooled buffer cannot pin arena chunks
		// past their release horizon.
		if cap(c.events) > 0 {
			for i := range c.events {
				c.events[i] = nil
			}
			select {
			case w.free <- cut{events: c.events[:0], stamps: c.stamps[:0]}:
			default:
			}
		}
	}
	// End of stream: flush parked matches. They are tagged past every
	// real sequence number and ordered by (shard, emission index).
	w.curSeq = math.MaxUint64
	w.eval.Finish()
	w.flushEmits()
	col.Post(w.id, math.MaxUint64, w.take())
}

// sortMatches orders simultaneously emitted matches canonically: by
// pattern id, then by core event sequence numbers position by position,
// then by Kleene closure contents. The pattern id leads so that shared
// and independent evaluation — which interleave per-pattern emissions
// differently within one event — deliver the identical stream.
// Insertion sort — simultaneous emission groups are tiny.
func sortMatches(ms []scratchMatch) {
	for i := 1; i < len(ms); i++ {
		for j := i; j > 0 && scratchLess(ms[j], ms[j-1]); j-- {
			ms[j], ms[j-1] = ms[j-1], ms[j]
		}
	}
}

func scratchLess(a, b scratchMatch) bool {
	if a.pat != b.pat {
		return a.pat < b.pat
	}
	return matchLess(a.m, b.m)
}

func matchLess(a, b *match.Match) bool {
	if c := cmpEvents(a.Events, b.Events); c != 0 {
		return c < 0
	}
	na, nb := len(a.Kleene), len(b.Kleene)
	for p := 0; p < na && p < nb; p++ {
		if c := cmpEvents(a.Kleene[p], b.Kleene[p]); c != 0 {
			return c < 0
		}
	}
	return na < nb
}

// cmpEvents compares position-aligned event slices by sequence number;
// nil entries (residual positions) order before any event.
func cmpEvents(a, b []*event.Event) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		ae, be := a[i], b[i]
		switch {
		case ae == nil && be == nil:
		case ae == nil:
			return -1
		case be == nil:
			return 1
		case ae.Seq != be.Seq:
			if ae.Seq < be.Seq {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// Engine is a sharded adaptive detection engine. Process, Flush and
// Finish must be called from a single goroutine; OnMatch fires on the
// collector goroutine. The zero value is not usable; construct with New.
type Engine struct {
	route    func(*event.Event) int
	nshards  int
	batch    int
	overflow Overflow
	window   event.Time

	workers []*worker
	bufs    [][]*event.Event
	stamps  [][]int64
	free    chan cut // consumed cut buffers recycled by the workers
	pending int
	lastSeq uint64

	// arena is the single-copy ingest store: Process interns each event
	// exactly once here and everything downstream — cut buffers, evaluator
	// buffers, partial matches, emitted matches — holds pointers into it.
	// Recycling stays off, so releasing a chunk merely drops the arena's
	// reference and the garbage collector keeps it alive for as long as
	// any evaluator or buffered match still points in; any release horizon
	// is therefore memory-safe, and the horizon below only bounds how much
	// the arena itself pins. ProcessStable bypasses the arena entirely
	// (its events are caller-stable — a wire decode arena or journal).
	arena match.Arena
	maxTS event.Time

	queueDropped []uint64 // per shard, owned by the Process goroutine
	queueCap     int      // effective per-shard queue bound, in events

	// Pattern registry, owned by the Process goroutine like all
	// coordinator state. schema and key re-validate runtime additions.
	patIDs  map[uint32]bool
	schema  *event.Schema
	key     KeyFunc
	keyAttr string

	col      *Collector
	wg       sync.WaitGroup
	finished bool
}

// defaultQueueBatches is the per-shard channel capacity, in batches, when
// Options.QueueCap is unset.
const defaultQueueBatches = 4

// New builds a sharded engine hosting pat — shorthand for the set of one,
// multi.Solo(pat, cfg) — or, with a nil pattern, the set in
// opts.Patterns. cfg configures the pattern's engine on every shard
// identically; cfg.OnMatch must be nil (matches are merged through
// opts.OnMatch) and no hosted Config may carry a Policy (policies are
// stateful and cannot be shared across shards — set NewPolicy, or leave
// both nil for the default invariant policy per shard).
func New(pat *pattern.Pattern, cfg engine.Config, opts Options) (*Engine, error) {
	if cfg.OnMatch != nil {
		return nil, fmt.Errorf("shard: set Options.OnMatch, not engine Config.OnMatch (per-shard callbacks would not be ordered)")
	}
	specs := append([]multi.Spec(nil), opts.Patterns...)
	switch {
	case pat != nil && len(specs) > 0:
		return nil, fmt.Errorf("shard: pass a pattern or Options.Patterns, not both")
	case pat != nil:
		specs = multi.Solo(pat, cfg)
	case len(specs) == 0:
		return nil, fmt.Errorf("shard: nothing to detect: pass a pattern or set Options.Patterns")
	}
	if opts.OnMatch != nil && opts.OnTagged != nil {
		return nil, fmt.Errorf("shard: set at most one of Options.OnMatch and Options.OnTagged")
	}
	if opts.EncodeMatch != nil && opts.OnTagged == nil {
		return nil, fmt.Errorf("shard: Options.EncodeMatch requires Options.OnTagged (encoded matches carry no *match.Match for OnMatch)")
	}
	if opts.Shards <= 0 {
		opts.Shards = runtime.GOMAXPROCS(0)
	}
	if opts.Batch <= 0 {
		opts.Batch = 256
	}
	// The arena release horizon is the widest window of the set.
	var window event.Time
	for _, sp := range specs {
		if sp.Pattern != nil && sp.Pattern.Window > window {
			window = sp.Pattern.Window
		}
	}
	queue := defaultQueueBatches
	if opts.QueueCap > 0 {
		queue = (opts.QueueCap + opts.Batch - 1) / opts.Batch
	}
	if opts.Route == nil || opts.Key != nil || opts.KeyAttr != "" {
		// admit verifies each pattern partitionable (it also vets runtime
		// additions), so the set is not passed here.
		key, err := KeyFor(opts.Key, opts.KeyAttr, opts.Schema, nil)
		if err != nil {
			return nil, err
		}
		opts.Key = key
	}

	e := &Engine{
		route:        opts.Route,
		nshards:      opts.Shards,
		batch:        opts.Batch,
		overflow:     opts.Overflow,
		window:       window,
		bufs:         make([][]*event.Event, opts.Shards),
		stamps:       make([][]int64, opts.Shards),
		queueDropped: make([]uint64, opts.Shards),
		queueCap:     queue * opts.Batch,
		// One pooled buffer set per queue slot plus the one being filled:
		// with full queues every cut still finds a recycled buffer.
		free:    make(chan cut, opts.Shards*(queue+1)),
		patIDs:  make(map[uint32]bool, len(specs)),
		schema:  opts.Schema,
		key:     opts.Key,
		keyAttr: opts.KeyAttr,
	}
	if e.route == nil {
		key, n := opts.Key, uint64(opts.Shards)
		e.route = func(ev *event.Event) int { return int(mix64(key(ev)) % n) }
	}
	for i := range specs {
		var err error
		if specs[i], err = e.admit(specs[i]); err != nil {
			return nil, err
		}
		e.patIDs[specs[i].ID] = true
	}
	set, err := multi.Analyze(specs, opts.Schema)
	if err != nil {
		return nil, err
	}
	for s := 0; s < e.nshards; s++ {
		w := &worker{id: s, in: make(chan cut, queue), encode: opts.EncodeMatch, free: e.free}
		w.eval, err = multi.NewEvaluator(set, multi.Options{
			OnMatch:     w.emit,
			OwnedEmit:   opts.EncodeMatch != nil,
			StableInput: true, // cut buffers carry arena/caller-stable pointers
			Budgets:     opts.Tenants,
		})
		if err != nil {
			return nil, err
		}
		// Every hosted engine's shedder (when configured) watches this
		// worker's queue depth and its queue-wait p99; probe and estimator
		// both run on the worker goroutine, so len/cap on the channel and
		// the quantile reservoir are safe to sample from there.
		w.eval.SetProbes(
			func() (int, int) { return len(w.in), cap(w.in) },
			func() float64 { return w.qwait.Quantile(0.99) })
		e.workers = append(e.workers, w)
	}
	deliver := func(t Tagged) {
		if opts.OnMatch != nil {
			opts.OnMatch(t.M)
		}
	}
	if opts.OnTagged != nil {
		deliver = opts.OnTagged
	}
	e.col = NewCollector(opts.Shards, deliver, opts.OnProgress)
	for _, w := range e.workers {
		e.wg.Add(1)
		go w.run(e.col, &e.wg)
	}
	return e, nil
}

// admit checks one spec against this engine's partitioning and returns
// it as the workers will host it.
func (e *Engine) admit(sp multi.Spec) (multi.Spec, error) {
	if sp.Pattern == nil {
		return sp, fmt.Errorf("shard: pattern %d is nil", sp.ID)
	}
	if sp.Config.Policy != nil {
		return sp, fmt.Errorf("shard: pattern %d: Config.Policy would be shared across shards; set Config.NewPolicy so each shard adapts independently", sp.ID)
	}
	if e.keyAttr != "" {
		if err := Partitionable(sp.Pattern, e.schema, e.keyAttr); err != nil {
			return sp, fmt.Errorf("shard: pattern %d: %w", sp.ID, err)
		}
	}
	if sp.Config.Shedding.Policy != nil && sp.Config.Shedding.Key == nil {
		// Pattern-aware shedding protects per-entity state; default the
		// protected key to the partition key so each shard's shedder
		// recognizes its own live entities (nil under a custom Route).
		sp.Config.Shedding.Key = e.key
	}
	return sp, nil
}

// Process routes one event to its shard. Events must arrive in
// non-decreasing timestamp order with unique, increasing Seq numbers
// (the same contract as engine.Engine.Process).
func (e *Engine) Process(ev *event.Event) {
	if e.finished {
		panic("shard: Process after Finish")
	}
	s := e.route(ev)
	ae := e.arena.Intern(ev)
	e.bufs[s] = append(e.bufs[s], ae)
	e.stamps[s] = append(e.stamps[s], time.Now().UnixNano())
	e.track(ev)
}

// ProcessStable is the batched zero-copy ingest entry: every pointer in
// evs must stay valid (and its event immutable) for at least the
// pattern's retention window — the cluster node passes arena slots filled
// by the wire decoder, and failover replay passes journal-backed storage.
// No per-event copy is made anywhere downstream. Cut boundaries fall
// exactly where equivalent per-event Process calls would put them, so the
// merged match stream is identical.
func (e *Engine) ProcessStable(evs []*event.Event) {
	if e.finished {
		panic("shard: Process after Finish")
	}
	now := time.Now().UnixNano()
	for _, ev := range evs {
		s := e.route(ev)
		e.bufs[s] = append(e.bufs[s], ev)
		e.stamps[s] = append(e.stamps[s], now)
		e.track(ev)
	}
}

// track updates ingest progress after an event lands in its cut buffer
// and seals the cut at the batch boundary.
func (e *Engine) track(ev *event.Event) {
	e.lastSeq = ev.Seq
	if ev.TS > e.maxTS {
		e.maxTS = ev.TS
	}
	e.pending++
	if e.pending >= e.batch {
		e.cutAll(false)
	}
}

// Flush seals the current cut even when partial: every shard receives its
// accumulated events and a watermark of at least upTo (pass 0 to just use
// the newest local sequence number). An external coordinator uses it to
// drive uniform cuts across engines — the cluster node flushes at every
// network batch boundary, so a node whose partitions are momentarily idle
// still advances its completion watermark.
func (e *Engine) Flush(upTo uint64) {
	if e.finished {
		panic("shard: Flush after Finish")
	}
	if upTo > e.lastSeq {
		e.lastSeq = upTo
	}
	e.cutAll(false)
}

// cutAll seals the current cut: every shard receives its accumulated
// events (possibly none) and the watermark, so progress advances
// uniformly across shards. When block is false and the overflow mode is
// DropNewest, a full shard's handoff is discarded instead of awaited (the
// events are lost and counted; the watermark rides on the next successful
// handoff, whose upTo is necessarily newer).
func (e *Engine) cutAll(block bool) {
	for s, w := range e.workers {
		c := cut{events: e.bufs[s], stamps: e.stamps[s], upTo: e.lastSeq}
		if block || e.overflow == Backpressure {
			w.in <- c
		} else {
			select {
			case w.in <- c:
			default:
				e.queueDropped[s] += uint64(len(c.events))
			}
		}
		e.bufs[s] = nil
		e.stamps[s] = nil
		select {
		case b := <-e.free: // a worker finished with an earlier cut's buffers
			e.bufs[s], e.stamps[s] = b.events, b.stamps
		default:
		}
	}
	e.pending = 0
	// Unpin ingest-arena chunks the evaluators have certainly pruned
	// (recycling is off, so references — not this call — govern lifetime;
	// see the arena field comment). Without a window the retention horizon
	// is unknown, so fall back to bounding the arena's own pin list.
	if e.window > 0 {
		e.arena.Release(e.maxTS - 2*e.window)
	} else if e.arena.Live() > 64 {
		e.arena.Release(e.maxTS)
	}
}

// Finish flushes the final partial cut, drains every shard, and waits
// until the collector has delivered all matches. Idempotent.
func (e *Engine) Finish() {
	if e.finished {
		return
	}
	e.finished = true
	e.cutAll(true) // the final cut always delivers, even under DropNewest
	for _, w := range e.workers {
		close(w.in)
	}
	e.wg.Wait()
	e.col.Close()
}

// Shards reports the shard count.
func (e *Engine) Shards() int { return e.nshards }

// PatternIDs lists the currently registered pattern ids, sorted
// ascending. Call from the Process goroutine.
func (e *Engine) PatternIDs() []uint32 {
	out := make([]uint32, 0, len(e.patIDs))
	for id := range e.patIDs {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AddPattern registers one additional pattern on the running engine.
// The current cut is sealed first and the pattern starts evaluating at
// that cut boundary on every worker — a single deterministic stream
// position — without disturbing the other patterns' output (the newcomer
// joins the shared unary table but no prefix group). Call from the
// Process goroutine.
func (e *Engine) AddPattern(sp multi.Spec) error {
	if e.finished {
		return fmt.Errorf("shard: AddPattern after Finish")
	}
	if e.patIDs[sp.ID] {
		return fmt.Errorf("shard: duplicate pattern id %d", sp.ID)
	}
	// Prevalidate on the coordinator so the per-worker Add cannot fail
	// asynchronously: a one-spec analysis plus evaluator build runs the
	// exact checks the workers would.
	sp, err := e.admit(sp)
	if err != nil {
		return err
	}
	set, err := multi.Analyze([]multi.Spec{sp}, e.schema)
	if err != nil {
		return err
	}
	if _, err := multi.NewEvaluator(set, multi.Options{OnMatch: func(uint32, *match.Match) {}}); err != nil {
		return err
	}
	e.patIDs[sp.ID] = true
	e.dispatchOp(patternOp{add: &sp})
	return nil
}

// RemovePattern retires a pattern on the running engine: its partial
// matches are discarded at the next cut boundary and no further matches
// with its id are emitted. Call from the Process goroutine.
func (e *Engine) RemovePattern(id uint32) error {
	if e.finished {
		return fmt.Errorf("shard: RemovePattern after Finish")
	}
	if !e.patIDs[id] {
		return fmt.Errorf("shard: unknown pattern id %d", id)
	}
	delete(e.patIDs, id)
	e.dispatchOp(patternOp{id: id})
	return nil
}

// dispatchOp seals the current cut, then delivers the mutation to every
// worker in its own cut — blocking, so a pattern-set change is never
// lost to DropNewest and lands at the same watermark everywhere.
func (e *Engine) dispatchOp(op patternOp) {
	e.cutAll(true)
	for _, w := range e.workers {
		w.in <- cut{upTo: e.lastSeq, ops: []patternOp{op}}
	}
}

// QueueCap reports the effective per-shard ingestion bound in events
// (after defaulting and snapshot-driven derivation, rounded up to whole
// batches).
func (e *Engine) QueueCap() int { return e.queueCap }

// Metrics merges the per-shard engine metrics into one stream-wide view,
// including the events dropped on queue overflow and the latency
// percentile estimators sampled by the workers. Call after Finish (shard
// engines are owned by their workers until then).
func (e *Engine) Metrics() engine.Metrics {
	var m engine.Metrics
	for _, sm := range e.ShardMetrics() {
		m.Merge(sm)
	}
	return m
}

// ShardMetrics is the per-shard breakdown behind Metrics. Call after
// Finish.
func (e *Engine) ShardMetrics() []engine.Metrics {
	out := make([]engine.Metrics, len(e.workers))
	for i, w := range e.workers {
		for _, pm := range w.eval.Metrics() {
			out[i].Merge(pm.M)
		}
		out[i].QueueDropped += e.queueDropped[i]
		out[i].QueueWait = w.qwait
		out[i].DetectTime = w.detect
	}
	return out
}

// PatternMetrics merges each live pattern's engine counters across the
// shards, in ascending pattern-id order. Call after Finish.
func (e *Engine) PatternMetrics() []multi.PatternMetrics {
	agg := make(map[uint32]*multi.PatternMetrics)
	var ids []uint32
	for _, w := range e.workers {
		for _, pm := range w.eval.Metrics() {
			if a, ok := agg[pm.ID]; ok {
				a.M.Merge(pm.M)
			} else {
				cp := pm
				agg[pm.ID] = &cp
				ids = append(ids, pm.ID)
			}
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]multi.PatternMetrics, len(ids))
	for i, id := range ids {
		out[i] = *agg[id]
	}
	return out
}

// TenantStats sums per-tenant admission accounting across the shards,
// sorted by tenant id. Call after Finish.
func (e *Engine) TenantStats() []shed.TenantStat {
	agg := make(map[uint32]*shed.TenantStat)
	var ids []uint32
	for _, w := range e.workers {
		for _, ts := range w.eval.TenantStats() {
			if a, ok := agg[ts.Tenant]; ok {
				a.Admitted += ts.Admitted
				a.Shed += ts.Shed
			} else {
				cp := ts
				agg[ts.Tenant] = &cp
				ids = append(ids, ts.Tenant)
			}
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]shed.TenantStat, len(ids))
	for i, id := range ids {
		out[i] = *agg[id]
	}
	return out
}

// ShardLoad is one shard's live load sample (see Engine.ShardLoads).
type ShardLoad struct {
	// Events counts the events the shard's engine has processed.
	Events uint64
	// WaitP99 is the shard's queue-wait p99 estimate.
	WaitP99 time.Duration
}

// ShardLoads snapshots every shard's live load — events processed and
// queue-wait p99 — without stopping the engine: the samples are
// published by the workers on a stride (every loadSampleCuts cuts), so
// they lag the stream by a few cuts. Safe from any goroutine, including
// mid-run; the cluster node layer ships these to the ingress placement
// controller as wire ShardStats.
func (e *Engine) ShardLoads() []ShardLoad {
	out := make([]ShardLoad, len(e.workers))
	for i, w := range e.workers {
		out[i] = ShardLoad{
			Events:  w.liveEvents.Load(),
			WaitP99: time.Duration(w.liveWait.Load()),
		}
	}
	return out
}

// Plans reports each shard's current plans (one per hosted pattern, or
// per disjunct of an OR pattern, in registration order). Call after
// Finish. Shards may legitimately hold different plans: each adapted to
// its own partition's statistics.
func (e *Engine) Plans() [][]string {
	out := make([][]string, len(e.workers))
	for i, w := range e.workers {
		for _, p := range w.eval.Plans() {
			out[i] = append(out[i], fmt.Sprint(p))
		}
	}
	return out
}
