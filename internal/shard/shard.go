// Package shard is the parallel execution layer: it partitions one input
// stream by a named key attribute, hosts the session's pattern set on every
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
// see internal/shed), whose load monitor watches this queue's wait.
//
// The cut is the unit of ingestion: events accumulate in one block per
// shard, and sealing a cut hands every shard its block (or none), the
// global sequence number the cut covers and the one clock reading taken
// at the seal — so what a handoff costs is paid per cut, not per event,
// and every shard's progress watermark advances uniformly even when its
// partition is momentarily idle. Process places an event by key — one of a
// type no hosted pattern reads it only counts — and seals every
// Options.Batch events; ProcessStable takes a run the caller
// already partitioned and leaves sealing to Flush. Matches are
// tagged with the sequence number of the event whose processing emitted
// them, buffered in a Collector, and released strictly in tag order once
// every shard's watermark has passed the tag: OnMatch therefore observes
// matches in nondecreasing detection order (and, the stream being
// timestamp-ordered, nondecreasing detection timestamp), in an order that
// is a deterministic function of the input for a fixed shard count.
//
// # Who owns an event's storage
//
// A block (match.Block: a run's events and exactly the attribute values
// they carry, flat) has one owner at a time: the engine's pool, then
// whoever fills it (Process copying the caller's event in, or a decoder
// writing into a block it drew with Pool), then the shard's queue, then
// the one worker the cut goes to, then the pool again. The worker's
// evaluators point straight into it — bucket histories, partial matches,
// resolver residuals and parked matches, prefix-runner seeds; nothing is
// copied a second time — and the worker returns it once its own hosted
// engines can no longer reach any event in it: when the block's newest
// timestamp lies before multi.Evaluator.Floor, the least prune floor over
// the engines the worker hosts. The clock is the worker's, never the
// feeder's, so a feeder running ahead, a shard that sits idle, and old
// timestamps replayed into a live session are all safe by construction:
// a block waits for the worker that holds it. Nothing leaves a worker
// pointing into a block — a match is serialised (Options.EncodeMatch) or
// kept (match.Keeper: the matches kept in one slab share a read-only copy
// of each event) as it is tagged, so a delivered match stays valid.
//
// What a cut's matches leave the worker in — the tag slice and, under
// EncodeMatch, the slab the encoded bodies sit in (an outbox) — has one
// owner at a time too: the worker while it fills it, the collector from
// the post until the last of its tags has been delivered or purged, then
// the worker again, which refills it. An encoded body is therefore good
// during its OnTagged call and not after; the cluster node copies it into
// the frame it sends.
//
// The cluster layer (internal/cluster) stacks on this package: a worker
// node hosts one Engine spanning the global shard space, hands over each
// shard's run as the ingress split it (ProcessStable), seals at every
// network cut (Flush), receives tagged matches and completion watermarks
// through Options.OnTagged and Options.OnProgress, and the ingress
// coordinator merges whole node streams through another Collector.
package shard

import (
	"fmt"
	"maps"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
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

// OverflowFromString parses an overflow mode by its command-line name:
// block (Backpressure) or drop (DropNewest).
func OverflowFromString(s string) (Overflow, error) {
	switch s {
	case "block":
		return Backpressure, nil
	case "drop":
		return DropNewest, nil
	}
	return 0, fmt.Errorf("shard: unknown overflow mode %q (want block or drop)", s)
}

// Options assembles a sharded engine.
type Options struct {
	// Shards is the number of partitions (and worker goroutines).
	// Defaults to runtime.GOMAXPROCS(0).
	Shards int
	// Batch is the number of events Process ingests per cut (default
	// 256). Larger batches amortize synchronization; smaller ones reduce
	// match emission latency. ProcessStable is never cut by it: there it
	// only converts QueueCap into handoffs.
	Batch int
	// QueueCap bounds the per-shard ingestion queue in events: the
	// channel holds QueueCap/Batch handoffs, rounded up (default
	// defaultQueueBatches); ingestion blocks (Backpressure) or drops
	// (DropNewest) when a shard falls this far behind.
	QueueCap int
	// Overflow selects the full-queue behavior (default Backpressure).
	Overflow Overflow
	// KeyAttr names the partition key attribute (required): the key is
	// the attribute's value, resolved per type through Schema, and every
	// pattern is validated to be partitionable by it.
	KeyAttr string
	// Schema resolves KeyAttr (required).
	Schema *event.Schema
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
	// emitting pattern's id. Every pattern of the set must be
	// partitionable by KeyAttr. Mutate the running set with
	// AddPattern/RemovePattern.
	Patterns []multi.Spec
	// Tenants installs per-tenant token-bucket budgets. Each worker gates
	// its own partition independently with a full copy of the budget, so
	// a budget intended as a global rate should be divided by the shard
	// count before it lands here.
	Tenants map[uint32]shed.TenantBudget
	// EncodeMatch, settable only with OnTagged, makes a match leave its
	// worker as bytes instead of kept: each match is encoded into the
	// cut's outbox slab on the worker goroutine (dst is the slab to
	// append to; return the extended slice), and the resulting Tagged
	// carries the encoded bytes in Enc with M nil. The callback must read m
	// synchronously and retain nothing — the cluster node layer passes
	// wire.AppendMatchBody, so matches travel from the resolver's scratch
	// to the wire without ever materializing a collector-side copy. Enc is
	// valid only during the OnTagged call: the slab goes back to its worker
	// once the cut's last match has been delivered.
	EncodeMatch func(dst []byte, m *match.Match) []byte
}

// cut is one handoff: the block holding the shard's events accumulated
// since the last cut (nil when there are none), the wall-clock time the
// cut was sealed (unix nanos, read once for all shards) and the global
// sequence watermark the cut covers. The block is the worker's from here:
// its engines point into it without re-interning, and the worker returns
// it to the pool once their floor has passed it (see worker.run).
type cut struct {
	blk    *match.Block
	sealed int64
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
// time estimator (queue wait costs one clock read per cut and is charged
// to every event of it; detection time costs two per event, so it is
// sampled).
const detectSampleEvery = 16

// worker runs one shard's evaluator on its own goroutine.
type worker struct {
	id   int
	eval *multi.Evaluator
	in   chan cut

	// held is the consumed blocks the hosted engines may still point into,
	// each on its way back to the engine's pool.
	held match.Arena

	// Emission state, owned by the worker goroutine (emit, the
	// evaluator's OnMatch, runs there). scratch collects the matches
	// emitted while processing one event, as pooled copies of the
	// resolver's scratch match; flushEmits moves them into the cut's
	// outbox in canonical order (per-shard emission indices are assigned
	// by the collector in posting order), each encoded into the outbox's
	// slab (Options.EncodeMatch) or kept, so none leaves the worker
	// pointing into a block.
	curSeq  uint64
	scratch []scratchMatch
	out     *outbox       // the open cut's; nil until its first match
	keep    *match.Keeper // what a match leaves in, unless encode

	encode func(dst []byte, m *match.Match) []byte
	mfree  []*match.Match // pooled scratch copies

	// Outboxes back from the collector (see outbox), waiting to be refilled:
	// the collector goroutine puts, the worker takes. made counts the ones
	// this worker ever made; wide is the widest cut it posted, in tags and
	// encoded bytes (worker goroutine).
	boxMu   sync.Mutex
	boxFree []*outbox
	made    int
	wide    struct{ tags, enc int }

	// Latency estimators, owned by the worker goroutine; read by
	// Metrics/ShardMetrics after Finish.
	qwait   stats.Quantile
	detect  stats.Quantile
	nevents uint64
}

// scratchMatch is one match emitted while processing the current event,
// tagged with its pattern id.
type scratchMatch struct {
	pat uint32
	m   *match.Match
}

// emit is the evaluator's OnMatch: it parks the match until the current
// event is fully processed (see flushEmits). The evaluators run under
// owned emit, so the scratch match dies when this callback returns and is
// cloned into a pooled copy first.
func (w *worker) emit(id uint32, m *match.Match) {
	w.scratch = append(w.scratch, scratchMatch{pat: id, m: w.copyScratch(m)})
}

// post reports the cut's completion to the collector and hands it the
// cut's outbox, if the cut emitted.
func (w *worker) post(col *Collector, upTo uint64) {
	if w.out == nil {
		col.Post(w.id, upTo, nil)
		return
	}
	w.wide.tags, w.wide.enc = max(w.wide.tags, len(w.out.tags)), max(w.wide.enc, len(w.out.enc))
	col.PostRun(w.id, upTo, w.out.tags, w.out)
	w.out = nil
}

// copyScratch clones the resolver's scratch match into a pooled worker
// match: the slice headers are the worker's own (reused across matches),
// the event pointers still point into the worker's blocks. Needed because
// the owned-emit contract invalidates the emitted match when the OnMatch
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

// putMatch recycles a pooled scratch copy, dropping its event references.
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
	if w.out == nil {
		w.out = w.box() // the cut's first match
	}
	out := w.out
	for _, s := range w.scratch {
		t := Tagged{Seq: w.curSeq, Src: w.id, Pattern: s.pat}
		if w.encode != nil {
			start := len(out.enc)
			out.enc = w.encode(out.enc, s.m)
			t.Enc = out.enc[start:len(out.enc):len(out.enc)]
		} else {
			t.M = w.keep.Keep(s.m)
		}
		w.putMatch(s.m)
		out.tags = append(out.tags, t)
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
		if c.blk != nil {
			wait := float64(time.Now().UnixNano() - c.sealed)
			for i, n := 0, c.blk.Len(); i < n; i++ {
				ev := c.blk.At(i)
				w.qwait.Add(wait)
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
			w.held.Hold(c.blk)
		}
		w.post(col, c.upTo)
		if c.blk != nil || len(c.ops) > 0 {
			// No engine this worker hosts can reach behind the evaluator's
			// floor any more, and matches left as copies or bytes.
			w.held.Release(w.eval.Floor())
		}
	}
	// End of stream: flush parked matches. They are tagged past every
	// real sequence number and ordered by (shard, emission index).
	w.curSeq = math.MaxUint64
	w.eval.Finish()
	w.flushEmits()
	w.post(col, math.MaxUint64)
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
	nshards  int
	batch    int
	overflow Overflow

	workers []*worker
	open    []*match.Block // the open cut: per shard, nil or a block holding events
	pool    *match.Pool    // where blocks wait between a worker's release and the next fill
	pending int            // events Process took since the last cut, elided ones included
	lastSeq uint64
	elided  uint64 // events Process offered no shard: no hosted pattern reads their type

	queueDropped []uint64 // per shard, owned by the Process goroutine
	queueCap     int      // effective per-shard queue bound, in events

	// Pattern registry, owned by the Process goroutine like all
	// coordinator state: the hosted set by id and the types it reads,
	// which Process routes by. schema and key re-validate runtime additions.
	specs   map[uint32]multi.Spec
	reads   multi.Reads
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
// identically — each shard's engine calls cfg.NewPolicy for a policy of
// its own; cfg.OnMatch must be nil (matches are merged through
// opts.OnMatch).
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
	queue := defaultQueueBatches
	if opts.QueueCap > 0 {
		queue = (opts.QueueCap + opts.Batch - 1) / opts.Batch
	}
	// admit verifies each pattern partitionable (it also vets runtime
	// additions), so the set is not passed here.
	key, err := KeyFor(opts.KeyAttr, opts.Schema, nil)
	if err != nil {
		return nil, err
	}

	e := &Engine{
		nshards:      opts.Shards,
		batch:        opts.Batch,
		overflow:     opts.Overflow,
		open:         make([]*match.Block, opts.Shards),
		queueDropped: make([]uint64, opts.Shards),
		queueCap:     queue * opts.Batch,
		// The blocks of a moment's returns wait for the next fills; a
		// surplus — a worker returning a whole retention's worth after an
		// idle stretch — is dropped to the garbage collector rather than
		// hoarded (see match.NewPool). The slack covers an engine that
		// retains nothing: one block per queue slot plus the one being
		// filled can then all be waiting at once.
		pool:    match.NewPool(opts.Shards * (queue + 1)),
		specs:   make(map[uint32]multi.Spec, len(specs)),
		schema:  opts.Schema,
		key:     key,
		keyAttr: opts.KeyAttr,
	}
	for i := range specs {
		if specs[i], err = e.admit(specs[i]); err != nil {
			return nil, err
		}
		e.specs[specs[i].ID] = specs[i]
	}
	e.reads = multi.ReadsOf(specs)
	set, err := multi.Analyze(specs, opts.Schema)
	if err != nil {
		return nil, err
	}
	for s := 0; s < e.nshards; s++ {
		w := &worker{id: s, in: make(chan cut, queue), encode: opts.EncodeMatch}
		if w.encode == nil {
			w.keep = &match.Keeper{}
		}
		w.held.SetPool(e.pool)
		w.eval, err = multi.NewEvaluator(set, multi.Options{
			OnMatch:     w.emit,
			OwnedEmit:   true, // a match leaves the worker as bytes or as a copy
			StableInput: true, // events stay in the cut's block until release
			Budgets:     opts.Tenants,
		})
		if err != nil {
			return nil, err
		}
		// Every hosted engine's shedder (when configured) watches this
		// worker's queue-wait p99; probe and estimator both run on the
		// worker goroutine, so the quantile reservoir is safe to sample
		// from there.
		w.eval.SetLatencyProbe(func() float64 { return w.qwait.Quantile(0.99) })
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
	if err := Partitionable(sp.Pattern, e.schema, e.keyAttr); err != nil {
		return sp, fmt.Errorf("shard: pattern %d: %w", sp.ID, err)
	}
	if sp.Config.Shedding.Policy != nil && sp.Config.Shedding.Key == nil {
		// Pattern-aware shedding protects per-entity state; default the
		// protected key to the partition key so each shard's shedder
		// recognizes its own live entities.
		sp.Config.Shedding.Key = e.key
	}
	return sp, nil
}

// Process is the per-event adapter over the open cut: it places the
// event on shard mix64(key) % Shards, copies it — the one copy — into
// that shard's open block and seals the cut every Options.Batch events;
// the caller's event is not retained. An event of a type no hosted
// pattern reads is offered to no shard — no key, no copy — but counts
// toward Batch and the cut's watermark like any other, so cuts fall where
// they would if it were placed (see DESIGN.md "Batched ingestion").
// Events must arrive in non-decreasing timestamp order with unique,
// increasing Seq numbers (the same contract as engine.Engine.Process) —
// which is what lets the seal use the last ingested Seq as the cut's
// watermark.
func (e *Engine) Process(ev *event.Event) {
	if e.finished {
		panic("shard: Process after Finish")
	}
	if e.reads.Has(ev.Type) {
		s := GlobalIndex(e.key(ev), e.nshards)
		if e.open[s] == nil {
			e.open[s] = e.pool.Get()
		}
		e.open[s].Intern(ev)
	} else {
		e.elided++
	}
	e.lastSeq = ev.Seq
	e.pending++
	if e.pending >= e.batch {
		e.cutAll(false)
	}
}

// Pool is where this engine's blocks wait between uses: a caller that
// fills blocks itself — the cluster node's run decoder — draws them here
// and hands them in through ProcessStable; the workers return them.
func (e *Engine) Pool() *match.Pool { return e.pool }

// ProcessStable is the by-shard zero-copy ingest entry: run holds shard
// g's events of the open cut in Seq order, in a block drawn from Pool.
// The caller placed them and the engine reads no key: all events of one
// partition key must go to one shard (GlobalIndex is Process's
// placement; a cluster node passes the shard its Batch frame names). The
// engine owns the block from here: the cluster node passes the block the
// wire decoder filled, the shard's worker points its engines into it and
// returns it to the pool, and nothing in between copies. (A second run
// for a shard within one cut is the exception: it is copied behind the
// first.) It never seals: the caller's Flush does, with a watermark
// covering every run of the cut, so runs may arrive in any shard order.
func (e *Engine) ProcessStable(g int, run *match.Block) {
	if e.finished {
		panic("shard: ProcessStable after Finish")
	}
	if g < 0 || g >= e.nshards {
		panic(fmt.Sprintf("shard: ProcessStable for shard %d of %d", g, e.nshards))
	}
	if run == nil {
		return
	}
	if n := run.Len(); n > 0 {
		e.lastSeq = max(e.lastSeq, run.At(n-1).Seq)
		if e.open[g] == nil {
			e.open[g] = run
			return
		}
		for i := 0; i < n; i++ {
			e.open[g].Intern(run.At(i))
		}
	}
	e.pool.Put(run)
}

// Flush seals the current cut even when partial: every shard receives its
// accumulated events and a watermark of at least upTo (pass 0 to just use
// the newest local sequence number). An external coordinator uses it to
// drive uniform cuts across engines — the cluster node flushes at every
// network cut, so a node whose partitions are momentarily idle still
// advances its completion watermark.
func (e *Engine) Flush(upTo uint64) {
	if e.finished {
		panic("shard: Flush after Finish")
	}
	if upTo > e.lastSeq {
		e.lastSeq = upTo
	}
	e.cutAll(false)
}

// cutAll seals the current cut: every shard receives its block of
// accumulated events (or none), the watermark and the seal time — the
// ingest side's one clock read — so progress advances uniformly across
// shards. When block is false and the overflow mode is DropNewest, a full
// shard's handoff is discarded instead of awaited (the events are lost
// and counted, their block goes straight back to the pool; the watermark
// rides on the next successful handoff, whose upTo is necessarily newer).
func (e *Engine) cutAll(block bool) {
	sealed := time.Now().UnixNano()
	for s, w := range e.workers {
		c := cut{blk: e.open[s], sealed: sealed, upTo: e.lastSeq}
		e.open[s] = nil
		if block || e.overflow == Backpressure {
			w.in <- c
			continue
		}
		select {
		case w.in <- c:
		default:
			if c.blk != nil {
				e.queueDropped[s] += uint64(c.blk.Len())
				e.pool.Put(c.blk)
			}
		}
	}
	e.pending = 0
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
	if _, dup := e.specs[sp.ID]; dup {
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
	e.specs[sp.ID] = sp
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
	if _, ok := e.specs[id]; !ok {
		return fmt.Errorf("shard: unknown pattern id %d", id)
	}
	delete(e.specs, id)
	e.dispatchOp(patternOp{id: id})
	return nil
}

// dispatchOp seals the current cut, then delivers the mutation to every
// worker in its own cut — blocking, so a pattern-set change is never
// lost to DropNewest and lands at the same watermark everywhere — and
// routes the events after it by the changed set's types.
func (e *Engine) dispatchOp(op patternOp) {
	e.cutAll(true)
	for _, w := range e.workers {
		w.in <- cut{upTo: e.lastSeq, ops: []patternOp{op}}
	}
	e.reads = multi.ReadsOf(slices.Collect(maps.Values(e.specs)))
}

// QueueCap reports the effective per-shard ingestion bound in events
// (after defaulting, rounded up to whole batches).
func (e *Engine) QueueCap() int { return e.queueCap }

// Metrics merges the per-shard engine metrics into one stream-wide view,
// including the events dropped on queue overflow and the latency
// percentile estimators sampled by the workers. EventsArrived also counts,
// once, every event Process offered no shard. Call after Finish (shard
// engines are owned by their workers until then).
func (e *Engine) Metrics() engine.Metrics {
	m := engine.Metrics{EventsArrived: e.elided}
	for _, sm := range e.ShardMetrics() {
		m.Merge(sm)
	}
	return m
}

// ShardMetrics is the per-shard breakdown behind Metrics: each shard's
// counters cover the events offered to it, and it counts each of them
// arriving once, not once per hosted pattern. Call after Finish.
func (e *Engine) ShardMetrics() []engine.Metrics {
	out := make([]engine.Metrics, len(e.workers))
	for i, w := range e.workers {
		for _, pm := range w.eval.Metrics() {
			out[i].Merge(pm.M)
		}
		out[i].EventsArrived = w.eval.Arrived() // not the patterns' sum
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
