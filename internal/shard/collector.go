package shard

import (
	"container/heap"
	"slices"

	"acep/internal/match"
)

// Tagged is a match annotated for ordered merging: Seq is the global
// sequence number of the event whose processing emitted the match
// (math.MaxUint64 for end-of-stream flushes), Src identifies the
// producing shard — the worker index inside one Engine, or the global
// shard index at the cluster ingress — and Idx is a per-shard emission
// counter, assigned by the collector in posting order, that breaks ties
// into a deterministic total order.
type Tagged struct {
	M   *match.Match
	Seq uint64
	Src int
	Idx uint64
	// Pattern is the emitting pattern's id (multi.SoloID for an engine
	// opened with one pattern). It rides along for the wire and is not
	// part of the merge key — within one (Seq, Src) the posting worker
	// already orders matches canonically by pattern id.
	Pattern uint32
	// Enc holds the match as its worker encoded it — a wire match body —
	// wherever matches travel as bytes; M is nil then. Out of a sharded
	// engine (Options.EncodeMatch) the slice aliases the worker's outbox
	// slab and is valid only during the OnTagged call; at a cluster
	// ingress it aliases its frame's buffer, which the ingress reader
	// reads its next frame into once the frame's last match is delivered:
	// valid only during the call too, under NewSealedIngress as well.
	Enc []byte
}

// Releaser takes back what a posted run of tags lives in — a worker's
// outbox, an ingress reader's tags and frame — once the collector has
// delivered or purged the last of them (at once if it took none).
type Releaser interface{ Release() }

// ctrlOp selects a collector control message (routing mutations run on
// the collector goroutine, serialized with the data stream).
type ctrlOp uint8

const (
	ctrlNone ctrlOp = iota
	ctrlMigrate
	ctrlComplete
	ctrlAbandon
)

// post is one source→collector message: a run — the matches of one
// processed batch, and what they live in — and the posting node's new
// progress watermark, or a routing control (migrate/complete/abandon).
type post struct {
	node     int
	progress uint64
	run

	ctrl  ctrlOp
	shard int
	owner int
	reply chan uint64
}

// run is the accepted tags of one post, the next to leave first.
type run struct {
	tags []Tagged
	done Releaser
}

// stream is a chain of runs that sort in order across the chain: each
// run's first tag at or after the last tag chained before it. runs[head:]
// are the runs left, each with tags left; a drained stream is reset.
type stream struct {
	runs []run
	head int
}

func (s *stream) next() *Tagged { return &s.runs[s.head].tags[0] }

// push chains r, reclaiming the slots of runs gone before it grows.
func (s *stream) push(r run) {
	if s.head > 0 && len(s.runs) == cap(s.runs) {
		n := copy(s.runs, s.runs[s.head:])
		clear(s.runs[n:])
		s.runs, s.head = s.runs[:n], 0
	}
	s.runs = append(s.runs, r)
}

// chains reports whether a run whose first tag is t may chain onto s.
func (s *stream) chains(t Tagged) bool {
	n := len(s.runs)
	return n == 0 || !tagLess(t, s.runs[n-1].tags[len(s.runs[n-1].tags)-1])
}

// purge drops shard g's tags, releasing every run left empty.
func (s *stream) purge(g int) {
	n := 0
	for _, r := range s.runs[s.head:] {
		if r.tags = slices.DeleteFunc(r.tags, func(t Tagged) bool { return t.Src == g }); len(r.tags) > 0 {
			s.runs[n], n = r, n+1
		} else {
			r.done.Release()
		}
	}
	clear(s.runs[n:])
	s.runs, s.head = s.runs[:n], 0
}

// streams is the merge's heap: the streams with tags left, least next tag
// first.
type streams []*stream

func (h streams) Len() int           { return len(h) }
func (h streams) Less(i, j int) bool { return tagLess(*h[i].next(), *h[j].next()) }
func (h streams) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *streams) Push(x any)        { *h = append(*h, x.(*stream)) }
func (h *streams) Pop() any {
	s := (*h)[len(*h)-1]
	(*h)[len(*h)-1] = nil
	*h = (*h)[:len(*h)-1]
	return s
}

// Collector merges per-shard tagged match streams into one ordered
// output. It releases a match only when every shard's progress watermark
// has passed its tag (Seq, Src, Idx) — at that point no shard can still
// produce an earlier match, so the released order is the sorted tag
// order, independent of goroutine scheduling.
//
// A post is a run, kept where it was posted and sorted there if it came
// out of order (the replays of several shards migrated onto one node). A
// node's runs chain into one stream while each sorts at or after the
// stream's last tag; one that sorts earlier — a migrated shard's replay —
// opens a stream of its own. The merge pops from a heap over the streams'
// next tags, a handful however many matches wait behind a lagging
// watermark, and a run goes back to its Releaser after its last tag.
//
// Shards are the merge sources, but posts arrive per *node*: an owner
// table maps each shard to the node feeding it, a node's watermark
// advances the marks of the shards it owns, and a match is accepted only
// if its shard is owned by the posting node — so a shard's stream can
// move between nodes mid-run (Migrate) with stale in-flight posts from
// the previous owner dropped race-free. In the single-process engine the
// mapping is the identity (worker i posts as node i and owns shard i).
//
// Sources must post a match before or together with the first watermark
// that covers its tag, and watermarks must be non-decreasing per node
// (the marks only ratchet forward); the final post of every node must
// carry watermark math.MaxUint64.
type Collector struct {
	ch       chan post
	done     chan struct{}
	deliver  func(Tagged)
	progress func(uint64)

	owner   []int // shard → posting node (-1: abandoned)
	frozen  []bool
	marks   []uint64
	nextIdx []uint64
	min     uint64

	heap streams
	tail []*stream // by node: the stream its next run may chain onto
}

// NewCollector starts a collector goroutine over shards sources with the
// identity owner mapping (shard i is fed by node/worker i) — the
// single-process engine's shape. deliver receives every match, in merged
// tag order, on the collector goroutine. progress (optional) is called,
// after the matches it covers have been delivered, every time the
// minimum watermark over all shards advances — the cluster node layer
// forwards it downstream so the ingress knows the node's output up to
// that point is complete.
func NewCollector(shards int, deliver func(Tagged), progress func(uint64)) *Collector {
	owner := make([]int, shards)
	for g := range owner {
		owner[g] = g
	}
	return NewCollectorOwned(owner, deliver, progress)
}

// NewCollectorOwned starts a collector whose shard → node owner table is
// given explicitly (the cluster ingress shape: many shards per node).
// The slice is copied.
func NewCollectorOwned(owner []int, deliver func(Tagged), progress func(uint64)) *Collector {
	n := len(owner)
	c := &Collector{
		ch:       make(chan post, n*2),
		done:     make(chan struct{}),
		deliver:  deliver,
		progress: progress,
		owner:    append([]int(nil), owner...),
		frozen:   make([]bool, n),
		marks:    make([]uint64, n),
		nextIdx:  make([]uint64, n),
	}
	go c.run()
	return c
}

// Post is PostRun for a source that keeps nothing of matches.
func (c *Collector) Post(node int, watermark uint64, matches []Tagged) {
	c.PostRun(node, watermark, matches, keepNothing{})
}

type keepNothing struct{}

func (keepNothing) Release() {}

// PostRun hands the collector one node's new watermark plus the matches
// emitted since its last post, each tagged with its global shard in Src.
// The collector keeps the tags in matches — it numbers them (Idx), drops
// stale ones and sorts the rest in place — and calls done.Release once it
// has delivered or purged the last of them; the caller must not touch the
// slice before. Safe to call from any goroutine; blocks while the
// collector's inbox is full.
func (c *Collector) PostRun(node int, watermark uint64, matches []Tagged, done Releaser) {
	c.ch <- post{node: node, progress: watermark, run: run{matches, done}}
}

// Close ends the input and waits until every buffered match has been
// delivered. Call after all nodes have posted their final watermark.
func (c *Collector) Close() {
	close(c.ch)
	<-c.done
}

// Migrate freezes shard and hands it to newOwner: the shard's
// undelivered buffered matches are purged (the destination regenerates
// them by replay), its watermark rewinds to the release frontier, and
// until Complete unfreezes it no node's watermark advances it — so
// delivery (not ingest) pauses at the frontier while the handoff is in
// flight. It returns the release boundary — the watermark at or below
// which every match has already been delivered — which the destination
// must use to suppress regenerated duplicates. Stale posts from the
// previous owner are dropped by the owner check; the destination's
// posts (match-bearing, accepted while frozen) buffer until Complete.
func (c *Collector) Migrate(shard, newOwner int) uint64 {
	reply := make(chan uint64, 1)
	c.ch <- post{ctrl: ctrlMigrate, shard: shard, owner: newOwner, reply: reply}
	return <-reply
}

// Complete unfreezes shard after node — which must be its current owner
// — acknowledged the migration's replay horizon at completion watermark
// upTo: the shard's mark jumps to upTo and delivery resumes.
func (c *Collector) Complete(node, shard int, upTo uint64) {
	c.ch <- post{ctrl: ctrlComplete, node: node, shard: shard, progress: upTo}
}

// Abandon gives up every shard node owns with no successor: their
// buffered matches stay (they were legitimately produced), their marks
// jump to the terminal watermark so they never gate delivery again.
func (c *Collector) Abandon(node int) {
	c.ch <- post{ctrl: ctrlAbandon, node: node}
}

func (c *Collector) run() {
	defer close(c.done)
	for p := range c.ch {
		switch p.ctrl {
		case ctrlMigrate:
			c.migrate(p)
		case ctrlComplete:
			g := p.shard
			if g >= 0 && g < len(c.owner) && c.owner[g] == p.node && c.frozen[g] {
				c.frozen[g] = false
				if p.progress > c.marks[g] {
					c.marks[g] = p.progress
				}
				c.release()
			}
		case ctrlAbandon:
			for g, o := range c.owner {
				if o == p.node {
					c.owner[g] = -1
					c.frozen[g] = false
					c.marks[g] = ^uint64(0)
				}
			}
			c.release()
		default:
			for g, o := range c.owner {
				if o == p.node && !c.frozen[g] && c.marks[g] < p.progress {
					c.marks[g] = p.progress
				}
			}
			c.take(p)
			c.release()
		}
	}
	// Channel closed: every node has posted its final watermark; drain
	// the remainder in order (non-empty only if a source misbehaved).
	for len(c.heap) > 0 {
		c.emit()
	}
}

// take accepts a post's run: the tags of the shards the posting node
// owns, each numbered in its shard's posting order, compacted in place —
// and sorted, if they came out of order (a node frames the replays of
// shards migrated onto it shard after shard).
func (c *Collector) take(p post) {
	tags, sorted := p.tags[:0], true
	for _, t := range p.tags {
		if t.Src < 0 || t.Src >= len(c.owner) || c.owner[t.Src] != p.node {
			continue // stale: an in-flight post from a previous owner
		}
		t.Idx = c.nextIdx[t.Src]
		c.nextIdx[t.Src]++
		if n := len(tags); n > 0 && tagLess(t, tags[n-1]) {
			sorted = false
		}
		tags = append(tags, t)
	}
	if len(tags) == 0 {
		p.done.Release()
		return
	}
	if !sorted {
		slices.SortFunc(tags, tagCmp)
	}
	for len(c.tail) <= p.node {
		c.tail = append(c.tail, &stream{})
	}
	s := c.tail[p.node]
	if !s.chains(tags[0]) {
		s = &stream{} // a replay: the node's next runs chain onto it
		c.tail[p.node] = s
	}
	if s.push(run{tags, p.done}); len(s.runs) == 1 {
		heap.Push(&c.heap, s) // it was drained
	}
}

// migrate is the collector-goroutine half of Migrate.
func (c *Collector) migrate(p post) {
	g := p.shard
	if g < 0 || g >= len(c.owner) {
		p.reply <- c.min
		return
	}
	kept := c.heap[:0]
	for _, s := range c.heap {
		if s.purge(g); len(s.runs) > 0 {
			kept = append(kept, s)
		}
	}
	clear(c.heap[len(kept):])
	c.heap = kept
	heap.Init(&c.heap)
	c.owner[g] = p.owner
	c.frozen[g] = true
	c.marks[g] = c.min
	p.reply <- c.min
}

// release delivers every buffered match the current frontier covers and
// reports frontier advances.
func (c *Collector) release() {
	if len(c.marks) == 0 {
		return
	}
	min := slices.Min(c.marks)
	for len(c.heap) > 0 && c.heap[0].next().Seq <= min {
		c.emit()
	}
	if min > c.min {
		c.min = min
		if c.progress != nil {
			c.progress(min)
		}
	}
}

// emit delivers the least buffered match and, when it was its run's last,
// releases the run.
func (c *Collector) emit() {
	s := c.heap[0]
	r := &s.runs[s.head]
	t := r.tags[0]
	r.tags = r.tags[1:]
	if c.deliver != nil {
		c.deliver(t)
	}
	if len(r.tags) == 0 {
		r.done.Release()
		if s.runs[s.head] = (run{}); s.head+1 == len(s.runs) {
			heap.Pop(&c.heap)
			s.runs, s.head = s.runs[:0], 0
			return
		}
		s.head++
	}
	heap.Fix(&c.heap, 0)
}

func tagLess(a, b Tagged) bool {
	if a.Seq != b.Seq {
		return a.Seq < b.Seq
	}
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	return a.Idx < b.Idx
}

// tagCmp is tagLess in the form slices.SortFunc takes.
func tagCmp(a, b Tagged) int {
	if tagLess(a, b) {
		return -1
	}
	if tagLess(b, a) {
		return 1
	}
	return 0
}
