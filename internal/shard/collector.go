package shard

import "acep/internal/match"

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
	// ingress it aliases the buffer of the frame it arrived in, which
	// nothing overwrites, and is valid for as long as the tag is kept.
	Enc []byte
}

// ctrlOp selects a collector control message (routing mutations run on
// the collector goroutine, serialized with the data stream).
type ctrlOp uint8

const (
	ctrlNone ctrlOp = iota
	ctrlMigrate
	ctrlComplete
	ctrlAbandon
)

// post is one source→collector message: the matches of one processed
// batch and the posting node's new progress watermark, or a routing
// control (migrate / complete / abandon).
type post struct {
	node     int
	progress uint64
	matches  []Tagged
	// box, on a worker's post, is the outbox matches is the tag slice of:
	// the collector's to hand back (see postBox).
	box *outbox
	// free, on a recycling post, takes matches back emptied (see
	// PostRecycled).
	free chan<- []Tagged

	ctrl  ctrlOp
	shard int
	owner int
	reply chan uint64
}

// Collector merges per-shard tagged match streams into one ordered
// output. It buffers matches in a min-heap keyed (Seq, Src, Idx) and
// releases a match only when every shard's progress watermark has passed
// its tag — at that point no shard can still produce an earlier match,
// so the released order is the sorted tag order, independent of
// goroutine scheduling.
//
// Shards are the merge sources, but posts arrive per *node*: an owner
// table maps each shard to the node currently feeding it, a node's
// watermark advances exactly the marks of the shards it owns, and a
// match is accepted only if its shard is owned by the posting node —
// so a shard's stream can move between nodes mid-run (Migrate) with
// stale in-flight posts from the previous owner dropped race-free.
// In the single-process engine the mapping is the identity (worker i
// posts as node i and owns shard i) and none of this machinery moves.
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
	heap    []Tagged
	min     uint64

	// boxes, per shard, is the worker outboxes with tags still in the heap,
	// oldest first, each with how many (see postBox).
	boxes [][]heldBox
}

// heldBox is an outbox the collector holds: left of its tags are still in
// the heap.
type heldBox struct {
	box  *outbox
	left int
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
		boxes:    make([][]heldBox, n),
	}
	go c.run()
	return c
}

// Post hands the collector one node's new watermark plus the matches
// emitted since its last post (each tagged with its global shard in
// Src). Safe to call from any goroutine; blocks while the collector's
// inbox is full.
func (c *Collector) Post(node int, watermark uint64, matches []Tagged) {
	c.ch <- post{node: node, progress: watermark, matches: matches}
}

// PostRecycled is Post for a source that reuses its tag slices: once the
// collector has copied matches into its heap it clears the slice and
// offers it back on free, dropping it when free is full. The caller must
// not touch matches after the call.
func (c *Collector) PostRecycled(node int, watermark uint64, matches []Tagged, free chan<- []Tagged) {
	c.ch <- post{node: node, progress: watermark, matches: matches, free: free}
}

// postBox is Post for a sharded engine's own workers: worker w posts as
// node w, its tags all have Src w, and the outbox they came in (nil: the
// cut emitted nothing) goes back to it when the last of them has left the
// heap — delivered or purged; at once if none was taken. That needs no
// bookkeeping per tag, because a worker's posts leave in the order they
// came: each covers the sequence numbers past the watermark of the one
// before, and delivery is in sequence order.
func (c *Collector) postBox(node int, watermark uint64, box *outbox) {
	p := post{node: node, progress: watermark, box: box}
	if box != nil {
		p.matches = box.tags
	}
	c.ch <- p
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
			continue
		case ctrlComplete:
			g := p.shard
			if g >= 0 && g < len(c.owner) && c.owner[g] == p.node && c.frozen[g] {
				c.frozen[g] = false
				if p.progress > c.marks[g] {
					c.marks[g] = p.progress
				}
				c.release()
			}
			continue
		case ctrlAbandon:
			for g, o := range c.owner {
				if o == p.node {
					c.owner[g] = -1
					c.frozen[g] = false
					c.marks[g] = ^uint64(0)
				}
			}
			c.release()
			continue
		}
		for g, o := range c.owner {
			if o == p.node && !c.frozen[g] && c.marks[g] < p.progress {
				c.marks[g] = p.progress
			}
		}
		taken := 0
		for _, t := range p.matches {
			if t.Src < 0 || t.Src >= len(c.owner) || c.owner[t.Src] != p.node {
				continue // stale: an in-flight post from a previous owner
			}
			t.Idx = c.nextIdx[t.Src]
			c.nextIdx[t.Src]++
			c.push(t)
			taken++
		}
		switch {
		case p.box == nil:
		case taken == 0:
			p.box.release()
		default:
			c.boxes[p.node] = append(c.boxes[p.node], heldBox{p.box, taken})
		}
		if p.free != nil && cap(p.matches) > 0 {
			clear(p.matches) // a parked slice must not pin the frames its tags alias
			select {
			case p.free <- p.matches[:0]:
			default:
			}
		}
		c.release()
	}
	// Channel closed: every node has posted its final watermark; drain
	// the remainder in order (non-empty only if a source misbehaved).
	for len(c.heap) > 0 {
		c.emit(c.pop())
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
	for _, t := range c.heap {
		if t.Src != g {
			kept = append(kept, t)
		}
	}
	for i := len(kept); i < len(c.heap); i++ {
		c.heap[i] = Tagged{}
	}
	c.heap = kept
	for i := len(c.heap)/2 - 1; i >= 0; i-- {
		c.siftDown(i)
	}
	for _, h := range c.boxes[g] {
		h.box.release() // every tag it still had here was the shard's
	}
	c.boxes[g] = c.boxes[g][:0]
	c.owner[g] = p.owner
	c.frozen[g] = true
	c.marks[g] = c.min
	p.reply <- c.min
}

// release pops every buffered match the current frontier covers and
// reports frontier advances.
func (c *Collector) release() {
	if len(c.marks) == 0 {
		return
	}
	min := c.marks[0]
	for _, pr := range c.marks[1:] {
		if pr < min {
			min = pr
		}
	}
	for len(c.heap) > 0 && c.heap[0].Seq <= min {
		c.emit(c.pop())
	}
	if min > c.min {
		c.min = min
		if c.progress != nil {
			c.progress(min)
		}
	}
}

func (c *Collector) emit(t Tagged) {
	if c.deliver != nil {
		c.deliver(t)
	}
	if q := c.boxes[t.Src]; len(q) > 0 {
		// The shard's oldest outbox is the one t came in (see postBox).
		if q[0].left--; q[0].left == 0 {
			q[0].box.release()
			c.boxes[t.Src] = q[:copy(q, q[1:])]
		}
	}
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

func (c *Collector) push(t Tagged) {
	c.heap = append(c.heap, t)
	i := len(c.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !tagLess(c.heap[i], c.heap[p]) {
			break
		}
		c.heap[i], c.heap[p] = c.heap[p], c.heap[i]
		i = p
	}
}

func (c *Collector) pop() Tagged {
	h := c.heap
	top := h[0]
	h[0] = h[len(h)-1]
	h[len(h)-1] = Tagged{}
	c.heap = h[:len(h)-1]
	c.siftDown(0)
	return top
}

func (c *Collector) siftDown(i int) {
	h := c.heap
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(h) && tagLess(h[l], h[m]) {
			m = l
		}
		if r < len(h) && tagLess(h[r], h[m]) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
