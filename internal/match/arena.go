package match

import (
	"sync"

	"acep/internal/event"
)

// Block is flat, reusable storage for a run of events: the events
// themselves in one array and exactly the attribute values they carry in
// another, which the events' Attrs slices point into. A block has one
// owner at a time and is filled by appending (Intern, Alloc); whoever
// holds a pointer into it may keep the pointer until the owner hands the
// block back to its Pool, which overwrites it.
//
// Appending relocates the events when their array fills, so an event
// pointer taken while the block is still being filled is good only if
// the room was reserved first (Reserve; Arena.Intern reserves a block's
// events as it opens one). A growing attribute array is re-pointed under
// the events, so it never invalidates an event pointer.
type Block struct {
	evs   []event.Event
	attrs []float64
	maxTS event.Time
}

// Len reports the number of events in the block.
func (b *Block) Len() int { return len(b.evs) }

// At returns the block's i-th event, in place.
func (b *Block) At(i int) *event.Event { return &b.evs[i] }

// MaxTS reports the newest timestamp in the block (0 when empty).
func (b *Block) MaxTS() event.Time { return b.maxTS }

// Reserve makes room for that many more events and attribute values, so
// the appends that use it relocate nothing. Event pointers taken before
// the call are invalid after it.
func (b *Block) Reserve(events, attrs int) {
	if need := len(b.evs) + events; need > cap(b.evs) {
		evs := make([]event.Event, len(b.evs), need)
		copy(evs, b.evs)
		b.evs = evs
	}
	if need := len(b.attrs) + attrs; need > cap(b.attrs) {
		b.growAttrs(need)
	}
}

// growAttrs moves the attribute values into an array of the given
// capacity and re-points every event at its values there.
func (b *Block) growAttrs(capacity int) {
	attrs := make([]float64, len(b.attrs), capacity)
	copy(attrs, b.attrs)
	b.attrs = attrs
	b.repoint()
}

// repoint sets every event's Attrs to its values' place in the attribute
// array: they lie there in event order, back to back.
func (b *Block) repoint() {
	off := 0
	for i := range b.evs {
		n := len(b.evs[i].Attrs)
		b.evs[i].Attrs = b.attrs[off : off+n : off+n]
		off += n
	}
}

// Alloc appends an event in place and returns it: initialized with the
// given type, timestamp and sequence number, its Attrs pre-sized to
// nattrs values of the block's attribute array for the caller to fill
// (a decoder writes decoded values straight into the slot, so the event
// is materialized exactly once).
func (b *Block) Alloc(typ int, ts event.Time, seq uint64, nattrs int) *event.Event {
	ai := len(b.attrs)
	if ai+nattrs > cap(b.attrs) {
		b.growAttrs(max(ai+nattrs, 2*cap(b.attrs)))
	}
	b.attrs = b.attrs[:ai+nattrs]
	b.evs = append(b.evs, event.Event{Type: typ, TS: ts, Seq: seq, Attrs: b.attrs[ai : ai+nattrs : ai+nattrs]})
	if ts > b.maxTS || len(b.evs) == 1 {
		b.maxTS = ts
	}
	return &b.evs[len(b.evs)-1]
}

// Intern appends a copy of ev, attribute values included, and returns
// the copy. The caller's event is not retained.
//
// This is every engine's per-event copy, so it is written out rather
// than built on Alloc: two appends and no call in between (12 ns an
// event against 17 through Alloc, 11 before blocks existed).
func (b *Block) Intern(ev *event.Event) *event.Event {
	ai, n := len(b.attrs), len(ev.Attrs)
	if ai+n > cap(b.attrs) {
		b.growAttrs(max(ai+n, 2*cap(b.attrs)))
	}
	b.attrs = append(b.attrs, ev.Attrs...)
	b.evs = append(b.evs, *ev)
	ne := &b.evs[len(b.evs)-1]
	ne.Attrs = b.attrs[ai : ai+n : ai+n]
	if ev.TS > b.maxTS || len(b.evs) == 1 {
		b.maxTS = ev.TS
	}
	return ne
}

// DropFront removes the block's first n events and their attribute
// values, moving the rest down in place. Every event pointer taken
// before the call is invalid after it.
func (b *Block) DropFront(n int) {
	if n <= 0 {
		return
	}
	skip := 0
	for i := 0; i < n; i++ {
		skip += len(b.evs[i].Attrs)
	}
	b.attrs = b.attrs[:copy(b.attrs, b.attrs[skip:])]
	b.evs = b.evs[:copy(b.evs, b.evs[n:])]
	b.repoint()
}

// Reset empties the block for reuse, keeping its arrays. Under the race
// detector the old contents are poisoned first (see poison), so a
// pointer that outlived the block's owner reads values no stream
// carries.
func (b *Block) Reset() {
	poison(b)
	b.evs = b.evs[:0]
	b.attrs = b.attrs[:0]
	b.maxTS = 0
}

// Pool is where blocks wait between owners: Get hands one out, Put takes
// it back and empties it. Safe for concurrent use — a shard engine's
// feeder draws from the pool its workers return to.
type Pool struct {
	mu    sync.Mutex
	free  []*Block
	slack int // see NewPool; 0 keeps every returned block
	out   int // blocks handed out and not yet returned
}

// NewPool returns a pool that lets at most slack more blocks wait than
// are out, and drops a surplus to the garbage collector. What may wait
// thus scales with what is in use — in steady traffic the returns of a
// moment are a fraction of what the workers hold — and when demand
// collapses the pool shrinks with it instead of hoarding the peak.
func NewPool(slack int) *Pool { return &Pool{slack: slack} }

// Get returns an empty block: a returned one if any waits, else a new
// one that grows to fit what it is filled with.
func (p *Pool) Get() *Block {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.out++
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return b
	}
	return &Block{}
}

// Put returns a block that Get handed out and nothing points into any
// more. The block is emptied at once, so a stale pointer misreads from
// here on rather than from some later reuse.
func (p *Pool) Put(b *Block) {
	b.Reset()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.out--
	p.free = append(p.free, b)
	if p.slack > 0 {
		if keep := p.slack + p.out; len(p.free) > keep {
			clear(p.free[keep:])
			p.free = p.free[:keep]
		}
	}
}

// Live reports the blocks of this pool in existence, out or waiting (for
// tests).
func (p *Pool) Live() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.out + len(p.free)
}

// arenaBlockEvents is how many events Intern puts in one block: the unit
// an owner's storage is released in, and how often it asks its engines
// for their floor.
const arenaBlockEvents = 256

// Arena is what an owner of event storage holds its blocks in: an ordered
// run of blocks, oldest first, drawn from a pool and returned to it once
// the horizon the owner gives has passed them. The owner fills the newest
// block itself (Intern: the single-process engine and the pattern-set
// evaluator copying the caller's event in; Open: a decoder writing a run)
// or takes over one filled elsewhere (Hold: a shard worker and the cut it
// dequeued). Evaluation engines keep bare pointers into the blocks —
// histories, partial matches, residual buffers, parked matches — so the
// horizon is theirs to name: the owner releases on its engines' Floor,
// and keeps whatever it hands on in a Keeper, since a returned block is
// overwritten.
//
// Input is timestamp-ordered, so the blocks are too, and Release stops at
// the first one the horizon has not passed. Without a pool (SetRecycle,
// SetPool) released blocks are left to the garbage collector.
type Arena struct {
	blocks []*Block
	pool   *Pool
}

// SetRecycle gives the arena a pool of its own to return released blocks
// to and draw new ones from (on), or takes the pool away (off).
func (a *Arena) SetRecycle(on bool) {
	switch {
	case !on:
		a.pool = nil
	case a.pool == nil:
		a.pool = &Pool{}
	}
}

// SetPool makes p the place this arena's blocks come from and go back
// to. A decoder's arena shares the pool of the engine that consumes what
// it decodes: the consumer, not this arena's Release, returns a block the
// arena gave up with Take.
func (a *Arena) SetPool(p *Pool) { a.pool = p }

// Pool returns where the arena's blocks come from and go back to, nil
// when it has no pool (for tests: Pool.Live counts the blocks made).
func (a *Arena) Pool() *Pool { return a.pool }

// Full reports whether the next Intern opens a block: the newest one has
// its arenaBlockEvents events, or there is none. An owner asks before it
// interns and releases first, so the block it frees is the one it refills
// — once per arenaBlockEvents events.
func (a *Arena) Full() bool {
	n := len(a.blocks)
	return n == 0 || len(a.blocks[n-1].evs) == cap(a.blocks[n-1].evs)
}

// Intern copies ev, attribute values included, into the newest block and
// returns the copy, which stays where it is until Release passes it. The
// caller's event is not retained. A new block reserves its events and as
// many attribute values as if every event were as wide as this one; a
// recycled block keeps the arrays it grew to, so a stream's width is
// learned once.
func (a *Arena) Intern(ev *event.Event) *event.Event {
	if a.Full() {
		a.Open().Reserve(arenaBlockEvents, arenaBlockEvents*len(ev.Attrs))
	}
	return a.blocks[len(a.blocks)-1].Intern(ev)
}

// Open starts a new block — a pooled one or a fresh one — and returns it
// for the caller to fill: a run decoder reserves the run's length and
// decodes the whole run into it (wire.DecodeRun), so every run sits in a
// block of its own.
func (a *Arena) Open() *Block {
	var b *Block
	if a.pool != nil {
		b = a.pool.Get()
	} else {
		b = &Block{}
	}
	a.blocks = append(a.blocks, b)
	return b
}

// Hold appends a block filled elsewhere — drawn from the arena's pool —
// as the newest: Release returns it with the rest.
func (a *Arena) Hold(b *Block) { a.blocks = append(a.blocks, b) }

// Take removes the newest block from the arena and returns it (nil when
// the arena is empty). The caller owns it from here: Release will not
// see it, and returning it to a pool is the caller's to do.
func (a *Arena) Take() *Block {
	n := len(a.blocks)
	if n == 0 {
		return nil
	}
	b := a.blocks[n-1]
	a.blocks[n-1] = nil
	a.blocks = a.blocks[:n-1]
	return b
}

// Release returns every block, oldest first, whose events all precede
// the horizon (MaxTS < horizon), and stops at the first that does not:
// the blocks behind it are newer. Whatever still points into the arena —
// an engine's histories, partial matches, residual buffers and parked
// matches — must lie at or after the horizon: the engine's Floor.
func (a *Arena) Release(horizon event.Time) {
	n := 0
	for n < len(a.blocks) && a.blocks[n].maxTS < horizon {
		if a.pool != nil {
			a.pool.Put(a.blocks[n])
		}
		n++
	}
	if n > 0 {
		k := copy(a.blocks, a.blocks[n:])
		clear(a.blocks[k:])
		a.blocks = a.blocks[:k]
	}
}

// Live reports the number of blocks the arena holds (for tests).
func (a *Arena) Live() int { return len(a.blocks) }
