package shard

import "acep/internal/match"

// outbox is what one cut's matches leave a worker in: the tags and, under
// Options.EncodeMatch, the slab their Enc slices alias. The worker fills
// one per cut that emits and posts it as a run; the collector hands it
// back (Release) after the last of the tags, and the worker refills it —
// so after the first few cuts a worker allocates neither. A new box starts
// as wide as the widest cut the worker has posted, in tags and in encoded
// bytes, instead of doubling up to it; a reused one keeps what it has. An
// append that outgrows the slab moves it; the tags already made keep the
// old array alive and valid.
type outbox struct {
	tags []Tagged
	enc  []byte
	home *worker
}

// Release returns the outbox to the worker that filled it. Nothing may
// read its tags or their Enc bytes from here on: under the race detector
// the slab is overwritten at once (match.PoisonBytes), so a stale Enc
// fails a byte-identity suite instead of quietly reading a later cut's.
// What waits for a refill is bounded by what steady traffic keeps in
// flight — a queue's depth of cuts and a few in the collector — so the
// outboxes of a burst the collector had to sit on (a shard far behind
// under DropNewest) go to the garbage collector. Collector goroutine.
func (b *outbox) Release() {
	clear(b.tags) // drop the delivered matches
	b.tags = b.tags[:0]
	match.PoisonBytes(b.enc[:cap(b.enc)])
	b.enc = b.enc[:0]
	w := b.home
	w.boxMu.Lock()
	if len(w.boxFree) < cap(w.in)+4 {
		w.boxFree = append(w.boxFree, b)
	}
	w.boxMu.Unlock()
}

// box returns an empty outbox: a returned one if any waits, else a new
// one with room for the widest cut posted so far. Worker goroutine.
func (w *worker) box() *outbox {
	w.boxMu.Lock()
	defer w.boxMu.Unlock()
	if n := len(w.boxFree); n > 0 {
		b := w.boxFree[n-1]
		w.boxFree[n-1] = nil
		w.boxFree = w.boxFree[:n-1]
		return b
	}
	w.made++
	return &outbox{home: w, tags: make([]Tagged, 0, w.wide.tags), enc: make([]byte, 0, w.wide.enc)}
}
