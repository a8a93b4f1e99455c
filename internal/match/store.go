package match

import (
	"math"

	"acep/internal/event"
	"acep/internal/pattern"
)

// Partial is a pooled partial match: an assignment of events to some of
// the pattern's positions (an NFA prefix of the plan's order, or a tree
// node's leaf set) with its timestamp span.
type Partial struct {
	Evs          []*event.Event // by pattern position
	MinTS, MaxTS event.Time
}

// Check is one compiled pair check of an extension or join: the joining
// side's event at PosN against the parked side's event at PosO, with PC
// oriented so the joining event is the "new" operand.
type Check struct {
	PosN, PosO int
	PC         *pattern.PairCheck
}

// EqKey is the equality predicate a Place is indexed on. A partial parked
// there is filed under Evs[PosO].Attrs[AttrO]+C — the very expression
// CPair.Ok compares — and the joining event at PosN probes with
// Attrs[AttrN], so a probe meets exactly the partials the predicate could
// pass. The zero EqKey indexes nothing: one bucket holds everything.
type EqKey struct {
	Indexed     bool
	PosO, AttrO int
	C           float64
	PosN, AttrN int
}

// EqKeyOf picks the key of a place whose joins run the given check list:
// the list's first EQ predicate, or the zero key when it has none. No
// equality is inferred by transitivity — the index only skips candidates
// the check list itself would reject.
func EqKeyOf(checks []Check) EqKey {
	for _, c := range checks {
		for i := range c.PC.Preds {
			if p := &c.PC.Preds[i]; p.Op == pattern.EQ {
				return EqKey{Indexed: true, PosO: c.PosO, AttrO: p.AttrO, C: p.C, PosN: c.PosN, AttrN: p.AttrN}
			}
		}
	}
	return EqKey{}
}

// keyBits normalises a key to its map form: the two zeros compare equal
// and so share one entry; NaN has none.
func keyBits(v float64) (uint64, bool) {
	if v != v {
		return 0, false
	}
	if v == 0 {
		return 0, true
	}
	return math.Float64bits(v), true
}

// bucket is one key's share of a Place: the partials parked under the
// key with the least MinTS among them, and the events that probed with
// it, in timestamp order. key and at file it in its place's table and
// live list.
type bucket struct {
	ms     []*Partial
	oldest event.Time
	hist   Buffer
	key    uint64
	at     int
}

// Store is the partial-match store both engine models keep their state
// in: a pool of Partials, and the Places they are parked at while they
// wait to be extended. A partial is expired once the watermark has moved
// more than the window past its earliest event; expired partials are
// recycled when a probe sweeps their bucket or, in buckets nothing
// probes, at the next Prune.
//
// A store outlives its plan: Reset empties it for the next plan of the
// same pattern, and the places that plan asks for (NewPlace) are the
// previous plan's, re-keyed, with every array, key table and bucket they
// grew.
type Store struct {
	npos   int
	window event.Time
	free   []*Partial // room for every partial made: Put never grows it
	made   int
	places []*Place // places[:used] serve the plan; the rest wait, empty
	used   int
	live   int
	peak   int
}

// NewStore builds a store for partials over npos pattern positions that
// expire one window after their earliest event.
func NewStore(npos int, window event.Time) *Store {
	return &Store{npos: npos, window: window}
}

// Get returns a pooled (or fresh) partial with no events assigned.
func (s *Store) Get() *Partial {
	if n := len(s.free); n > 0 {
		m := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return m
	}
	if s.made++; cap(s.free) < s.made {
		s.free = make([]*Partial, 0, 2*s.made)
	}
	return &Partial{Evs: make([]*event.Event, s.npos)}
}

// Put recycles a dead partial. Safe because partials never escape their
// engine: completion hands the resolver a copy of the assignment.
func (s *Store) Put(m *Partial) {
	clear(m.Evs)
	s.free = append(s.free, m)
}

// Live reports the partials currently parked, expired ones that no sweep
// has reached yet included.
func (s *Store) Live() int { return s.live }

// Peak reports the high-water mark of Live.
func (s *Store) Peak() int { return s.peak }

// NewPlace adds a parking place indexed on key. A place without history
// records nothing Offer is handed, and Park returns nil there: it is for
// partials that never look back at events that arrived before them.
// After a Reset the place is the one the previous plan asked for at the
// same turn, re-keyed; only a store's first plan, or one that asks for
// more places than any before it, makes one.
func (s *Store) NewPlace(key EqKey, history bool) *Place {
	var pl *Place
	if s.used < len(s.places) {
		pl = s.places[s.used]
	} else {
		pl = &Place{st: s}
		s.places = append(s.places, pl)
	}
	s.used++
	pl.key, pl.history = key, history
	if key.Indexed && pl.idx == nil {
		pl.idx = make(map[uint64]*bucket)
	}
	return pl
}

// Prune sweeps every bucket of every place: expired partials are
// recycled, recorded events older than two windows are dropped, and
// buckets left with neither go back to their place's free list, so a
// place's table is bounded by the keys live within the retention horizon.
func (s *Store) Prune(now event.Time) {
	for _, pl := range s.places[:s.used] {
		pl.prune(&pl.flat, now)
		// Backwards: the bucket a drop moves into slot i was visited.
		for i := len(pl.live) - 1; i >= 0; i-- {
			if b := pl.live[i]; pl.prune(b, now) {
				pl.drop(b)
			}
		}
	}
}

// Reset empties the store for the next plan of its pattern: every parked
// partial goes back to the pool, every place is emptied — its buckets to
// its free list, its key table cleared, no event recorded — and waits to
// be handed out again by NewPlace; Live and Peak read 0. Only capacity
// survives: no event pointer and no partial's assignment does, so the
// store behaves exactly as a new one would, with the arrays and partials
// the previous plans grew already in hand.
func (s *Store) Reset() {
	for _, pl := range s.places {
		s.recycle(&pl.flat)
		for _, b := range pl.live {
			s.recycle(b)
		}
		pl.free = append(pl.free, pl.live...)
		clear(pl.live)
		pl.live = pl.live[:0]
		clear(pl.idx)
		pl.n = 0
	}
	s.used, s.live, s.peak = 0, 0, 0
}

// recycle puts b's partials back in the pool and empties b, keeping the
// capacity of its arrays.
func (s *Store) recycle(b *bucket) {
	for _, m := range b.ms {
		s.Put(m)
	}
	clear(b.ms)
	b.ms = b.ms[:0]
	b.hist.reset()
}

// Place is where partials of one kind — one NFA state, one tree node —
// wait for the events that can extend them: a set of buckets, one per
// live value of the place's key (a single one when the key indexes
// nothing).
//
// An unindexed place (key.Indexed false) parks everything in flat, its
// only bucket; idx, kept from a plan that indexed the place, stays empty.
// In an indexed place flat is where NaN keys park — NaN equals nothing,
// so no probe ever looks there, but Prune still does. live lists idx's
// buckets densely (live[b.at] == b), so Prune and HotKeys walk a slice,
// not the map.
type Place struct {
	st      *Store
	key     EqKey
	history bool
	idx     map[uint64]*bucket
	live    []*bucket
	free    []*bucket
	flat    bucket
	n       int
}

// slot returns the bucket filed under v, taking one from the free list
// (or allocating) when v has none yet.
func (pl *Place) slot(v float64) *bucket {
	if !pl.key.Indexed {
		return &pl.flat
	}
	k, ok := keyBits(v)
	if !ok {
		return &pl.flat
	}
	b := pl.idx[k]
	if b == nil {
		if n := len(pl.free); n > 0 {
			b = pl.free[n-1]
			pl.free[n-1] = nil
			pl.free = pl.free[:n-1]
		} else {
			b = new(bucket)
		}
		b.key, b.at = k, len(pl.live)
		pl.idx[k] = b
		pl.live = append(pl.live, b)
	}
	return b
}

// drop swap-deletes an emptied bucket from the table and the live list
// and returns it to the free list.
func (pl *Place) drop(b *bucket) {
	n := len(pl.live) - 1
	last := pl.live[n]
	pl.live[b.at] = last
	last.at = b.at
	pl.live[n] = nil
	pl.live = pl.live[:n]
	delete(pl.idx, b.key)
	pl.free = append(pl.free, b)
}

// find returns the bucket a probe with v meets, or nil when there is
// none.
func (pl *Place) find(v float64) *bucket {
	if !pl.key.Indexed {
		return &pl.flat
	}
	k, ok := keyBits(v)
	if !ok {
		return nil
	}
	return pl.idx[k]
}

// Len reports the partials parked here, swept or not.
func (pl *Place) Len() int { return pl.n }

// Buckets reports the number of key buckets currently in the table.
func (pl *Place) Buckets() int { return len(pl.idx) }

// KeepsHistory reports whether Offer records events here.
func (pl *Place) KeepsHistory() bool { return pl.history }

// Park files m under its key and returns the events recorded under the
// same key so far (see Offer) — the ones that arrived before m existed —
// or nil on a place without history.
func (pl *Place) Park(m *Partial) *Buffer {
	var v float64
	if pl.key.Indexed {
		v = m.Evs[pl.key.PosO].Attrs[pl.key.AttrO] + pl.key.C
	}
	b := pl.slot(v)
	if len(b.ms) == 0 || m.MinTS < b.oldest {
		b.oldest = m.MinTS
	}
	b.ms = append(b.ms, m)
	pl.n++
	s := pl.st
	s.live++
	if s.live > s.peak {
		s.peak = s.live
	}
	if !pl.history {
		return nil
	}
	return &b.hist
}

// Probe returns the unexpired partials e's key selects, after sweeping
// the expired ones out of that bucket. The slice is the bucket's own and
// is valid until the place is next parked at, probed or pruned.
func (pl *Place) Probe(e *event.Event, now event.Time) []*Partial {
	var v float64
	if pl.key.Indexed {
		v = e.Attrs[pl.key.AttrN]
	}
	b := pl.find(v)
	if b == nil {
		return nil
	}
	pl.expire(b, now)
	return b.ms
}

// ProbePartial is Probe with the event t holds at the key's joining
// position.
func (pl *Place) ProbePartial(t *Partial, now event.Time) []*Partial {
	return pl.Probe(t.Evs[pl.key.PosN], now)
}

// Offer is Probe for a place that also keeps history: e is recorded under
// its key for partials parked later to find. An event whose key is NaN
// can join nothing, now or later, and is not recorded. On a place without
// history Offer is Probe.
func (pl *Place) Offer(e *event.Event, now event.Time) []*Partial {
	if !pl.history {
		return pl.Probe(e, now)
	}
	var v float64
	if pl.key.Indexed {
		if v = e.Attrs[pl.key.AttrN]; v != v {
			return nil
		}
	}
	b := pl.slot(v)
	b.hist.Add(e)
	pl.expire(b, now)
	return b.ms
}

// HotKeys calls add with key(ev) for one representative event of every
// partial parked here.
func (pl *Place) HotKeys(key func(*event.Event) uint64, add func(uint64)) {
	hot := func(b *bucket) {
		for _, m := range b.ms {
			for _, e := range m.Evs {
				if e != nil {
					add(key(e))
					break
				}
			}
		}
	}
	hot(&pl.flat)
	for _, b := range pl.live {
		hot(b)
	}
}

// expire swap-removes and recycles b's expired partials and recomputes
// the bucket's oldest MinTS. While that is inside the window nothing has
// expired, and expire returns without a sweep.
func (pl *Place) expire(b *bucket, now event.Time) {
	s := pl.st
	if now-b.oldest <= s.window {
		return
	}
	ms, oldest := b.ms, now
	for i := 0; i < len(ms); {
		m := ms[i]
		if now-m.MinTS <= s.window {
			oldest = min(oldest, m.MinTS)
			i++
			continue
		}
		last := len(ms) - 1
		ms[i] = ms[last]
		ms[last] = nil
		ms = ms[:last]
		s.Put(m)
	}
	gone := len(b.ms) - len(ms)
	pl.n -= gone
	s.live -= gone
	b.ms, b.oldest = ms, oldest
}

// prune is one bucket's share of Store.Prune; it reports whether the
// bucket is left empty.
func (pl *Place) prune(b *bucket, now event.Time) bool {
	pl.expire(b, now)
	b.hist.Prune(now - 2*pl.st.window)
	return len(b.ms) == 0 && b.hist.Len() == 0
}
