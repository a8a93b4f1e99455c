// Package recovery is the fault-tolerance and elasticity subsystem of
// the distributed cluster layer (internal/cluster): the pieces that let
// an ingress move a shard between nodes — because its host died, or
// because a placement controller decided to — without losing or
// duplicating a single match. (The directory is internal/recover; the
// package is named recovery so importers do not shadow the built-in
// recover.)
//
// The design exploits the paper's per-partition adaptation argument
// (§7): a shard engine's match output depends only on the events of its
// partition inside the pattern window, never on evaluator state older
// than that — plans change performance, not semantics. A shard is
// therefore movable by replaying its recent history into a fresh engine
// on the destination; no evaluator-state serialization is needed. Three
// parts make that concrete:
//
//   - Journal — a bounded ring of sealed ingress cuts retaining, per
//     global shard, at least two pattern windows of history behind that
//     shard's released (delivered) frontier: one window because any
//     undelivered match's events lie within a window of its emission
//     point, and a second because negation scopes and parked (residual)
//     matches reach one further window back. Retention is per shard —
//     a cold shard trims on its own clock instead of pinning every
//     sibling's history. What it retains is the runs the ingress already
//     encoded for the workers (wire.ReplRun), never a copy; each was
//     carved from its shard encoder's chunk, so the journal pins the
//     bytes it accounts plus, per shard, about two chunks (the one
//     trimming has reached into and the one still being carved). A hard
//     byte bound force-trims with an explicit per-shard coverage-lost
//     marker rather than growing silently.
//   - Detector — a wall-clock heartbeat monitor fed by the frames each
//     node sends (watermarks double as heartbeats; nodes additionally
//     acknowledge every cut on receipt), declaring a silent node dead
//     after a configurable timeout. Transport errors bypass it (they
//     are definitive); it grows as nodes join a running cluster.
//   - Migration / Failover — the per-shard and per-incident records:
//     what moved or died, why, how much was replayed, and when the
//     destination caught up.
//
// The ingress-side orchestration (freezing the shard's merge source,
// the wire Migrate handshake, replay, suppression of already-released
// matches) lives in internal/cluster; this package holds the mechanism
// and its accounting.
package recovery

import (
	"fmt"

	"acep/internal/event"
	"acep/internal/wire"
)

// DefaultMaxBytes bounds the journal at 256 MiB unless configured.
const DefaultMaxBytes = 256 << 20

// DefaultSlackWindows is the retention horizon in pattern windows behind
// a shard's released frontier. Two windows are exactly sufficient: an
// undelivered match's own events span at most one window back from its
// emission point, and its residual scopes (negated events that could
// veto it, Kleene events that belong in it) reach at most one window
// further.
const DefaultSlackWindows = 2

// JournalConfig assembles a Journal.
type JournalConfig struct {
	// Window is the pattern's time window (required, positive).
	Window event.Time
	// Shards is the global shard count (required). Cuts arrive and trim
	// per global shard: each shard's own released frontier decides what
	// of its history is safe to drop, so one laggy or cold shard no
	// longer pins every other shard's retention.
	Shards int
	// SlackWindows overrides the retention horizon (default 2). One
	// window is sufficient for residual-free patterns (pure sequences
	// and conjunctions); below two, negation scopes and parked matches
	// may outrun the journal.
	SlackWindows int
	// MaxBytes is the hard bound on retained run bytes (default
	// DefaultMaxBytes). When exceeded the oldest cuts are trimmed
	// regardless of the horizon and the journal records, per shard, the
	// coverage loss; a later migration whose replay would have needed the
	// trimmed history fails explicitly instead of delivering a silently
	// incomplete stream.
	MaxBytes int64
}

// cutRecord is one sealed ingress cut: the runs of the shards that had
// events in it (a run leaves when its shard's retention trims it) plus
// the global watermark the cut covers.
type cutRecord struct {
	upTo uint64
	runs []wire.ReplRun
}

// Journal is the ingress's cut journal. It is confined to the ingress
// goroutine (no internal locking): AppendRuns seals cuts, Advance folds
// the released watermark and trims, ReplayShard feeds a migration. A
// journaled run is the encoded body the ingress framed to the worker —
// both sides treat it as immutable — so retention, not copying, is the
// journal's only memory cost, and of a run it reads nothing but its
// shard, event count and newest timestamp. Per cut it costs what it
// releases or drops, never what is still in flight (see Advance).
type Journal struct {
	cfg   JournalConfig
	slack event.Time // retention horizon behind a shard's released frontier

	cuts     []cutRecord // retained: cuts[head:], oldest first; the first folded are released
	head     int
	bytes    int64
	events   int
	lastUp   uint64
	relSeq   uint64
	folded   int // cuts already folded into the released frontiers
	relTS    []event.Time
	relSeen  []bool
	excluded []bool // abandoned shards: history dropped, never replayed

	forced   []bool // MaxBytes force-trimmed into this shard's safe horizon
	forcedTS []event.Time
}

// NewJournal validates the configuration.
func NewJournal(cfg JournalConfig) (*Journal, error) {
	if cfg.Window <= 0 {
		return nil, fmt.Errorf("recovery: journal needs a positive pattern window, got %d", cfg.Window)
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("recovery: journal needs the global shard count, got %d", cfg.Shards)
	}
	if cfg.SlackWindows <= 0 {
		cfg.SlackWindows = DefaultSlackWindows
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = DefaultMaxBytes
	}
	return &Journal{
		cfg:      cfg,
		slack:    event.Time(cfg.SlackWindows)*cfg.Window + 1,
		relTS:    make([]event.Time, cfg.Shards),
		relSeen:  make([]bool, cfg.Shards),
		excluded: make([]bool, cfg.Shards),
		forced:   make([]bool, cfg.Shards),
		forcedTS: make([]event.Time, cfg.Shards),
	}, nil
}

// AbandonShard drops shard g from the journal: its slot was given up
// with no successor, so no replay will ever need its history again. Its
// retained runs free immediately and future cuts for it are not
// retained.
func (j *Journal) AbandonShard(g int) {
	if g >= 0 && g < len(j.excluded) {
		j.excluded[g] = true
	}
	j.trim(j.Cuts())
}

// AppendRuns seals one cut: runs holds the encoded run of every shard
// that had events in it, upTo is the cut's global watermark. The journal
// copies the run headers and keeps the bodies, which must not change
// afterwards. Empty runs and abandoned shards' runs are not retained and
// a cut with nothing to retain is skipped; a run of a shard outside the
// configured space is an error and nothing of the cut is journaled.
// Exceeding MaxBytes force-trims oldest cuts and marks the affected
// shards' coverage as lost from that point.
func (j *Journal) AppendRuns(runs []wire.ReplRun, upTo uint64) error {
	keep := 0
	for _, r := range runs {
		if int(r.Shard) >= j.cfg.Shards {
			return fmt.Errorf("recovery: run of shard %d in a journal of %d shards", r.Shard, j.cfg.Shards)
		}
		if r.Events > 0 && !j.excluded[r.Shard] {
			keep++
		}
	}
	if keep == 0 {
		return nil
	}
	rec := cutRecord{upTo: upTo, runs: make([]wire.ReplRun, 0, keep)}
	for _, r := range runs {
		if r.Events > 0 && !j.excluded[r.Shard] {
			rec.runs = append(rec.runs, r)
			j.bytes += int64(len(r.Body))
			j.events += r.Events
		}
	}
	j.cuts = append(j.cuts, rec)
	j.lastUp = upTo
	for j.bytes > j.cfg.MaxBytes && j.Cuts() > 1 {
		j.forceTrimOldest()
	}
	return nil
}

// Append is AppendRuns for callers that hold event slices (tests, the
// benchmark's direct call): perShard[g] is global shard g's events of
// the cut in arrival order, encoded here the way the ingress does.
func (j *Journal) Append(perShard [][]event.Event, upTo uint64) {
	var runs []wire.ReplRun
	for g, evs := range perShard {
		if len(evs) == 0 {
			continue
		}
		var e wire.RunEncoder
		for i := range evs {
			e.Append(&evs[i])
		}
		runs = append(runs, e.Seal(uint32(g)))
	}
	if err := j.AppendRuns(runs, upTo); err != nil {
		panic(err) // more slices than the journal has shards: a caller bug
	}
}

// EachCut visits every retained cut oldest-first with its retained runs
// and watermark — the walk a standby uses to hand its mirror to a
// takeover successor over the wire. The runs are the journal's storage:
// callers must not mutate them or call other Journal methods from fn.
func (j *Journal) EachCut(fn func(runs []wire.ReplRun, upTo uint64) error) error {
	for _, c := range j.cuts[j.head:] {
		if err := fn(c.runs, c.upTo); err != nil {
			return err
		}
	}
	return nil
}

// Advance folds the released (delivered) watermark into the per-shard
// frontiers and trims every run no undelivered or future match can
// reach: released runs whose newest event is more than the slack
// horizon behind their own shard's released frontier. Only a released
// cut can hold one (AppendRuns keeps no abandoned shard's run), so a call
// costs O(released cuts), however many unreleased ones are in flight.
func (j *Journal) Advance(relSeq uint64) {
	if relSeq > j.relSeq {
		j.relSeq = relSeq
		for j.head+j.folded < len(j.cuts) && j.cuts[j.head+j.folded].upTo <= relSeq {
			for _, r := range j.cuts[j.head+j.folded].runs {
				j.relTS[r.Shard] = r.LastTS
				j.relSeen[r.Shard] = true
			}
			j.folded++
		}
	}
	j.trim(j.folded)
}

// droppable reports whether run r is past its own shard's retention
// horizon (or the shard is abandoned).
func (j *Journal) droppable(r wire.ReplRun) bool {
	if j.excluded[r.Shard] {
		return true
	}
	return j.relSeen[r.Shard] && r.LastTS < j.relTS[r.Shard]-j.slack
}

// drop takes run r out of the accounting.
func (j *Journal) drop(r wire.ReplRun) {
	j.bytes -= int64(len(r.Body))
	j.events -= r.Events
}

// trim drops, run by run, the history no replay can need among the n
// oldest retained cuts: within released cuts, each shard's run goes as
// soon as that shard's own frontier moves past it (abandoned shards' runs
// go anywhere). The kept cuts among the n slide up to meet the rest, so
// the emptied ones leave from the front: their slots are cleared (they
// pin run bodies) and the array is compacted only once at least half of
// it is dead. A call costs O(n) amortized, and appends never regrow the
// array for what left.
func (j *Journal) trim(n int) {
	live, w, folded := j.cuts[j.head:], n, j.folded
	for k := n - 1; k >= 0; k-- {
		c := live[k]
		kept := c.runs[:0]
		for _, r := range c.runs {
			if j.excluded[r.Shard] || (k < folded && j.droppable(r)) {
				j.drop(r)
				continue
			}
			kept = append(kept, r)
		}
		clear(c.runs[len(kept):]) // let go of the dropped bodies
		if len(kept) == 0 {
			if k < folded {
				j.folded--
			}
			continue
		}
		c.runs = kept
		w--
		live[w] = c
	}
	clear(live[:w])
	j.head += w
	if 2*j.head >= len(j.cuts) {
		m := copy(j.cuts, j.cuts[j.head:])
		clear(j.cuts[m:])
		j.cuts, j.head = j.cuts[:m], 0
	}
}

// forceTrimOldest empties the oldest cut to honor MaxBytes, recording,
// per shard still holding a run inside its safe horizon, that coverage
// was lost, and lets trim retire it.
func (j *Journal) forceTrimOldest() {
	c := &j.cuts[j.head]
	for _, r := range c.runs {
		if !j.droppable(r) || c.upTo > j.relSeq {
			j.forced[r.Shard] = true
			j.forcedTS[r.Shard] = max(j.forcedTS[r.Shard], r.LastTS)
		}
		j.drop(r)
	}
	c.runs = c.runs[:0]
	j.trim(1)
}

// CoveredShard reports whether the retained journal still holds
// everything a migration of shard g needs — i.e. whether MaxBytes
// force-trimming ever cut into that shard's safe horizon.
func (j *Journal) CoveredShard(g int) error {
	if g < 0 || g >= len(j.forced) || !j.forced[g] {
		return nil
	}
	if !j.relSeen[g] {
		// The shard never released an event; everything undelivered must
		// be replayable, and its history has been force-trimmed.
		return fmt.Errorf("recovery: journal overflowed (%d bytes cap) before shard %d released anything; replay would be incomplete",
			j.cfg.MaxBytes, g)
	}
	if j.forcedTS[g] >= j.relTS[g]-j.slack {
		return fmt.Errorf("recovery: journal overflowed (%d bytes cap) and trimmed into shard %d's replay horizon; raise MaxBytes or shrink the window",
			j.cfg.MaxBytes, g)
	}
	return nil
}

// ReplayShard walks the retained runs of shard g, oldest first, each
// with its cut's watermark, stopping on the first error.
func (j *Journal) ReplayShard(g int, fn func(run wire.ReplRun, upTo uint64) error) error {
	for _, c := range j.cuts[j.head:] {
		for _, r := range c.runs {
			if int(r.Shard) != g {
				continue
			}
			if err := fn(r, c.upTo); err != nil {
				return err
			}
		}
	}
	return nil
}

// ReplayUpToShard is the watermark of the newest retained cut carrying
// events for shard g — the point at which a destination replaying the
// shard has caught up with everything sealed before the migration
// (0 if none).
func (j *Journal) ReplayUpToShard(g int) uint64 {
	var upTo uint64
	j.ReplayShard(g, func(_ wire.ReplRun, u uint64) error { //nolint:errcheck // fn never fails
		upTo = u
		return nil
	})
	return upTo
}

// Bytes reports the retained run bytes. The runs' chunks make what the
// journal pins a little more: about two chunks a shard (see the package
// comment).
func (j *Journal) Bytes() int64 { return j.bytes }

// Cuts reports the number of retained cuts.
func (j *Journal) Cuts() int { return len(j.cuts) - j.head }

// Events reports the number of retained events.
func (j *Journal) Events() int { return j.events }

// LastUpTo is the watermark of the newest sealed cut (0 before any).
func (j *Journal) LastUpTo() uint64 { return j.lastUp }
