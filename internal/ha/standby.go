package ha

import (
	"fmt"
	"math"
	"sync"
	"time"

	"acep/internal/cluster"
	"acep/internal/event"
	recovery "acep/internal/recover"
	"acep/internal/wire"
)

// StandbyServer is the standby side of the replication link: it tails
// the primary's sealed-cut stream into a mirror journal — the same
// journal type the primary itself retains for worker failover — together
// with the owner table, the per-slot worker addresses, and the primary's
// emission state. The mirror is opaque: a cut's runs arrive as the bytes
// the primary's ingress encoded for the workers, and the server keeps
// and hands over those bytes without ever decoding an event. Every
// mirrored cut is acknowledged with its watermark — and only a mirrored
// one: a cut the server cannot hold fails the link instead;
// the primary's emission gate holds matches until the cut producing them
// is acknowledged, which is what makes the mirror's (lastUpTo, emitted,
// count) triple sufficient to resume the stream byte-identically after a
// takeover.
//
// Since the partition-tolerance work the server is process-agnostic: it
// speaks only the wire protocol. The opening Epoch frame carries the
// pattern window, the one journal sizing not fixed at the journal
// defaults, so `acep-standby` hosts a StandbyServer with no pattern
// knowledge; and a takeover successor pulls the mirrored state back out
// over TCP with the Handover / HandoverState exchange instead of reading
// this struct's memory. The in-process standby the Pair spawns by default
// is the same server on a loopback listener — one code path for both
// deployments.
//
// The serve loop owns sessions sequentially: first the primary's
// replication session, then any number of handover reads. Duplicated or
// reordered replication frames are detected by the dense ReplCut.Cut
// ordinal (re-acked, not re-mirrored); a gap means a dropped frame, and
// the server fails the link rather than journal incomplete history —
// as it does for a cut it has no journal for (the Epoch frame declared
// no usable window) or whose runs name shards outside the owner table.
type StandbyServer struct {
	l    *cluster.Listener
	done chan struct{}

	// Logf, when set before Serve, receives session lifecycle lines
	// (used by cmd/acep-standby).
	Logf func(format string, args ...any)

	mu         sync.Mutex
	conn       cluster.Conn // active session conn (Stop must unblock it)
	journal    *recovery.Journal
	window     event.Time // the mirror journal's, from the opening Epoch frame
	lastUpTo   uint64     // newest mirrored cut watermark
	lastCut    uint64     // newest mirrored cut ordinal; dense from 1, so also the number mirrored
	emitted    uint64     // primary's last received EmittedUpTo (E*)
	count      uint64     // primary's delivered count at that boundary (N*)
	owner      []uint32
	addrs      []string
	events     int
	mirrored   bool // a replication session has produced at least one cut
	finished   bool // saw the Final cut: clean stand-down
	stopped    bool // deliberate shutdown
	dead       bool // primary death observed on the link
	cause      string
	detectedAt time.Time
}

// NewStandbyServer wraps a listener; call Serve (usually on its own
// goroutine) to start accepting the primary.
func NewStandbyServer(l *cluster.Listener) *StandbyServer {
	return &StandbyServer{l: l, done: make(chan struct{})}
}

// Addr reports the listener address the primary should dial.
func (s *StandbyServer) Addr() string { return s.l.Addr() }

func (s *StandbyServer) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// Serve accepts sessions until Stop: one replication session from the
// primary, then handover reads from takeover successors. Sessions are
// served sequentially — the protocol never overlaps them (a handover
// only happens once the primary is dead or demoted).
func (s *StandbyServer) Serve() {
	defer close(s.done)
	for {
		conn, err := s.l.Accept()
		if err != nil {
			return // Stop closed the listener
		}
		s.mu.Lock()
		stopped := s.stopped
		s.mu.Unlock()
		if stopped {
			conn.Close()
			return
		}
		s.serveSession(conn)
	}
}

// serveSession dispatches one accepted connection on its opening frame.
func (s *StandbyServer) serveSession(conn cluster.Conn) {
	s.mu.Lock()
	s.conn = conn
	stopped := s.stopped
	s.mu.Unlock()
	defer func() {
		conn.Close()
		s.mu.Lock()
		s.conn = nil
		s.mu.Unlock()
	}()
	if stopped {
		return // Stop raced the accept; don't serve a dead server
	}
	f, err := conn.Recv()
	if err != nil {
		return // dialer vanished before speaking; not a primary death
	}
	switch v := f.(type) {
	case wire.Epoch:
		s.logf("replication session open: epoch %d window %d", v.Epoch, v.Window)
		s.mu.Lock()
		s.window = event.Time(v.Window)
		s.mu.Unlock()
		s.serveReplication(conn)
	case wire.Handover:
		s.logf("handover read: successor epoch %d", v.Epoch)
		s.serveHandover(conn)
	default:
		s.fail(fmt.Errorf("ha: unexpected %s frame opening a standby session", wire.KindOf(f)))
	}
}

// serveReplication tails the primary until it stands the link down
// (Final cut), dies, or the standby is stopped.
func (s *StandbyServer) serveReplication(conn cluster.Conn) {
	for {
		f, err := conn.Recv()
		if err != nil {
			s.fail(fmt.Errorf("ha: replication link: %w", err))
			return
		}
		switch v := f.(type) {
		case wire.Epoch:
			// Re-declaration on an open link: tolerated, no-op.
		case *wire.ReplCut:
			dup, err := s.mirror(v)
			if err != nil {
				// Journaling on (or acknowledging) past a cut the mirror
				// does not hold would hand a successor incomplete history,
				// so fail the link — the primary demotes and the mirror
				// stops advertising itself as current.
				s.fail(err)
				return
			}
			if dup {
				// Duplicate or reordered-behind frame: the cut is already
				// mirrored. Re-ack so a lost ack cannot stall the
				// primary's flow control, but touch nothing.
				if serr := conn.Send(wire.Watermark{UpTo: v.UpTo}); serr != nil {
					s.fail(fmt.Errorf("ha: re-acking duplicated cut: %w", serr))
					return
				}
				continue
			}
			if v.Final {
				// Stand-down: the stream ended cleanly on the primary.
				// The terminal ack fully opens the primary's gate (its
				// end-of-stream flush matches carry the max watermark).
				// Keep the session open — late frames already in flight
				// (a delayed ReplState, a duplicated Final) must land
				// harmlessly, not race our close; the primary closes
				// the link once its own teardown finishes.
				conn.Send(wire.Watermark{UpTo: math.MaxUint64}) //nolint:errcheck // primary may already be gone
				s.mu.Lock()
				s.finished = true
				cuts, events := s.lastCut, s.events
				s.mu.Unlock()
				s.logf("stand-down: %d cuts, %d events mirrored", cuts, events)
				continue
			}
			if err := conn.Send(wire.Watermark{UpTo: v.UpTo}); err != nil {
				s.fail(fmt.Errorf("ha: acking mirrored cut: %w", err))
				return
			}
		case wire.ReplState:
			s.mu.Lock()
			if v.EmittedUpTo >= s.emitted {
				// Monotone guard: a reordered stale state frame must not
				// roll the resume point backward.
				s.emitted, s.count = v.EmittedUpTo, v.Count
				if s.journal != nil {
					// Retention follows the primary's *emission* boundary,
					// not the mirrored watermark: matches above it may
					// need regeneration on takeover, so the history
					// producing them must stay replayable.
					s.journal.Advance(v.EmittedUpTo)
				}
			}
			s.mu.Unlock()
		default:
			s.fail(fmt.Errorf("ha: unexpected %s frame on the replication link", wire.KindOf(f)))
			return
		}
	}
}

// mirror appends one replicated cut to the mirror journal, creating it
// lazily at the first cut (whose owner table fixes the global shard
// count). It reports dup for an already-mirrored ordinal, and as an
// error everything that would leave the mirror short of the cut: a
// skipped ordinal (a frame was lost in transit), no journal to put it in
// (no owner table yet, or a window — from the session's opening Epoch
// frame — that NewJournal refuses: a non-positive one from a
// misconfigured primary), a run outside the shard space.
func (s *StandbyServer) mirror(v *wire.ReplCut) (dup bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v.Cut <= s.lastCut && s.mirrored {
		return true, nil
	}
	if v.Cut != s.lastCut+1 {
		return false, fmt.Errorf("ha: replication gap: cut %d arrived after cut %d", v.Cut, s.lastCut)
	}
	if s.journal == nil {
		if s.journal, err = recovery.NewJournal(recovery.JournalConfig{Window: s.window, Shards: len(v.Owner)}); err != nil {
			return false, fmt.Errorf("ha: cut %d cannot be mirrored: %w", v.Cut, err)
		}
	}
	if err := s.journal.AppendRuns(v.Runs, v.UpTo); err != nil {
		return false, fmt.Errorf("ha: cut %d cannot be mirrored: %w", v.Cut, err)
	}
	s.lastUpTo = v.UpTo
	s.lastCut = v.Cut
	s.mirrored = true
	s.owner = append(s.owner[:0], v.Owner...)
	s.addrs = append(s.addrs[:0], v.Addrs...)
	for _, r := range v.Runs {
		s.events += r.Events
	}
	return false, nil
}

// serveHandover streams the mirrored state to a takeover successor: the
// HandoverState header, then each retained journal cut as a ReplCut
// frame. Reading is idempotent — the mirror is not consumed.
func (s *StandbyServer) serveHandover(conn cluster.Conn) {
	s.mu.Lock()
	hs := wire.HandoverState{
		LastUpTo: s.lastUpTo, LastCut: s.lastCut,
		EmittedUpTo: s.emitted, Count: s.count,
		Events: uint64(s.events),
		Dead:   s.dead, Cause: s.cause,
		Owner: append([]uint32(nil), s.owner...),
		Addrs: append([]string(nil), s.addrs...),
	}
	if !s.detectedAt.IsZero() {
		hs.DetectedAt = uint64(s.detectedAt.UnixNano())
	}
	if s.journal != nil {
		hs.Cuts = uint64(s.journal.Cuts())
	}
	j := s.journal
	s.mu.Unlock()
	// The journal is only ever mutated from this serve goroutine
	// (sessions are sequential), so walking it without the lock is safe.
	if conn.Send(hs) != nil {
		return
	}
	if j != nil {
		var cut uint64
		j.EachCut(func(runs []wire.ReplRun, upTo uint64) error { //nolint:errcheck // send failure just ends the walk
			cut++
			return conn.Send(wire.ReplCut{UpTo: upTo, Cut: cut, Runs: runs})
		})
	}
}

// fail records the primary's death as observed on the link — unless the
// link ended for a benign reason (stand-down or deliberate stop).
func (s *StandbyServer) fail(err error) {
	s.mu.Lock()
	if !s.finished && !s.stopped && !s.dead {
		s.dead = true
		s.cause = err.Error()
		s.detectedAt = time.Now()
	}
	s.mu.Unlock()
	s.logf("replication session over: %v", err)
}

// Stop shuts the server down deliberately (the standby-death half of the
// kill matrix, or process shutdown). Safe before or after any session.
func (s *StandbyServer) Stop() {
	s.mu.Lock()
	s.stopped = true
	conn := s.conn
	s.mu.Unlock()
	s.l.Close()
	if conn != nil {
		conn.Close() // unblock a session mid-Recv
	}
}

// Wait blocks until the serve loop has exited.
func (s *StandbyServer) Wait() { <-s.done }

// Stats reports how much the server mirrored (cuts, events) — the
// replication volume behind the overhead measurements.
func (s *StandbyServer) Stats() (cuts, events int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int(s.lastCut), s.events
}

// mirrorState is the snapshot a takeover resumes from, rebuilt on the
// successor side from the handover exchange.
type mirrorState struct {
	journal    *recovery.Journal
	lastUpTo   uint64
	emitted    uint64
	count      uint64
	owner      []int
	addrs      []string
	cuts       int
	events     int
	dead       bool
	cause      string
	detectedAt time.Time
}
