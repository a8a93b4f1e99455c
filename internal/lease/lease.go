// Package lease is the split-brain arbiter for the HA coordinator pair:
// a tiny single-writer TTL lease served in-process or over TCP with the
// wire v6 LeaseAcquire / LeaseRenew / LeaseFence frames.
//
// The protocol is deliberately minimal — one lease, one holder, one
// epoch counter — because the correctness argument wants to be short:
//
//   - Acquire grants when the lease is free, expired, or already held by
//     the same holder. Granting to a *new* holder increments the lease
//     epoch, fencing every frame the previous holder could still send.
//   - Renew extends a grant and atomically commits the holder's emission
//     boundary (EmittedUpTo, Count). A renew is valid whenever holder
//     and epoch both match — even past expiry. Expiry only matters at
//     acquisition time: an expired-but-unclaimed lease still belongs to
//     its holder, so a slow primary that nobody has replaced keeps
//     running instead of demoting on a scheduling hiccup.
//   - Renew with TTL zero releases the lease; the committed boundary
//     survives the release so a successor can still read it.
//
// The emission gate in internal/ha commits via Renew *before* emitting
// a prefix that holds a match (commit-then-emit), and the primary's
// feed renews on its own only once the last renewal is a quarter of
// the TTL old. A partitioned primary's renew therefore fails before any
// unarbitrated match reaches the consumer, and the count stored here is
// exactly the primary's delivered count — which is what makes takeover
// skip counts exact across a process boundary. The stored boundary may
// lag the primary's emitted one (a prefix without a match is not
// committed); nothing reads it to resume.
//
// Denied requests return a fence carrying the current holder, epoch,
// committed boundary and the grant's remaining TTL, so a contender knows
// both who owns the stream and when to retry.
package lease

import (
	"fmt"
	"sync"
	"time"

	"acep/internal/cluster"
	"acep/internal/wire"
)

// Server is the lease arbiter. One Server holds one lease. The zero
// holder ID means "free"; clients must use nonzero holder IDs.
type Server struct {
	mu       sync.Mutex
	holder   uint64
	epoch    uint64
	expires  time.Time
	boundary uint64 // last committed EmittedUpTo
	count    uint64 // delivered count at that boundary

	now func() time.Time

	lst    *cluster.Listener
	conns  map[cluster.Conn]struct{}
	closed bool // Close ran: late-accepted conns are closed, not served
	wg     sync.WaitGroup
}

// New returns an arbiter on the real clock.
func New() *Server { return NewAt(time.Now) }

// NewAt returns an arbiter on an injected clock (tests).
func NewAt(now func() time.Time) *Server {
	return &Server{now: now, conns: make(map[cluster.Conn]struct{})}
}

// fenceLocked snapshots the lease as a fence frame.
func (s *Server) fenceLocked(granted bool, at time.Time) wire.LeaseFence {
	f := wire.LeaseFence{
		Granted:     granted,
		Holder:      s.holder,
		Epoch:       s.epoch,
		EmittedUpTo: s.boundary,
		Count:       s.count,
	}
	if !granted && s.holder != 0 {
		if left := s.expires.Sub(at); left > 0 {
			f.LeftMillis = uint64(left / time.Millisecond)
		}
	}
	return f
}

// Acquire claims the lease for holder with the given TTL. It grants when
// the lease is free, expired, or already held by the same holder; a
// grant to a new holder increments the epoch (the fence).
func (s *Server) Acquire(holder uint64, ttl time.Duration) wire.LeaseFence {
	s.mu.Lock()
	defer s.mu.Unlock()
	at := s.now()
	if holder == 0 || ttl <= 0 {
		return s.fenceLocked(false, at)
	}
	if s.holder != 0 && s.holder != holder && at.Before(s.expires) {
		return s.fenceLocked(false, at)
	}
	if s.holder != holder {
		s.epoch++
	}
	s.holder = holder
	s.expires = at.Add(ttl)
	return s.fenceLocked(true, at)
}

// Renew extends holder's grant and commits its emission boundary. Valid
// whenever holder and epoch match the current grant, even past expiry;
// TTL zero releases the lease (the committed boundary survives).
func (s *Server) Renew(r wire.LeaseRenew) wire.LeaseFence {
	s.mu.Lock()
	defer s.mu.Unlock()
	at := s.now()
	if r.Holder == 0 || r.Holder != s.holder || r.Epoch != s.epoch {
		return s.fenceLocked(false, at)
	}
	// Monotone commit: a keepalive renew racing a drain commit on the
	// same holder must never roll the recorded emission state backward —
	// the stored pair is the successor's resume point.
	if r.EmittedUpTo > s.boundary || (r.EmittedUpTo == s.boundary && r.Count > s.count) {
		s.boundary = r.EmittedUpTo
		s.count = r.Count
	}
	if r.TTLMillis == 0 {
		s.holder = 0
		s.expires = time.Time{}
		f := s.fenceLocked(true, at)
		f.Epoch = r.Epoch // the epoch the release happened under
		return f
	}
	s.expires = at.Add(time.Duration(r.TTLMillis) * time.Millisecond)
	return s.fenceLocked(true, at)
}

// State reports the committed emission boundary and delivered count —
// what a successor resumes from.
func (s *Server) State() (holder, epoch, boundary, count uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.holder, s.epoch, s.boundary, s.count
}

// Serve answers lease RPCs on the listener until Close. Each connection
// gets its own goroutine; the protocol is strict request/response
// (LeaseAcquire or LeaseRenew in, LeaseFence out), anything else closes
// the connection.
func (s *Server) Serve(l *cluster.Listener) {
	s.mu.Lock()
	s.lst = l
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			if s.closed {
				// Accepted just before Close snapshotted s.conns: serving
				// it would leave a goroutine blocked in Recv that Close's
				// wg.Wait then hangs on. Close it instead.
				s.mu.Unlock()
				c.Close()
				continue
			}
			s.conns[c] = struct{}{}
			s.mu.Unlock()
			s.wg.Add(1)
			go s.serveConn(c)
		}
	}()
}

// ListenAndServe binds addr (":0" for an ephemeral port) and serves on
// it, returning the bound address.
func (s *Server) ListenAndServe(addr string) (string, error) {
	l, err := cluster.ListenTCP(addr)
	if err != nil {
		return "", fmt.Errorf("lease: %w", err)
	}
	s.Serve(l)
	return l.Addr(), nil
}

func (s *Server) serveConn(c cluster.Conn) {
	defer s.wg.Done()
	defer func() {
		c.Close()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()
	for {
		f, err := c.Recv()
		if err != nil {
			return
		}
		var fence wire.LeaseFence
		switch v := f.(type) {
		case wire.LeaseAcquire:
			fence = s.Acquire(v.Holder, time.Duration(v.TTLMillis)*time.Millisecond)
		case wire.LeaseRenew:
			fence = s.Renew(v)
		default:
			return
		}
		if c.Send(fence) != nil {
			return
		}
	}
}

// Close stops serving: the listener and every open connection close, and
// Close returns once all connection goroutines have exited. The lease
// state itself is not cleared.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	lst := s.lst
	s.lst = nil
	conns := make([]cluster.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if lst != nil {
		lst.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
}
