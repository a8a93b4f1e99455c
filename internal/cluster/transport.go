// Package cluster is the distributed execution layer: it scales the
// key-partitioned shard engine (internal/shard) across processes and
// machines. A worker Node hosts whichever global shards it is sent runs
// of, behind a transport connection; the Ingress coordinator partitions
// the input stream across nodes with the same consistent placement the
// shard layer uses locally, drives uniform watermark cuts so idle nodes
// still advance, and merges the node match streams — already ordered
// per node — through the shard layer's heap Collector into one
// deterministic global output.
//
// The paper's adaptation method applies per partition without
// modification (§7), so every shard engine inside every node keeps its
// own plan, statistics and invariants; nothing about adaptation crosses
// the wire. For key-partitionable patterns (shard.Partitionable) the
// cluster's match set is exactly the single-process sharded engine's —
// byte-identical, in the identical deterministic order — because the
// global placement function, the per-shard event subsequences, and the
// (sequence, shard, emission) merge order are all preserved across the
// distribution boundary. internal/cluster tests verify this on loopback
// TCP against internal/shard directly.
//
// Messages travel as internal/wire frames over a Conn. There is one
// transport, a framed TCP stream: between processes (ListenTCP/DialTCP)
// or over loopback inside one (Pipe). Failure-injecting wrappers
// (internal/chaos, the tests) wrap a Conn.
package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"sync/atomic"
	"time"

	"acep/internal/match"
	"acep/internal/wire"
)

// Conn is one ordered, bidirectional frame connection between the
// ingress and a node. Implementations need not support concurrent Send
// calls (each endpoint writes from one goroutine at a time); Recv may run
// concurrently with Send. Close releases the connection; a Recv on the
// other end then drains buffered frames and reports io.EOF. Recv returns
// frames as wire's decoder leaves them — a Matches frame with every record
// checked — and the ingress does not check a Matches frame again.
type Conn interface {
	Send(wire.Frame) error
	Recv() (wire.Frame, error)
	Close() error
}

// Pipe returns the two ends of one loopback TCP connection, framed as
// DialTCP's and Accept's are. The in-process cluster and the tests run on
// it, so they run the transport a deployment runs: frames serialize, a
// sender's buffer is its own again when Send returns, and a node flushes
// on the same rules. It panics if the loopback interface refuses it.
func Pipe() (Conn, Conn) {
	var a, b net.Conn
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err == nil {
		defer l.Close()
		// The kernel completes the connection before Accept takes it.
		if a, err = net.Dial("tcp", l.Addr().String()); err == nil {
			b, err = l.Accept()
		}
	}
	if err != nil {
		panic(fmt.Sprintf("cluster: loopback pipe: %v", err))
	}
	return newStreamConn(a, ""), newStreamConn(b, "")
}

// streamConn frames wire messages over a TCP stream. Both directions are
// buffered: reads through a bufio.Reader so a frame's length prefix and
// body (and any frames already queued in the socket) cost one read
// syscall instead of two each, and writes through a bufio.Writer that
// Send flushes by default — one syscall per frame. Either way Send has
// copied the frame's bytes when it returns, so the sender may reuse them.
// A session that emits bursts of small frames can coalesce a burst into a
// single write: a node's per-cut heartbeat and matches through
// SetSendHold/Flush, the ingress's runs of a cut through SendCut.
type streamConn struct {
	c    net.Conn
	sc   *stallNetConn
	r    *wire.Reader
	bw   *bufio.Writer
	w    *wire.Writer
	hold bool
	addr string // the address dialed ("" accepted or in-process)
}

const streamBufSize = 32 << 10

func newStreamConn(c net.Conn, addr string) *streamConn {
	sc := &stallNetConn{Conn: c}
	bw := bufio.NewWriterSize(sc, streamBufSize)
	return &streamConn{
		c:    c,
		sc:   sc,
		r:    wire.NewReader(bufio.NewReaderSize(sc, streamBufSize)),
		bw:   bw,
		w:    wire.NewWriter(bw),
		addr: addr,
	}
}

// stallSlices is how many deadline slices a stall window is cut into:
// progress within any slice resets the stall clock, so only a peer that
// accepts zero bytes for the whole window trips the error — a slow
// reader that drains even one byte per slice never does.
const stallSlices = 4

// stallNetConn wraps a net.Conn with progress-based stall detection.
// A plain absolute deadline cannot distinguish a wedged peer from a
// merely slow one on a large write; instead each Read/Write runs under
// sliced deadlines and errors only after *zero bytes of progress* for
// the full stall window. Durations are atomics so probes may arm and
// disarm them while the connection is in use; a zero duration (the
// default) bypasses deadlines entirely.
type stallNetConn struct {
	net.Conn
	writeStall atomic.Int64
	readStall  atomic.Int64
}

func (s *stallNetConn) Write(p []byte) (n int, err error) {
	d := time.Duration(s.writeStall.Load())
	if d <= 0 {
		return s.Conn.Write(p)
	}
	slice := d / stallSlices
	if slice < time.Millisecond {
		slice = time.Millisecond
	}
	var idle time.Duration
	for n < len(p) {
		s.Conn.SetWriteDeadline(time.Now().Add(slice))
		m, werr := s.Conn.Write(p[n:])
		n += m
		if werr == nil {
			idle = 0
			continue
		}
		var ne net.Error
		if errors.As(werr, &ne) && ne.Timeout() {
			if m > 0 {
				idle = 0 // progress: the peer is slow, not wedged
				continue
			}
			idle += slice
			if idle < d {
				continue
			}
			werr = fmt.Errorf("cluster: write stalled %v with zero progress: %w", d, werr)
		}
		s.Conn.SetWriteDeadline(time.Time{})
		return n, werr
	}
	s.Conn.SetWriteDeadline(time.Time{})
	return n, nil
}

func (s *stallNetConn) Read(p []byte) (int, error) {
	d := time.Duration(s.readStall.Load())
	if d <= 0 {
		return s.Conn.Read(p)
	}
	slice := d / stallSlices
	if slice < time.Millisecond {
		slice = time.Millisecond
	}
	var idle time.Duration
	for {
		s.Conn.SetReadDeadline(time.Now().Add(slice))
		n, err := s.Conn.Read(p)
		if n > 0 || err == nil {
			s.Conn.SetReadDeadline(time.Time{})
			return n, err
		}
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			idle += slice
			if idle < d {
				continue
			}
			err = fmt.Errorf("cluster: read stalled %v with zero progress: %w", d, err)
		}
		s.Conn.SetReadDeadline(time.Time{})
		return n, err
	}
}

func (s *streamConn) Send(f wire.Frame) error { return s.sent(s.w.Write(f)) }

// sent finishes a Send: unless it failed or frames are held, it flushes.
func (s *streamConn) sent(err error) error {
	if err != nil || s.hold {
		return err
	}
	return s.bw.Flush()
}

// resultSender is what the stream transport offers a node's sender: the
// frames a node answers each cut with — its heartbeat and its Matches
// frame — sent as Send would, neither boxed into a wire.Frame. Probed for
// on a Conn; a wrapper that hides it gets them through Send.
type resultSender interface {
	SendBeat(upTo uint64) error
	SendMatches(v wire.Matches) error
}

// SendBeat is Send for a Heartbeat, unboxed (wire.Writer.WriteBeat).
func (s *streamConn) SendBeat(upTo uint64) error {
	return s.sent(s.w.WriteBeat(wire.Heartbeat{UpTo: upTo}))
}

// SendMatches is Send for a Matches frame, unboxed (wire.Writer.WriteMatches).
func (s *streamConn) SendMatches(v wire.Matches) error { return s.sent(s.w.WriteMatches(v)) }

// sendHolder is what the stream transport offers a sender that knows
// where its bursts end: hold frames in the write buffer, push them out
// together. Probed for on a Conn; a wrapper may hide it.
type sendHolder interface {
	SetSendHold(bool)
	Flush() error
}

// cutSender is what the stream transport offers the ingress's cut
// sender: a cut's frames — one events-only frame per run, naming its
// shard, then the watermark frame — written as one burst, none boxed into
// a wire.Frame. Probed for on a Conn; a wrapper that hides it gets the
// frames one Send at a time.
type cutSender interface {
	SendCut(runs []wire.ReplRun, upTo uint64) error
}

// SendCut writes a cut's frames through the write buffer and flushes once.
func (s *streamConn) SendCut(runs []wire.ReplRun, upTo uint64) error {
	for _, r := range runs {
		if err := s.w.WriteRaw(wire.BatchRaw{Shard: r.Shard, Run: r.Body}); err != nil {
			return err
		}
	}
	if err := s.w.WriteRaw(wire.BatchRaw{UpTo: upTo}); err != nil {
		return err
	}
	return s.bw.Flush()
}

// SetSendHold switches Send between write-through (false, the default:
// every frame is flushed to the socket immediately) and held mode
// (true: frames accumulate in the write buffer until Flush). Held mode
// is only safe when the caller owns a protocol quiescence point to
// flush at — the node after handling each inbound frame, and for the
// results its collector releases while it waits for one — since a held
// frame the peer is waiting for would otherwise deadlock the session.
func (s *streamConn) SetSendHold(on bool) { s.hold = on }

// Flush writes any held frames through to the socket.
func (s *streamConn) Flush() error { return s.bw.Flush() }

// RemoteAddr reports the address the connection was dialed at ("" for an
// accepted or in-process one: nothing listens there). The ingress
// replicates it per node slot so a standby coordinator can re-dial the
// worker on takeover.
func (s *streamConn) RemoteAddr() string { return s.addr }

// SetDecodeArena switches the receive side to zero-copy batch decoding:
// Batch frames decode straight into the arena's blocks and surface as
// wire.BatchView (see wire.Reader.SetDecodeArena). A node arms it on its
// Conn: a BatchView is the only batch it takes.
func (s *streamConn) SetDecodeArena(a *match.Arena) { s.r.SetDecodeArena(a) }

// SetMatchesBuffer has the receive side read each Matches frame into
// frame(n) (see wire.Reader.SetMatchesBuffer). The ingress arms it on a
// node's Conn when its consumer is done with a frame once the matches in
// it are delivered.
func (s *streamConn) SetMatchesBuffer(frame func(int) []byte) { s.r.SetMatchesBuffer(frame) }

func (s *streamConn) Recv() (wire.Frame, error) {
	f, err := s.r.Read()
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("cluster: recv: %w", err)
	}
	return f, err
}
func (s *streamConn) Close() error { return s.c.Close() }

// SetWriteStall arms (d > 0) or disarms (d <= 0) progress-based write
// stall detection: a Send that makes zero bytes of progress for d fails
// with a link error instead of blocking forever on a blackholed peer.
// Callers probe for this method; a wrapper may hide it.
func (s *streamConn) SetWriteStall(d time.Duration) { s.sc.writeStall.Store(int64(d)) }

// SetReadStall arms (d > 0) or disarms (d <= 0) progress-based read
// stall detection. Unlike the write side this must only stay armed while
// a response is actually owed (an RPC in flight, a handshake reply): an
// idle connection legitimately carries nothing for long stretches.
func (s *streamConn) SetReadStall(d time.Duration) { s.sc.readStall.Store(int64(d)) }

// DialPolicy bounds a TCP dial: a per-attempt connect timeout plus
// bounded exponential backoff with jitter between attempts. The zero
// value means the package defaults (3s timeout, 3 attempts, 50ms base
// backoff capped at 500ms).
type DialPolicy struct {
	Timeout    time.Duration // per-attempt connect timeout
	Attempts   int           // total connect attempts
	Backoff    time.Duration // base wait before the second attempt
	MaxBackoff time.Duration // backoff growth cap
}

func (p DialPolicy) withDefaults() DialPolicy {
	if p.Timeout <= 0 {
		p.Timeout = 3 * time.Second
	}
	if p.Attempts <= 0 {
		p.Attempts = 3
	}
	if p.Backoff <= 0 {
		p.Backoff = 50 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 500 * time.Millisecond
	}
	return p
}

// DialTCPContext connects to a listener under a DialPolicy: each attempt
// gets its own connect timeout, attempts are separated by exponential
// backoff with ±50% jitter (so a herd of redialing coordinators doesn't
// self-synchronize), and the returned error carries the full per-attempt
// trail. The context aborts both connects in flight and backoff waits.
func DialTCPContext(ctx context.Context, addr string, p DialPolicy) (Conn, error) {
	p = p.withDefaults()
	d := net.Dialer{Timeout: p.Timeout}
	backoff := p.Backoff
	var trail []error
	for i := 0; i < p.Attempts; i++ {
		if i > 0 {
			wait := backoff/2 + rand.N(backoff)
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				trail = append(trail, ctx.Err())
				return nil, fmt.Errorf("cluster: dial %s: %w", addr, errors.Join(trail...))
			}
			if backoff *= 2; backoff > p.MaxBackoff {
				backoff = p.MaxBackoff
			}
		}
		c, err := d.DialContext(ctx, "tcp", addr)
		if err == nil {
			return newStreamConn(c, addr), nil
		}
		trail = append(trail, fmt.Errorf("attempt %d: %w", i+1, err))
		if ctx.Err() != nil {
			break
		}
	}
	return nil, fmt.Errorf("cluster: dial %s after %d attempts: %w", addr, len(trail), errors.Join(trail...))
}

// DialTCP connects to a node's listener and returns the framed
// connection, under the default DialPolicy — a bounded dial with
// retries, never the unkillable bare net.Dial it once was.
func DialTCP(addr string) (Conn, error) {
	return DialTCPContext(context.Background(), addr, DialPolicy{})
}

// Dial connects to every node address, in order — the remote
// counterpart of Spawn. On error it closes the connections it made.
func Dial(addrs []string) ([]Conn, error) {
	conns := make([]Conn, 0, len(addrs))
	for _, a := range addrs {
		c, err := DialTCP(a)
		if err != nil {
			for _, open := range conns {
				open.Close()
			}
			return nil, err
		}
		conns = append(conns, c)
	}
	return conns, nil
}

// Listener accepts framed node connections over TCP.
type Listener struct {
	l net.Listener
}

// ListenTCP binds a node listener; pass ":0" (or "127.0.0.1:0" for
// loopback-only) to let the kernel pick a port, then read Addr.
func ListenTCP(addr string) (*Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen %s: %w", addr, err)
	}
	return &Listener{l: l}, nil
}

// Accept waits for the next ingress connection.
func (l *Listener) Accept() (Conn, error) {
	c, err := l.l.Accept()
	if err != nil {
		return nil, err
	}
	return newStreamConn(c, ""), nil
}

// Addr reports the bound address (with the resolved port).
func (l *Listener) Addr() string { return l.l.Addr().String() }

// Close stops accepting.
func (l *Listener) Close() error { return l.l.Close() }
