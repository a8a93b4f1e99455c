// Package chaos is the deterministic failure-injection layer: seeded
// wrappers around a frame connection that drop, duplicate, delay and
// reorder frames, blackhole a direction (one-way partition), wedge the
// peer (accepts a connection, reads nothing), or sever the link — the
// faults real deployments see, made reproducible enough to assert
// byte-identity through.
//
// The package grew out of the test-only doubles the kill matrices used
// (a send-budget flaky link, a scripted peer) and promotes them to a
// first-class tool shared by tests, `acep-bench chaos-*` and
// `acep-run -chaos`.
//
// Safety doctrine: silent drops, duplicates and reordering are only
// meaningful on links whose protocol detects or tolerates them — the
// replication link does (the dense ReplCut.Cut ordinal turns a
// duplicate into a re-ack, a gap into a detected link failure). The
// strictly-ordered ingress↔worker links would simply desynchronize, so
// inject only delay, partition, wedge or sever there.
//
// chaos deliberately defines its own structural Conn interface (the
// same three methods as cluster.Conn) and imports only internal/wire:
// cluster's own in-package tests can then use chaos without an import
// cycle, and interface values convert in both directions for free.
package chaos

import (
	"fmt"
	"io"
	"math/rand/v2"
	"strconv"
	"strings"
	"sync"
	"time"

	"acep/internal/wire"
)

// Conn is the frame-connection surface chaos wraps and presents —
// structurally identical to cluster.Conn, so either assigns to the
// other without conversion.
type Conn interface {
	Send(wire.Frame) error
	Recv() (wire.Frame, error)
	Close() error
}

// Config shapes the randomized fault stream. All probabilities are in
// [0, 1] and are rolled per Send in a fixed order from the seeded
// generator, so a given (Config, frame sequence) always injects the
// same faults — chaos runs are replayable.
type Config struct {
	Seed        uint64        // generator seed; same seed, same faults
	DropProb    float64       // silently drop the frame (repl link only)
	DupProb     float64       // send the frame twice (repl link only)
	ReorderProb float64       // hold the frame, send the next one first (repl link only)
	DelayProb   float64       // sleep before sending
	MaxDelay    time.Duration // delay magnitude bound (uniform in (0, MaxDelay])
}

// Stats counts the faults a wrapper actually injected.
type Stats struct {
	Drops, Dups, Reorders, Delays uint64
}

// Wrapper injects faults according to a Config and responds to the
// explicit fault controls (Partition/Wedge/Sever/Heal). Send obeys the
// package-wide single-sender contract; Recv may run concurrently with
// Send, and the controls may be called from any goroutine.
type Wrapper struct {
	c Conn

	mu       sync.Mutex
	cond     *sync.Cond
	rng      *rand.Rand
	cfg      Config
	held     wire.Frame // reorder slot
	heldSet  bool
	sendCut  bool // outbound blackhole: Send succeeds, frame vanishes
	recvCut  bool // inbound blackhole: received frames are discarded
	wedged   bool // Send blocks until Heal or Close
	closed   bool
	severErr error
	stats    Stats
}

// Wrap returns a fault-injecting view of c.
func Wrap(c Conn, cfg Config) *Wrapper {
	w := &Wrapper{c: c, cfg: cfg, rng: rand.New(rand.NewPCG(cfg.Seed, 0x9e3779b97f4a7c15))}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// Partition blackholes both directions: sends succeed but vanish,
// received frames are discarded. This is a *silent* partition — neither
// endpoint sees an error — which is exactly what makes it the hard case
// the lease protocol exists for.
func (w *Wrapper) Partition() {
	w.mu.Lock()
	w.sendCut, w.recvCut = true, true
	w.mu.Unlock()
}

// PartitionSend blackholes the outbound direction only.
func (w *Wrapper) PartitionSend() {
	w.mu.Lock()
	w.sendCut = true
	w.mu.Unlock()
}

// Wedge makes Send block (a peer that accepted the connection and
// stopped reading; the socket buffer has filled). Heal or Close unblock.
func (w *Wrapper) Wedge() {
	w.mu.Lock()
	w.wedged = true
	w.mu.Unlock()
}

// Sever fails the link with an explicit error: the underlying
// connection closes and every subsequent Send and Recv returns the
// error. Unlike Partition, both endpoints notice.
func (w *Wrapper) Sever(err error) {
	if err == nil {
		err = fmt.Errorf("chaos: link severed")
	}
	w.mu.Lock()
	w.severErr = err
	w.mu.Unlock()
	w.c.Close()
	w.cond.Broadcast()
}

// Heal lifts partitions and wedges (a severed link stays severed).
func (w *Wrapper) Heal() {
	w.mu.Lock()
	w.sendCut, w.recvCut, w.wedged = false, false, false
	w.mu.Unlock()
	w.cond.Broadcast()
}

// Stats reports the faults injected so far.
func (w *Wrapper) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

func (w *Wrapper) Send(f wire.Frame) error {
	w.mu.Lock()
	for w.wedged && !w.closed && w.severErr == nil {
		w.cond.Wait()
	}
	if err := w.deadLocked(); err != nil {
		w.mu.Unlock()
		return err
	}
	if w.sendCut {
		w.mu.Unlock()
		return nil // silent blackhole: the caller believes it sent
	}
	// Roll faults in a fixed order so the stream stays deterministic.
	var out [2]wire.Frame
	n := 0
	switch {
	case w.cfg.DropProb > 0 && w.rng.Float64() < w.cfg.DropProb:
		w.stats.Drops++
	case w.cfg.DupProb > 0 && w.rng.Float64() < w.cfg.DupProb:
		w.stats.Dups++
		out[0], out[1] = f, f
		n = 2
	case w.cfg.ReorderProb > 0 && !w.heldSet && w.rng.Float64() < w.cfg.ReorderProb:
		w.stats.Reorders++
		w.held, w.heldSet = f, true
	default:
		out[0] = f
		n = 1
	}
	if n > 0 && w.heldSet && n < 2 {
		// A held frame rides out right after the one that overtook it.
		out[1] = w.held
		w.held, w.heldSet = nil, false
		n = 2
	}
	var nap time.Duration
	if w.cfg.DelayProb > 0 && w.cfg.MaxDelay > 0 && w.rng.Float64() < w.cfg.DelayProb {
		w.stats.Delays++
		nap = time.Duration(w.rng.Int64N(int64(w.cfg.MaxDelay))) + 1
	}
	w.mu.Unlock()
	if nap > 0 {
		time.Sleep(nap)
	}
	for i := 0; i < n; i++ {
		if err := w.c.Send(out[i]); err != nil {
			return err
		}
	}
	return nil
}

func (w *Wrapper) Recv() (wire.Frame, error) {
	for {
		// Check the sever state before blocking in the underlying Recv:
		// Close unblocks a socket read, but a transport whose Close only
		// half-closes (or a link already severed before the first Recv)
		// must still surface the error instead of waiting on a peer that
		// will never speak.
		w.mu.Lock()
		if serr := w.severErr; serr != nil {
			w.mu.Unlock()
			return nil, serr
		}
		w.mu.Unlock()
		f, err := w.c.Recv()
		w.mu.Lock()
		if serr := w.severErr; serr != nil {
			w.mu.Unlock()
			return nil, serr
		}
		cut := w.recvCut
		w.mu.Unlock()
		if err != nil {
			return nil, err
		}
		if cut {
			continue // inbound blackhole: the frame arrived, nobody saw it
		}
		return f, nil
	}
}

func (w *Wrapper) deadLocked() error {
	if w.severErr != nil {
		return w.severErr
	}
	if w.closed {
		return io.ErrClosedPipe
	}
	return nil
}

func (w *Wrapper) Close() error {
	w.mu.Lock()
	var flush wire.Frame
	if w.heldSet && !w.sendCut && w.severErr == nil && !w.closed {
		flush, w.held, w.heldSet = w.held, nil, false
	}
	w.closed = true
	w.mu.Unlock()
	w.cond.Broadcast()
	if flush != nil {
		w.c.Send(flush) // best effort: a reorder hold must not become a drop on clean close
	}
	return w.c.Close()
}

// Flaky passes frames through until Budget sends have happened, then
// fails every Send and severs the underlying link — the classic
// "link died mid-stream" double from the kill matrices. Not safe for
// concurrent Send (matching the Conn contract).
type Flaky struct {
	C      Conn
	Budget int
}

func (f *Flaky) Send(fr wire.Frame) error {
	if f.Budget <= 0 {
		f.C.Close()
		return fmt.Errorf("chaos: injected send failure")
	}
	f.Budget--
	return f.C.Send(fr)
}

func (f *Flaky) Recv() (wire.Frame, error) { return f.C.Recv() }
func (f *Flaky) Close() error              { return f.C.Close() }

// Script replays a fixed frame sequence and swallows sends; it fakes a
// misbehaving peer in handshake tests.
type Script struct {
	Frames []wire.Frame
}

func (s *Script) Send(wire.Frame) error { return nil }
func (s *Script) Recv() (wire.Frame, error) {
	if len(s.Frames) == 0 {
		return nil, io.EOF
	}
	f := s.Frames[0]
	s.Frames = s.Frames[1:]
	return f, nil
}
func (s *Script) Close() error { return nil }

// ParseSpec parses the command-line chaos grammar shared by acep-run
// -chaos and acep-bench: a comma-separated list of
//
//	seed=N  drop=P  dup=P  reorder=P  delay=P:DUR
//
// e.g. "seed=7,drop=0.01,delay=0.2:20ms". Empty string is a zero Config.
func ParseSpec(s string) (Config, error) {
	var cfg Config
	if s == "" {
		return cfg, nil
	}
	for _, part := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return cfg, fmt.Errorf("chaos: bad spec element %q (want k=v)", part)
		}
		switch k {
		case "seed":
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return cfg, fmt.Errorf("chaos: seed: %w", err)
			}
			cfg.Seed = n
		case "drop", "dup", "reorder":
			p, err := parseProb(v)
			if err != nil {
				return cfg, fmt.Errorf("chaos: %s: %w", k, err)
			}
			switch k {
			case "drop":
				cfg.DropProb = p
			case "dup":
				cfg.DupProb = p
			case "reorder":
				cfg.ReorderProb = p
			}
		case "delay":
			ps, ds, ok := strings.Cut(v, ":")
			if !ok {
				return cfg, fmt.Errorf("chaos: delay wants P:DUR, got %q", v)
			}
			p, err := parseProb(ps)
			if err != nil {
				return cfg, fmt.Errorf("chaos: delay: %w", err)
			}
			d, err := time.ParseDuration(ds)
			if err != nil || d <= 0 {
				return cfg, fmt.Errorf("chaos: delay duration %q", ds)
			}
			cfg.DelayProb, cfg.MaxDelay = p, d
		default:
			return cfg, fmt.Errorf("chaos: unknown spec key %q", k)
		}
	}
	return cfg, nil
}

func parseProb(s string) (float64, error) {
	p, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("probability %v outside [0,1]", p)
	}
	return p, nil
}
