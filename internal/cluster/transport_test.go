package cluster

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"acep/internal/engine"
	"acep/internal/rungtest"
	"acep/internal/wire"
)

// TestDialRetryTrail: a dial against a dead port runs the full bounded
// attempt schedule and surfaces every attempt in the error — the
// per-attempt trail a degraded takeover needs to explain itself.
func TestDialRetryTrail(t *testing.T) {
	// Bind-then-close guarantees an unserved port.
	l, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr()
	l.Close()
	_, err = DialTCPContext(context.Background(), addr, DialPolicy{
		Timeout: 200 * time.Millisecond, Attempts: 3,
		Backoff: 5 * time.Millisecond, MaxBackoff: 10 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("dialing a closed port succeeded")
	}
	for _, want := range []string{"after 3 attempts", "attempt 1", "attempt 3"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("dial error %q missing %q", err, want)
		}
	}
}

// TestDialContextAborts: cancelling the context ends the retry schedule
// early instead of running out the remaining backoff waits.
func TestDialContextAborts(t *testing.T) {
	l, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr()
	l.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = DialTCPContext(ctx, addr, DialPolicy{
		Timeout: 100 * time.Millisecond, Attempts: 10,
		Backoff: 400 * time.Millisecond, MaxBackoff: time.Second,
	})
	if err == nil {
		t.Fatal("dial under a cancelled context succeeded")
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("cancelled dial took %v, should abort within the context window", el)
	}
}

// TestReadStallWedgedPeer: an armed read-stall probe turns a peer that
// sends nothing into a link error instead of an indefinite block.
func TestReadStallWedgedPeer(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	conn := newStreamConn(a, "")
	conn.SetReadStall(200 * time.Millisecond)
	start := time.Now()
	_, err := conn.Recv()
	if err == nil || !strings.Contains(err.Error(), "read stalled") {
		t.Fatalf("Recv from a silent peer returned %v, want a read-stall error", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("stall detection took %v, window was 200ms", el)
	}
}

// TestReadStallToleratesLatePeer: a peer that answers within the stall
// window is not a stall — the sliced deadlines must not misfire on
// ordinary latency.
func TestReadStallToleratesLatePeer(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	conn := newStreamConn(a, "")
	conn.SetReadStall(time.Second)
	go func() {
		time.Sleep(100 * time.Millisecond)
		b.Write(wire.Append(nil, wire.Watermark{UpTo: 7}))
	}()
	f, err := conn.Recv()
	if err != nil {
		t.Fatalf("Recv with a merely slow peer: %v", err)
	}
	if w, ok := f.(wire.Watermark); !ok || w.UpTo != 7 {
		t.Fatalf("got %#v, want Watermark{7}", f)
	}
}

// TestWriteStallWedgedPeer: an armed write-stall probe fails a Send into
// a peer that accepts zero bytes (net.Pipe is unbuffered, so an absent
// reader models a wedged process exactly).
func TestWriteStallWedgedPeer(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	conn := newStreamConn(a, "")
	conn.SetWriteStall(200 * time.Millisecond)
	err := conn.Send(wire.Watermark{UpTo: 1})
	if err == nil || !strings.Contains(err.Error(), "write stalled") {
		t.Fatalf("Send into a wedged peer returned %v, want a write-stall error", err)
	}
}

// TestWriteStallToleratesSlowReader: progress resets the stall clock —
// a reader draining a trickle per deadline slice never trips the error,
// even when the whole write takes longer than the stall window.
func TestWriteStallToleratesSlowReader(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	conn := newStreamConn(a, "")
	conn.SetWriteStall(200 * time.Millisecond)
	// A frame several times larger than the per-read trickle.
	big := wire.ReplCut{UpTo: 1, Cut: 1, Addrs: []string{strings.Repeat("x", 4096)}}
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 256)
		for {
			if _, err := b.Read(buf); err != nil {
				return
			}
			time.Sleep(30 * time.Millisecond) // slower than a slice, faster than the window
		}
	}()
	if err := conn.Send(big); err != nil {
		t.Fatalf("Send to a slow-but-progressing reader: %v", err)
	}
	a.Close()
	<-done
}

// TestNodeWedgedIngressFailsSession: the node's upstream sender sits
// behind a mutex; a coordinator that stops reading (wedged process,
// one-way partition) used to block that mutex forever and wedge the
// session with it. With writeStall armed the session must end in a link
// error instead.
func TestNodeWedgedIngressFailsSession(t *testing.T) {
	row := rungtest.Lookup(t, "pinned/sequence-300")
	pat := row.Specs[0].Pattern
	node, err := NewNode(NodeConfig{
		Pattern: pat, Schema: row.Schema, KeyAttr: "key",
		Engine: engine.Config{CheckEvery: 250}, Shards: 1, Batch: 64,
		writeStall: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, b := net.Pipe()
	defer b.Close()
	served := make(chan error, 1)
	go func() { served <- node.Serve(newStreamConn(a, "")) }()
	ing := newStreamConn(b, "")
	if f, err := ing.Recv(); err != nil {
		t.Fatalf("hello: %v", err)
	} else if _, ok := f.(wire.Hello); !ok {
		t.Fatalf("expected hello, got %s", wire.KindOf(f))
	}
	if err := ing.Send(wire.Assign{
		Total: 1, Schema: row.Schema, Patterns: []wire.PatternEntry{{Pattern: pat}},
	}); err != nil {
		t.Fatalf("assign: %v", err)
	}
	// Wedge: stop reading entirely, then make the node owe us frames. A
	// cut-carrying batch forces a heartbeat + watermark upstream, which
	// blocks on the unbuffered pipe until the stall probe fires.
	if err := ing.Send(wire.Batch{UpTo: 64}); err != nil {
		t.Fatalf("batch: %v", err)
	}
	select {
	case err := <-served:
		if err == nil || !strings.Contains(err.Error(), "stalled") {
			t.Fatalf("wedged-ingress session returned %v, want a write-stall link error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("node session still wedged 10s after the ingress stopped reading")
	}
}
