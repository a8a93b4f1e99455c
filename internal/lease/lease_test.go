package lease

import (
	"context"
	"sync"
	"testing"
	"time"

	"acep/internal/cluster"
	"acep/internal/wire"
)

// fakeClock is a hand-advanced clock for deterministic expiry tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestAcquireFencesNewHolder(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	s := NewAt(clk.now)

	f := s.Acquire(1, time.Second)
	if !f.Granted || f.Holder != 1 || f.Epoch != 1 {
		t.Fatalf("first acquire: %+v", f)
	}
	// Re-acquire by the same holder: granted, same epoch.
	if f = s.Acquire(1, time.Second); !f.Granted || f.Epoch != 1 {
		t.Fatalf("same-holder re-acquire: %+v", f)
	}
	// Contender while the grant is live: denied, remaining TTL reported.
	clk.advance(400 * time.Millisecond)
	f = s.Acquire(2, time.Second)
	if f.Granted {
		t.Fatalf("contender granted over a live lease: %+v", f)
	}
	if f.Holder != 1 || f.LeftMillis == 0 || f.LeftMillis > 600 {
		t.Fatalf("denial fence: %+v", f)
	}
	// Past expiry the contender wins and the epoch advances.
	clk.advance(700 * time.Millisecond)
	f = s.Acquire(2, time.Second)
	if !f.Granted || f.Holder != 2 || f.Epoch != 2 {
		t.Fatalf("post-expiry acquire: %+v", f)
	}
}

func TestRenewCommitsAndFences(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	s := NewAt(clk.now)
	s.Acquire(1, time.Second)

	f := s.Renew(wire.LeaseRenew{Holder: 1, Epoch: 1, TTLMillis: 1000, EmittedUpTo: 500, Count: 42})
	if !f.Granted || f.EmittedUpTo != 500 || f.Count != 42 {
		t.Fatalf("renew: %+v", f)
	}

	// Expiry alone does not invalidate a renew — only a competing
	// acquisition does (expiry matters at acquisition time only).
	clk.advance(5 * time.Second)
	f = s.Renew(wire.LeaseRenew{Holder: 1, Epoch: 1, TTLMillis: 1000, EmittedUpTo: 800, Count: 77})
	if !f.Granted {
		t.Fatalf("expired-but-unclaimed renew denied: %+v", f)
	}

	// A successor takes over; the stale holder's renew is now fenced and
	// the fence carries the committed resume state.
	clk.advance(5 * time.Second)
	if f = s.Acquire(2, time.Second); !f.Granted || f.Epoch != 2 {
		t.Fatalf("successor acquire: %+v", f)
	}
	f = s.Renew(wire.LeaseRenew{Holder: 1, Epoch: 1, TTLMillis: 1000, EmittedUpTo: 900, Count: 99})
	if f.Granted {
		t.Fatal("stale holder renewed through a fence")
	}
	if f.Holder != 2 || f.EmittedUpTo != 800 || f.Count != 77 {
		t.Fatalf("fence state: %+v", f)
	}
}

// TestRenewMonotone: a renew commits its (boundary, count) only past
// the stored pair — a keepalive that raced a drain commit must not roll
// the successor's resume point back. A stale boundary, and an equal
// boundary with a lower or equal count, leave State() as it was; an
// equal boundary with a higher count advances it.
func TestRenewMonotone(t *testing.T) {
	s := New()
	s.Acquire(1, time.Minute)
	renew := func(upTo, count uint64) {
		t.Helper()
		if f := s.Renew(wire.LeaseRenew{Holder: 1, Epoch: 1, TTLMillis: 60_000, EmittedUpTo: upTo, Count: count}); !f.Granted {
			t.Fatalf("renew (%d, %d) denied: %+v", upTo, count, f)
		}
	}
	state := func() [2]uint64 {
		_, _, boundary, count := s.State()
		return [2]uint64{boundary, count}
	}
	renew(800, 77)
	for _, stale := range [][2]uint64{{500, 90}, {800, 70}, {800, 77}} {
		renew(stale[0], stale[1])
		if got := state(); got != [2]uint64{800, 77} {
			t.Fatalf("stale renew %v moved the committed state to %v, want [800 77]", stale, got)
		}
	}
	renew(800, 80)
	if got := state(); got != [2]uint64{800, 80} {
		t.Fatalf("equal boundary with a higher count committed %v, want [800 80]", got)
	}
}

func TestReleaseKeepsBoundary(t *testing.T) {
	s := New()
	s.Acquire(1, time.Minute)
	f := s.Renew(wire.LeaseRenew{Holder: 1, Epoch: 1, EmittedUpTo: 1000, Count: 10}) // TTL 0: release
	if !f.Granted {
		t.Fatalf("release: %+v", f)
	}
	holder, _, boundary, count := s.State()
	if holder != 0 || boundary != 1000 || count != 10 {
		t.Fatalf("post-release state: holder=%d boundary=%d count=%d", holder, boundary, count)
	}
	// Next holder acquires immediately (no TTL wait) and sees the state.
	f = s.Acquire(2, time.Minute)
	if !f.Granted || f.Epoch != 2 || f.EmittedUpTo != 1000 || f.Count != 10 {
		t.Fatalf("post-release acquire: %+v", f)
	}
}

func TestTCPClientServer(t *testing.T) {
	s := New()
	addr, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c1, err := Dial(ctx, addr, cluster.DialPolicy{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := Dial(ctx, addr, cluster.DialPolicy{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	f, err := c1.Acquire(1, 200*time.Millisecond)
	if err != nil || !f.Granted {
		t.Fatalf("acquire over TCP: %+v %v", f, err)
	}
	if f, err = c1.Renew(1, f.Epoch, 200*time.Millisecond, 123, 4); err != nil || !f.Granted {
		t.Fatalf("renew over TCP: %+v %v", f, err)
	}
	// Contender denied while live, then wins via AcquireWait once the
	// holder stops renewing.
	if f, err = c2.Acquire(2, 200*time.Millisecond); err != nil || f.Granted {
		t.Fatalf("contender: %+v %v", f, err)
	}
	f, err = c2.AcquireWait(ctx, 2, 200*time.Millisecond)
	if err != nil || !f.Granted || f.Epoch != 2 {
		t.Fatalf("acquire-wait: %+v %v", f, err)
	}
	if f.EmittedUpTo != 123 || f.Count != 4 {
		t.Fatalf("committed state lost across takeover: %+v", f)
	}
	// The fenced holder's renew now fails as a denial, not an error.
	if f, err = c1.Renew(1, 1, 200*time.Millisecond, 999, 9); err != nil || f.Granted {
		t.Fatalf("fenced renew: %+v %v", f, err)
	}
}

// TestRPCTimesOutOnBlackhole proves the lease client cannot hang on a
// partitioned arbiter: a server that accepts and then never answers must
// surface as an error within the RPC timeout.
func TestRPCTimesOutOnBlackhole(t *testing.T) {
	lst, err := cluster.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lst.Close()
	go func() {
		for {
			c, err := lst.Accept()
			if err != nil {
				return
			}
			_ = c // accept and go silent
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cl, err := Dial(ctx, lst.Addr(), cluster.DialPolicy{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	start := time.Now()
	_, err = cl.Acquire(1, time.Second)
	if err == nil {
		t.Fatal("acquire into a blackhole succeeded")
	}
	if el := time.Since(start); el > 8*time.Second {
		t.Fatalf("blackholed RPC took %v, want ~%v", el, rpcTimeout)
	}
}
