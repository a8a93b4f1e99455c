package cluster

import (
	"encoding/binary"
	"io"
	"math"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"acep/internal/engine"
	"acep/internal/event"
	"acep/internal/match"
	"acep/internal/multi"
	"acep/internal/pattern"
	"acep/internal/wire"
)

// resultFixture is a stream that completes a match every third event —
// a keyed SEQ(A, B, C), stream K's shape, with types A, B, C in turn, three
// events to a key and keys recurring further apart than the window — so
// every cut does the same work and sends some 85 matches back: the way
// out is what the cut costs above the engines.
type resultFixture struct {
	schema *event.Schema
	pat    *pattern.Pattern
}

const resultCut = 256

func newResultFixture() resultFixture {
	s := event.NewSchema()
	pb := pattern.NewBuilder(s, pattern.Seq, 100)
	for _, name := range []string{"A", "B", "C"} {
		pb.Event(s.MustAddType(name, "key"))
	}
	pb.WhereEq(0, "key", 1, "key").WhereEq(1, "key", 2, "key")
	return resultFixture{schema: s, pat: pb.MustBuild()}
}

// set makes ev the stream's i-th event, reusing its attribute storage: the
// harness must not allocate inside a measured region.
func (resultFixture) set(ev *event.Event, i int) {
	ev.Type, ev.TS, ev.Seq = i%3, event.Time(i), uint64(i+1)
	ev.Attrs = append(ev.Attrs[:0], float64(i/3%64))
}

func (f resultFixture) node(tb testing.TB) *Node {
	n, err := NewNode(NodeConfig{
		Pattern: f.pat, Schema: f.schema, KeyAttr: "key", Shards: 1,
		Engine: engine.Config{CheckEvery: 1 << 30},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return n
}

// soloNode serves a node alone over ListenTCP and speaks the ingress's
// side of the session on the raw socket: frames go down pre-encoded, and
// the node's frames are walked, not decoded, so the harness allocates
// nothing while a cut is measured.
type soloNode struct {
	tb     testing.TB
	c      net.Conn
	served chan error
	head   [5]byte // a field, not a local: a local escapes through io.ReadFull
	body   []byte
}

// startSolo connects to n, reads its hello and assigns it the one shard
// of a one-shard space hosting pat. Reads fail after a minute.
func startSolo(tb testing.TB, n *Node, s *event.Schema, pat *pattern.Pattern) *soloNode {
	l, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	h := &soloNode{tb: tb, served: make(chan error, 1)}
	go func() {
		defer l.Close()
		c, err := l.Accept()
		if err != nil {
			h.served <- err
			return
		}
		h.served <- n.Serve(c)
	}()
	if h.c, err = net.Dial("tcp", l.Addr()); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { h.c.Close() })
	h.c.SetReadDeadline(time.Now().Add(time.Minute)) //nolint:errcheck // a failed deadline fails no read
	if k, _ := h.next(); k != wire.KindHello {
		tb.Fatalf("node opened with a %v frame, want hello", k)
	}
	h.send(wire.Append(nil, wire.Assign{
		Total: 1, Schema: s, KeyAttr: "key",
		Patterns: []wire.PatternEntry{{ID: multi.SoloID, Pattern: pat}},
	}))
	return h
}

// encodeCuts encodes the Batch frames of n cuts of batch events each, the
// i-th event of the stream written by set.
func encodeCuts(n, batch int, set func(ev *event.Event, i int)) [][]byte {
	frames := make([][]byte, n)
	var enc wire.RunEncoder
	var ev event.Event
	for c := range frames {
		for k := 0; k < batch; k++ {
			set(&ev, c*batch+k)
			enc.Append(&ev)
		}
		frames[c] = wire.Append(nil, wire.BatchRaw{UpTo: uint64((c + 1) * batch), Run: enc.Seal(0).Body})
		enc.Reset(false)
	}
	return frames
}

func (h *soloNode) send(frame []byte) {
	if _, err := h.c.Write(frame); err != nil {
		h.tb.Fatal(err)
	}
}

// next reads the node's next frame: its kind and body, the body valid
// until the next call.
func (h *soloNode) next() (wire.Kind, []byte) {
	if _, err := io.ReadFull(h.c, h.head[:]); err != nil {
		h.tb.Fatalf("reading the node's frames: %v", err)
	}
	n := int(binary.LittleEndian.Uint32(h.head[:4])) - 1 // the length counts the kind
	if cap(h.body) < n {
		h.body = make([]byte, n)
	}
	h.body = h.body[:n]
	if _, err := io.ReadFull(h.c, h.body); err != nil {
		h.tb.Fatalf("reading the node's frames: %v", err)
	}
	return wire.Kind(h.head[4]), h.body
}

// await reads frames until a Matches frame whose watermark reaches upTo
// and returns the matches those frames carried.
func (h *soloNode) await(upTo uint64) (matches int) {
	for {
		k, body := h.next()
		if k != wire.KindMatches {
			continue
		}
		w, n := binary.Uvarint(body)
		count, _ := binary.Uvarint(body[n:])
		if matches += int(count); w >= upTo {
			return matches
		}
	}
}

// finish ends the session and requires it to end cleanly.
func (h *soloNode) finish() {
	h.send(wire.Append(nil, wire.Finish{}))
	for k, _ := h.next(); k != wire.KindMetrics; k, _ = h.next() {
	}
	if err := <-h.served; err != nil {
		h.tb.Fatalf("node session: %v", err)
	}
}

// cluster starts two one-shard nodes behind an ingress, over Pipe or a
// dialed listener, and returns a function feeding one cut and waiting
// until its matches have been delivered, with the count of matches
// delivered so far.
func (f resultFixture) cluster(tb testing.TB, tcp bool) (ing *Ingress, cut func(), delivered *atomic.Int64) {
	conns := make([]Conn, 2)
	for i := range conns {
		n := f.node(tb)
		if !tcp {
			client, server := Pipe()
			go n.Serve(server) //nolint:errcheck // Finish reports a failed session
			conns[i] = client
			continue
		}
		l, err := ListenTCP("127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		go func() {
			defer l.Close()
			if c, err := l.Accept(); err == nil {
				n.Serve(c) //nolint:errcheck // Finish reports a failed session
			}
		}()
		if conns[i], err = DialTCP(l.Addr()); err != nil {
			tb.Fatal(err)
		}
	}
	delivered = new(atomic.Int64)
	done := make(chan uint64, 1024)
	ing, err := NewIngress(f.pat, conns, IngressOptions{
		Batch: resultCut, KeyAttr: "key", Schema: f.schema,
		OnMatch:    func(*match.Match) { delivered.Add(1) },
		OnProgress: func(w uint64) { done <- w },
	})
	if err != nil {
		tb.Fatal(err)
	}
	next, seen, ev := 0, uint64(0), new(event.Event)
	return ing, func() {
		for k := 0; k < resultCut; k++ {
			f.set(ev, next)
			ing.Process(ev)
			next++
		}
		for seen < uint64(next) {
			seen = <-done
		}
	}, delivered
}

// mallocs reports the objects the process has allocated so far, on every
// goroutine.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// framesPerCut is what a cut costs a two-node cluster in allocations
// whatever it carries, both directions and both sides of each link
// together. The way in, per node: the boxing of the run's and the
// watermark's Batch frames, the send goroutine's closure; on the node the
// boxing of its heartbeat and, every fourth cut, its load report. The way
// out, per node: the boxing of the Matches frame on the node and at the
// ingress, which decodes it (the frame's buffer and the tag slice the
// reader posts come back from the collector). Fifteen a node leaves room
// for the scheduler (a pooled block, outbox or ingress run returned a
// moment late is made anew); the point of the bound is what it does not
// scale with.
const framesPerCut = 2 * 15

// TestResultPathAllocs pins the way out of the cluster: a match is decoded
// once, where the consumer takes it, into the slabs of the ingress's
// match.Keeper — a few hundredths of an object a match — and between the
// worker's encode and that decode nothing is allocated per match: not on the worker, whose outbox
// comes back; not on the node, which copies bodies into one frame; not at
// the reader, the collector or the delivery, which carry the frame's
// bytes. The node leg runs a node alone over a socket and holds a cut to a
// constant however many matches it sends; the cluster legs count every
// allocation of the process, per delivered match.
func TestResultPathAllocs(t *testing.T) {
	f := newResultFixture()
	t.Run("node", func(t *testing.T) {
		h := startSolo(t, f.node(t), f.schema, f.pat)
		frames := encodeCuts(32+51, resultCut, f.set) // encoded up front
		next, got := 0, 0
		cut := func() {
			h.send(frames[next])
			next++
			got += h.await(uint64(next * resultCut))
		}
		for next < 32 {
			cut()
		}
		before := got
		// Heartbeat, Matches and (every fourth cut) load report, boxed: 2
		// a cut as measured. The rest is for the race detector's build,
		// where the engines' estimators reopen a histogram class through a
		// temporary (stats.EH.Add) that the plain build optimises away, 4 a
		// cut on this stream.
		const bound = 8
		avg := testing.AllocsPerRun(50, cut)
		if perCut := float64(got-before) / 51; perCut < 80 {
			t.Fatalf("%.1f matches per cut: the stream no longer exercises the result path", perCut)
		} else if avg > bound {
			t.Errorf("a cut sending %.1f matches allocated %.1f objects on the node, want at most %d", perCut, avg, bound)
		}
		h.finish()
	})
	for name, tcp := range map[string]bool{"pipe": false, "tcp": true} {
		t.Run(name, func(t *testing.T) {
			ing, cut, delivered := f.cluster(t, tcp)
			for i := 0; i < 32; i++ {
				cut()
			}
			// The count is the whole process's, so whatever else allocates
			// during a window — the runtime, another test's goroutine still
			// winding down — lands in it: the least of three windows is the
			// result path's.
			const cuts = 200
			perMatch := math.Inf(1)
			for range 3 {
				m0, d0 := mallocs(), delivered.Load()
				for i := 0; i < cuts; i++ {
					cut()
				}
				objects, matches := float64(mallocs()-m0), float64(delivered.Load()-d0)
				if matches/cuts < 80 {
					t.Fatalf("%.1f matches per cut: the stream no longer exercises the result path", matches/cuts)
				}
				window := (objects - cuts*framesPerCut) / matches
				t.Logf("%.0f objects for %.0f matches over %d cuts: %.2f a match beyond %d a cut",
					objects, matches, cuts, window, framesPerCut)
				perMatch = min(perMatch, window)
			}
			if err := ing.Finish(); err != nil {
				t.Fatal(err)
			}
			if perMatch > 0.1 {
				t.Errorf("%.2f objects per delivered match beyond the %d a cut may cost, want at most 0.1: a decode allocates per keeper slab", perMatch, framesPerCut)
			}
		})
	}
}

// TestNodeSendsReleasedResults is ROADMAP defect (g): a node sends a cut's
// results when its collector releases them, not with the next frame it
// handles. The ingress side here sends one cut and then waits: the cut's
// Matches frame must arrive without another frame going down.
func TestNodeSendsReleasedResults(t *testing.T) {
	f := newResultFixture()
	h := startSolo(t, f.node(t), f.schema, f.pat)
	h.c.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck // a failed deadline fails no read
	h.send(encodeCuts(1, resultCut, f.set)[0])
	if got := h.await(resultCut); got < 80 {
		t.Fatalf("the cut's results carried %d matches, want the 85 it completes", got)
	}
	h.finish()
}

// BenchmarkResultPath runs the matching stream through a two-node
// in-process cluster, one cut per iteration, and reports what a delivered match
// costs in bytes and objects over everything the process allocates — the
// quick before-and-after of the result path. CI runs it as a smoke.
func BenchmarkResultPath(b *testing.B) {
	f := newResultFixture()
	ing, cut, delivered := f.cluster(b, false)
	for i := 0; i < 32; i++ {
		cut()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	bytes0, objs0, d0 := ms.TotalAlloc, ms.Mallocs, delivered.Load()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cut()
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	if matches := float64(delivered.Load() - d0); matches > 0 {
		b.ReportMetric(float64(ms.TotalAlloc-bytes0)/matches, "B/match")
		b.ReportMetric(float64(ms.Mallocs-objs0)/matches, "allocs/match")
	} else {
		b.Fatal("no match was delivered")
	}
	if err := ing.Finish(); err != nil {
		b.Fatal(err)
	}
}
