package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"acep/internal/engine"
	"acep/internal/event"
	"acep/internal/gen"
	"acep/internal/match"
	"acep/internal/multi"
	"acep/internal/pattern"
	"acep/internal/shard"
)

const (
	// stampBlock is how many events the feeder hands in per time stamp.
	// Detection latency is measured from the stamp of the block holding a
	// match's newest event, so one clock read serves 64 events.
	stampBlock = 64
	// feedChunk is the events per feed span of a traced pass.
	feedChunk = 4096
	// stallFactor times the median cut time is the line above which a cut
	// counts as the feeder having been blocked by backpressure.
	stallFactor = 10
	// batch is the events per cut on every layer that cuts.
	batch = 256
	// prefixEvents is the stream prefix the initial statistics are taken
	// from. stats.Exact is quadratic: 50,000 events would cost 10 s.
	prefixEvents = 5000
	// minMatches is the floor below which a pass proves nothing.
	minMatches = 1000
)

// inputs is everything a pass needs that set-up prepared: one stream, the
// pattern or pattern set over it, the engine configuration carrying the
// prefix statistics, and the reference digest every pass must reproduce.
type inputs struct {
	w     *gen.Workload
	pat   *pattern.Pattern // nil for a pattern set
	specs []multi.Spec
	cfg   engine.Config
	ref   digest
}

// sink receives what a system under test delivers during one pass.
type sink struct {
	t0        time.Time
	stamps    []atomic.Int64 // per stampBlock: hand-in time, ns since t0
	d         digest
	lat       []float64     // per match: delivery time minus its block's stamp, ms
	delivered atomic.Uint64 // matches so far, for the feeder to read
	progress  atomic.Uint64 // newest sequence number a progress callback covered
}

func newSink(events int, expectMatches uint64) *sink {
	return &sink{
		stamps: make([]atomic.Int64, events/stampBlock+1),
		lat:    make([]float64, 0, expectMatches+expectMatches/8+64),
	}
}

// deliver is the match callback of every system. It runs on the
// system's delivery goroutine, one call at a time.
func (s *sink) deliver(id uint32, m *match.Match) {
	now := time.Since(s.t0)
	s.d.add(keyHash(id, m))
	var newest uint64
	for _, ev := range m.Events {
		if ev != nil && ev.Seq > newest {
			newest = ev.Seq
		}
	}
	if newest > 0 {
		stamp := s.stamps[(newest-1)/stampBlock].Load()
		s.lat = append(s.lat, float64(int64(now)-stamp)/1e6)
	}
	s.delivered.Add(1)
}

func (s *sink) onMatch(m *match.Match)  { s.deliver(0, m) }
func (s *sink) onTagged(t shard.Tagged) { s.deliver(t.Pattern, t.M) }
func (s *sink) onProgress(seq uint64)   { s.progress.Store(seq) }

// system is one constructed system under test, reduced to the calls the
// feeder makes. finish drains and is timed; teardown releases listeners
// and waits for the goroutines the builder started, and is not.
type system struct {
	process     func(*event.Event)
	finish      func() error
	teardown    func() error
	metrics     func() engine.Metrics
	hasProgress bool // the layer reports progress, so in-flight depth is known
}

// builder constructs a fresh system wired to the sink.
type builder func(in *inputs, s *sink) (*system, error)

// result is what one timed region measured.
type result struct {
	events     int
	wall       time.Duration
	cpu        time.Duration // user+system, whole process
	allocBytes uint64
	allocs     uint64
	lat        []float64 // sorted, ms
	failed     uint64    // events shed, queue-dropped or late-dropped
	digestOK   bool
	d          digest
	em         engine.Metrics
	construct  time.Duration
	finish     time.Duration
	stallShare float64 // share of the feed spent in cuts > stallFactor x the median cut
	inflight   float64 // median over blocks of events fed minus events covered by progress
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure builds one system, feeds it the whole stream and finishes it.
// The timed region runs from the first Process call until Finish
// returns; construction and teardown lie outside it. With a tracer the
// pass also leaves spans and samples in-flight depth.
func measure(r rung, in *inputs, tr *tracer, pass int) (result, error) {
	evs := in.w.Events
	res := result{events: len(evs)}
	s := newSink(len(evs), in.ref.n)
	root := tr.begin(r.name, -1, pass)

	id := tr.begin("construct", root, pass)
	t := time.Now()
	sys, err := r.build(in, s)
	if err != nil {
		return res, fmt.Errorf("%s: construct: %w", r.name, err)
	}
	res.construct = time.Since(t)
	tr.end(id)

	var inflight []float64
	if tr != nil && sys.hasProgress {
		inflight = make([]float64, 0, len(s.stamps))
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	s.t0 = time.Now()
	for lo := 0; lo < len(evs); lo += feedChunk {
		hi := min(lo+feedChunk, len(evs))
		id := tr.begin("feed", root, pass)
		before := s.delivered.Load()
		for i := lo; i < hi; i++ {
			if i%stampBlock == 0 {
				s.stamps[i/stampBlock].Store(int64(time.Since(s.t0)))
				if inflight != nil {
					inflight = append(inflight, float64(int64(i)-int64(s.progress.Load())))
				}
			}
			sys.process(&evs[i])
		}
		if sp := tr.end(id); sp != nil {
			sp.Events = hi - lo
			sp.Delivered = s.delivered.Load() - before
			if sys.hasProgress {
				lag := int64(hi) - int64(s.progress.Load())
				sp.InFlight = &lag
			}
		}
	}
	fed := time.Since(s.t0)
	id = tr.begin("finish", root, pass)
	before := s.delivered.Load()
	err = sys.finish()
	res.wall = time.Since(s.t0)
	res.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	if sp := tr.end(id); sp != nil {
		sp.Delivered = s.delivered.Load() - before
	}
	if err != nil {
		return res, fmt.Errorf("%s: finish: %w", r.name, err)
	}
	res.finish = res.wall - fed
	res.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	res.allocs = ms1.Mallocs - ms0.Mallocs

	id = tr.begin("teardown", root, pass)
	err = sys.teardown()
	tr.end(id)
	if err != nil {
		return res, fmt.Errorf("%s: teardown: %w", r.name, err)
	}
	tr.end(root)

	res.em = sys.metrics()
	res.failed = res.em.EventsShed + res.em.QueueDropped + res.em.LateDropped
	res.d = s.d
	if r.ordered {
		res.digestOK = s.d == in.ref
	} else {
		res.digestOK = s.d.sameSet(in.ref)
	}
	sort.Float64s(s.lat)
	res.lat = s.lat
	res.stallShare = stallShare(s.stamps[:(len(evs)+stampBlock-1)/stampBlock], int64(fed))
	if len(inflight) > 0 {
		res.inflight = median(inflight)
	}
	return res, nil
}

// stallShare is the share of the feed time spent in cuts (batch events,
// so each holds exactly one handoff) that took more than stallFactor
// times the median cut: time the feeder spent blocked on a full queue or
// socket rather than handing events in.
func stallShare(stamps []atomic.Int64, fedNS int64) float64 {
	const step = batch / stampBlock
	var durs []float64
	for i := 0; i < len(stamps); i += step {
		end := fedNS
		if i+step < len(stamps) {
			end = stamps[i+step].Load()
		}
		durs = append(durs, float64(end-stamps[i].Load()))
	}
	if len(durs) < 2 || fedNS <= 0 {
		return 0
	}
	line := stallFactor * median(durs)
	stalled := 0.0
	for _, d := range durs {
		if d > line {
			stalled += d
		}
	}
	return stalled / float64(fedNS)
}

// merge folds the timed regions of one pass (engine-adapt has two) into
// one result: times, counts and samples add up.
func merge(parts []result) result {
	out := parts[0]
	for _, p := range parts[1:] {
		out.events += p.events
		out.wall += p.wall
		out.cpu += p.cpu
		out.allocBytes += p.allocBytes
		out.allocs += p.allocs
		out.lat = append(out.lat, p.lat...)
		out.failed += p.failed
		out.digestOK = out.digestOK && p.digestOK
		out.d.n += p.d.n
		out.em.Merge(p.em)
		out.construct += p.construct
		out.finish += p.finish
	}
	if len(parts) > 1 {
		sort.Float64s(out.lat)
	}
	return out
}

func (r result) eventsPerS() float64 { return float64(r.events) / r.wall.Seconds() }
func (r result) cpuUSPerEvent() float64 {
	return float64(r.cpu.Nanoseconds()) / 1e3 / float64(r.events)
}
func (r result) allocBytesPerEvent() float64 { return float64(r.allocBytes) / float64(r.events) }
func (r result) allocsPerEvent() float64     { return float64(r.allocs) / float64(r.events) }
func (r result) latencyMS(q float64) float64 { return quantile(r.lat, q) }
func ms(d time.Duration) float64             { return float64(d.Nanoseconds()) / 1e6 }

// over returns the per-pass values of one measure.
func over(rs []result, f func(result) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}
