package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// pass share its pass id; a pass's own span has parent -1 and is the
// parent of its construct, feed, finish and teardown spans. Times are
// nanoseconds since the tracer was created.
//
// The counts are taken where the span ends: events handed in during the
// span, matches the delivery callback received during it, and (where the
// layer reports progress) how many events had been fed but not yet
// covered by a progress callback at its end. Delivery and progress
// callbacks are counted rather than recorded one by one: a traced run
// sees about two million of them, and a file of that size would cost
// more to write than the run it describes.
type span struct {
	ID        int    `json:"id"`
	Parent    int    `json:"parent"`
	Pass      int    `json:"pass"`
	Name      string `json:"name"`
	StartNS   int64  `json:"start_ns"`
	EndNS     int64  `json:"end_ns"`
	Events    int    `json:"events,omitempty"`
	Delivered uint64 `json:"delivered,omitempty"`
	InFlight  *int64 `json:"inflight_events,omitempty"`
}

// tracer keeps spans in memory until the run ends. Only the feeder
// goroutine records, so it needs no lock.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// begin opens a span and returns its id; a nil tracer records nothing.
func (t *tracer) begin(name string, parent, pass int) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Pass: pass, Name: name, StartNS: t.now()})
	return id
}

// end closes the span and returns it for the caller to attach counts.
func (t *tracer) end(id int) *span {
	if t == nil {
		return nil
	}
	s := &t.spans[id]
	s.EndNS = t.now()
	return s
}

// selfTime is the span's duration minus the part of it its child spans
// cover (overlapping children are counted once).
func selfTime(spans []span, id int) time.Duration {
	p := spans[id]
	type iv struct{ lo, hi int64 }
	var kids []iv
	for _, s := range spans {
		if s.Parent != id {
			continue
		}
		lo, hi := max(s.StartNS, p.StartNS), min(s.EndNS, p.EndNS)
		if hi > lo {
			kids = append(kids, iv{lo, hi})
		}
	}
	sort.Slice(kids, func(a, b int) bool { return kids[a].lo < kids[b].lo })
	covered, edge := int64(0), p.StartNS
	for _, k := range kids {
		if k.hi <= edge {
			continue
		}
		covered += k.hi - max(k.lo, edge)
		edge = k.hi
	}
	return time.Duration(p.EndNS - p.StartNS - covered)
}

// traceFile is what a traced run leaves behind.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

func (t *tracer) write(path, workload string, seed int64) error {
	b, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Spans: t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
