// Package rungtest is the one table every rung above the engines is tested
// against (table.go): rows of a pattern set over a keyed stream, with the
// control events applied mid-stream, and the stream each row must deliver,
// computed once per row on the reference rung — one evaluator per
// partition over the immutable stream itself (StableInput), storage
// nothing ever reuses. Each layer hands the table a Rung from its own
// tests: engine.New, multi.Evaluator, shard.Engine, the in-process cluster
// and the HA pair. A rung's Expect says which rows it cannot run and how
// its stream compares; Run plays every row on every rung that can run it.
package rungtest

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"maps"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"acep/internal/engine"
	"acep/internal/event"
	"acep/internal/match"
	"acep/internal/multi"
	"acep/internal/shard"
	"acep/internal/shed"
	"acep/internal/wire"
)

// Op is a control event applied just before the event it is filed under:
// the addition of Add when non-nil, else the move Migrate when non-nil,
// else the removal of pattern Remove.
type Op struct {
	Add     *multi.Spec
	Remove  uint32
	Migrate *Move
}

// Move is a shard migration: global shard Shard onto node To.
type Move struct{ Shard, To int }

// apply returns the live set after the op.
func (op Op) apply(live []multi.Spec) []multi.Spec {
	switch {
	case op.Add != nil:
		return append(live, *op.Add)
	case op.Migrate != nil:
		return live
	}
	return slices.DeleteFunc(live, func(sp multi.Spec) bool { return sp.ID == op.Remove })
}

// Row is one stream with the set to detect over it, partitioned on the
// attribute "key" across Shards and cut every Batch events.
type Row struct {
	Name   string
	Schema *event.Schema
	Events []event.Event
	// Config is every spec's, so a cluster — whose nodes configure all
	// hosted engines alike — runs the row as the sharded engine does.
	Config  engine.Config
	Specs   []multi.Spec
	Tenants map[uint32]shed.TenantBudget
	Ops     map[int]Op
	Shards  int
	Batch   int
	// Digest, when nonzero, pins the reference's stream, with Matches its
	// length: its digest in delivery order, or as a multiset.
	Matches  int
	Digest   uint64
	Multiset bool
	// exercised reports, from the reference's per-pattern metrics,
	// whether the stream did what the row is named for.
	exercised func(map[uint32]engine.Metrics) error
}

// Solo reports whether the row is one pattern under multi.SoloID with no
// pattern op and no tenant budget: what a pattern argument can host.
func (r Row) Solo() bool {
	for _, op := range r.Ops {
		if op.Migrate == nil {
			return false
		}
	}
	return len(r.Specs) == 1 && r.Specs[0].ID == multi.SoloID && r.Tenants == nil
}

// live returns the ids of the patterns live once every op has applied.
func (r Row) live() []uint32 {
	live := slices.Clone(r.Specs)
	for _, i := range slices.Sorted(maps.Keys(r.Ops)) {
		live = r.Ops[i].apply(live)
	}
	ids := make([]uint32, len(live))
	for i, sp := range live {
		ids[i] = sp.ID
	}
	slices.Sort(ids)
	return ids
}

// WithModel returns the row with every engine, added ones included, on m.
func (r Row) WithModel(m engine.Model) Row {
	r.Config.Model = m
	r.Specs = slices.Clone(r.Specs)
	for i := range r.Specs {
		r.Specs[i].Config.Model = m
	}
	ops := make(map[int]Op, len(r.Ops))
	for i, op := range r.Ops {
		if op.Add != nil {
			sp := *op.Add
			sp.Config.Model = m
			op.Add = &sp
		}
		ops[i] = op
	}
	r.Ops = ops
	return r
}

// WithShards returns the row partitioned across n shards, unpinned: the
// stream it delivers then is the reference's at n.
func (r Row) WithShards(n int) Row {
	r.Shards, r.Digest = n, 0
	return r
}

// Nodes is how many equal nodes the cluster and pair rungs lay the row's
// shards out on: three, else two, else one.
func (r Row) Nodes() int {
	for _, n := range []int{3, 2} {
		if r.Shards%n == 0 {
			return n
		}
	}
	return 1
}

// Record is one delivered match as a consumer of tags tells it apart: the
// tag's Seq, and the wire match record of shard, pattern id and body.
type Record struct {
	Seq          uint64
	Src, Pattern uint32
	Body         []byte
}

// Stream is the records of a run, in delivery order.
type Stream []Record

// keys renders each record as its wire match record, after its Seq
// (little-endian) with seq, and with its shard written as 0 without src.
func (s Stream) keys(seq, src bool) []string {
	out := make([]string, len(s))
	for i, r := range s {
		var b []byte
		if seq {
			b = binary.LittleEndian.AppendUint64(b, r.Seq)
		}
		if !src {
			r.Src = 0
		}
		out[i] = string(wire.AppendMatchRecord(b, r.Src, 0, r.Pattern, r.Body))
	}
	return out
}

// Digest is FNV-64a over the records in delivery order, tags included, or
// over the wire match records alone, sorted: the multiset.
func (s Stream) Digest(multiset bool) uint64 {
	keys := s.keys(!multiset, true)
	if multiset {
		slices.Sort(keys)
	}
	h := fnv.New64a()
	for _, k := range keys {
		h.Write([]byte(k))
	}
	return h.Sum64()
}

// Diff reports where got departs from want, "" if nowhere: record by
// record in delivery order or, untagged, as multisets of pattern and body.
func Diff(got, want Stream, untagged bool) string {
	g, w := got.keys(!untagged, !untagged), want.keys(!untagged, !untagged)
	if untagged {
		slices.Sort(g)
		slices.Sort(w)
	}
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	if i == len(g) && i == len(w) {
		return ""
	}
	return fmt.Sprintf("%d matches vs the reference's %d, first divergence at record %d", len(g), len(w), i)
}

// Require fails the test unless got is want, record for record in
// delivery order.
func Require(tb testing.TB, label string, got, want Stream) {
	tb.Helper()
	if d := Diff(got, want, false); d != "" {
		tb.Fatalf("%s: %s", label, d)
	}
}

// Recorder keeps every match a rung delivers, as delivered, and renders
// them only when asked: after Finish, by when the rung has reused most of
// the storage it ran in many times over, so a comparison also holds the
// contract that a delivered match points into nothing the rung owns.
type Recorder struct {
	mu   sync.Mutex
	kept []shard.Tagged
}

// Tagged is an OnTagged callback. It copies Enc, which out of a sharded
// engine is valid only during the call.
func (r *Recorder) Tagged(tg shard.Tagged) {
	tg.Enc = bytes.Clone(tg.Enc)
	r.mu.Lock()
	r.kept = append(r.kept, tg)
	r.mu.Unlock()
}

// Match records a match delivered without a merge tag.
func (r *Recorder) Match(id uint32, m *match.Match) { r.Tagged(shard.Tagged{Pattern: id, M: m}) }

// Stream renders the matches kept so far.
func (r *Recorder) Stream() Stream {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := make(Stream, len(r.kept))
	for i, tg := range r.kept {
		body := tg.Enc
		if tg.M != nil {
			body = wire.AppendMatchBody(nil, tg.M)
		}
		s[i] = Record{Seq: tg.Seq, Src: uint32(tg.Src), Pattern: tg.Pattern, Body: body}
	}
	return s
}

// Metrics is what a rung reports once finished: the events handed in, and
// the merged metrics of each live pattern, by id.
type Metrics struct {
	Arrived  uint64
	Patterns map[uint32]engine.Metrics
}

// ByID merges per-pattern metrics by pattern id.
func ByID(pms []multi.PatternMetrics) map[uint32]engine.Metrics {
	out := make(map[uint32]engine.Metrics)
	for _, pm := range pms {
		m := out[pm.ID]
		m.Merge(pm.M)
		out[pm.ID] = m
	}
	return out
}

// Expect is what a rung cannot run, and how its stream compares to the
// reference's — which is by default record for record, tags included.
type Expect struct {
	// Solo: the rung hosts one pattern through its pattern argument, so
	// it runs only the rows Row.Solo accepts.
	Solo bool
	// The rung cannot add or remove a pattern, move a shard, or budget a
	// tenant.
	NoPatternOps, NoMigrate, NoTenants bool
	// Untagged: the rung delivers no merge tags, and its matches compare
	// as a multiset.
	Untagged bool
	// NoArrivals: the rung is offered only what its partitions read, and
	// counts no event arriving.
	NoArrivals bool
}

// The rungs' declarations, each the Expect of its package's rung.
var (
	Engine    = Expect{NoPatternOps: true, NoMigrate: true, NoTenants: true, Untagged: true}
	Evaluator = Expect{NoMigrate: true, NoArrivals: true}
	Sharded   = Expect{NoMigrate: true}
	Cluster   = Expect{}
	Pair      = Expect{Solo: true}
	ladder    = []Expect{Engine, Evaluator, Sharded, Cluster, Pair}
)

// Runs reports whether a rung so declared can run the row.
func (e Expect) Runs(r Row) bool {
	if e.Solo && !r.Solo() || e.NoTenants && r.Tenants != nil {
		return false
	}
	for _, op := range r.Ops {
		if op.Migrate != nil && e.NoMigrate || op.Migrate == nil && e.NoPatternOps {
			return false
		}
	}
	return true
}

// check holds a rung's metrics to what it delivered: each live pattern
// was offered events and counts the matches delivered for it, and every
// event handed in arrived, once, however many patterns the row hosts.
func (e Expect) check(tb testing.TB, row Row, got Stream, m Metrics) {
	tb.Helper()
	if !e.NoArrivals && m.Arrived != uint64(len(row.Events)) {
		tb.Fatalf("metrics saw %d events arrive, the stream has %d", m.Arrived, len(row.Events))
	}
	delivered := make(map[uint32]uint64)
	for _, r := range got {
		delivered[r.Pattern]++
	}
	live := row.live()
	if ids := slices.Sorted(maps.Keys(m.Patterns)); !slices.Equal(ids, live) {
		tb.Fatalf("metrics cover patterns %v, the live set is %v", ids, live)
	}
	for _, id := range live {
		if pm := m.Patterns[id]; pm.Events == 0 || pm.Matches != delivered[id] {
			tb.Fatalf("pattern %d: metrics count %d events and %d matches; %d delivered", id, pm.Events, pm.Matches, delivered[id])
		}
	}
}

// Rung is one layer's system under the table.
type Rung struct {
	Name   string
	Expect Expect
	// Run plays the row, control events included, delivering every match
	// to rec, and reports once finished.
	Run func(t *testing.T, row Row, rec *Recorder) Metrics
}

// Run plays every row of the table on each rung that can run it, against
// the reference's stream, computed once per row.
func Run(t *testing.T, rungs ...Rung) {
	for _, row := range Rows(t) {
		var reach []Rung
		for _, r := range rungs {
			if r.Expect.Runs(row) {
				reach = append(reach, r)
			}
		}
		if len(reach) == 0 {
			continue
		}
		t.Run(row.Name, func(t *testing.T) {
			want := Reference(t, row)
			for _, r := range reach {
				t.Run(r.Name, func(t *testing.T) {
					var rec Recorder
					m := r.Run(t, row, &rec)
					got := rec.Stream()
					if d := Diff(got, want, r.Expect.Untagged); d != "" {
						t.Fatal(d)
					}
					r.Expect.check(t, row, got, m)
				})
			}
		})
	}
}

// Lookup returns the table's row of that name.
func Lookup(tb testing.TB, name string) Row {
	tb.Helper()
	for _, row := range Rows(tb) {
		if row.Name == name {
			return row
		}
	}
	tb.Fatalf("no row %q in the table", name)
	return Row{}
}

// Reference is the row's stream on the reference rung: the row's set over
// each partition on an evaluator that owns no storage — the immutable
// stream is the storage (StableInput), so there is no block to reuse. It
// fails the test when the row is vacuous, departs from its pin, or did
// not do what it is named for.
func Reference(tb testing.TB, row Row) Stream {
	tb.Helper()
	var rec Recorder
	set := Analyze(tb, row)
	m := Partitioned(tb, row, &rec, func(onMatch func(uint32, *match.Match)) *multi.Evaluator {
		v, err := multi.NewEvaluator(set, multi.Options{Budgets: row.Tenants, StableInput: true, OnMatch: onMatch})
		if err != nil {
			tb.Fatal(err)
		}
		return v
	}, (*multi.Evaluator).Process)
	s := rec.Stream()
	switch {
	case row.Digest != 0:
		if d := s.Digest(row.Multiset); len(s) != row.Matches || d != row.Digest {
			tb.Fatalf("%d matches, digest %#x; recorded %d, %#x", len(s), d, row.Matches, row.Digest)
		}
	case len(s) < 20:
		tb.Fatalf("the reference found %d matches; the row is vacuous", len(s))
	}
	if row.exercised != nil {
		if err := row.exercised(m.Patterns); err != nil {
			tb.Fatalf("not exercised: %v", err)
		}
	}
	return s
}

// Analyze is the row's initial set, analyzed.
func Analyze(tb testing.TB, row Row) *multi.Set {
	tb.Helper()
	set, err := multi.Analyze(row.Specs, row.Schema)
	if err != nil {
		tb.Fatal(err)
	}
	return set
}

// Partitioned plays the row as the routers do, without a router: each
// event goes, in stream order, to the evaluator of the partition its key
// lands on, unless no live pattern reads its type (multi.ReadsOf); each
// pattern op goes to every evaluator first, and a move changes nothing a
// partition sees. A match is tagged as a shard worker tags it: the Seq of
// the last event its partition was offered, math.MaxUint64 at Finish.
// open builds one partition's evaluator, delivering through onMatch; feed
// hands it one event. A partition's matches of one step leave in a shard
// worker's canonical order: by pattern id, then by their events' sequence
// numbers, position by position.
func Partitioned(tb testing.TB, row Row, rec *Recorder, open func(onMatch func(uint32, *match.Match)) *multi.Evaluator, feed func(*multi.Evaluator, *event.Event)) Metrics {
	tb.Helper()
	key, err := shard.ByAttrName(row.Schema, "key")
	if err != nil {
		tb.Fatal(err)
	}
	type emitted struct {
		id uint32
		m  *match.Match
	}
	var step []emitted
	flush := func(seq uint64, g int) {
		slices.SortStableFunc(step, func(a, b emitted) int {
			if a.id != b.id {
				return cmp.Compare(a.id, b.id)
			}
			if c := cmpSeqs(a.m.Events, b.m.Events); c != 0 {
				return c
			}
			return slices.CompareFunc(a.m.Kleene, b.m.Kleene, cmpSeqs)
		})
		for _, e := range step {
			rec.Tagged(shard.Tagged{Seq: seq, Src: g, Pattern: e.id, M: e.m})
		}
		step = step[:0]
	}
	evals := make([]*multi.Evaluator, row.Shards)
	for g := range evals {
		evals[g] = open(func(id uint32, m *match.Match) { step = append(step, emitted{id, m}) })
	}
	live := slices.Clone(row.Specs)
	reads := multi.ReadsOf(live)
	for i := range row.Events {
		if op, ok := row.Ops[i]; ok && op.Migrate == nil {
			for _, v := range evals {
				if op.Add != nil {
					err = v.Add(*op.Add)
				} else {
					err = v.Remove(op.Remove)
				}
				if err != nil {
					tb.Fatal(err)
				}
			}
			live = op.apply(live)
			reads = multi.ReadsOf(live)
		}
		ev := &row.Events[i]
		if !reads.Has(ev.Type) {
			continue
		}
		g := shard.GlobalIndex(key(ev), row.Shards)
		feed(evals[g], ev)
		flush(ev.Seq, g)
	}
	var pms []multi.PatternMetrics
	for g, v := range evals {
		v.Finish()
		flush(math.MaxUint64, g)
		pms = append(pms, v.Metrics()...)
	}
	return Metrics{Patterns: ByID(pms)}
}

// cmpSeqs compares position-aligned events by sequence number, an empty
// (residual) position first: every stream numbers its events from 1.
func cmpSeqs(a, b []*event.Event) int {
	seq := func(ev *event.Event) uint64 {
		if ev == nil {
			return 0
		}
		return ev.Seq
	}
	return slices.CompareFunc(a, b, func(x, y *event.Event) int { return cmp.Compare(seq(x), seq(y)) })
}

// Finish returns what finish returns, and fails the test if it has not
// returned within a minute: the hang guard of every run that finishes
// across connections.
func Finish(tb testing.TB, finish func() error) error {
	tb.Helper()
	done := make(chan error, 1)
	go func() { done <- finish() }()
	select {
	case err := <-done:
		return err
	case <-time.After(time.Minute):
		tb.Fatal("Finish hung")
		return nil
	}
}
