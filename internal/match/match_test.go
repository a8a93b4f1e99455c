package match

import (
	"testing"

	"acep/internal/event"
	"acep/internal/pattern"
)

func mkSchema() *event.Schema {
	s := event.NewSchema()
	s.MustAddType("A", "x")
	s.MustAddType("B", "x")
	s.MustAddType("C", "x")
	return s
}

var seqCounter uint64

func ev(s *event.Schema, typ int, ts event.Time, x float64) *event.Event {
	seqCounter++
	e := s.MustNew(typ, ts, x)
	e.Seq = seqCounter
	return &e
}

func TestBufferAddScanPrune(t *testing.T) {
	s := mkSchema()
	var b Buffer
	for ts := event.Time(1); ts <= 10; ts++ {
		b.Add(ev(s, 0, ts, 0))
	}
	if b.Len() != 10 {
		t.Fatalf("Len = %d", b.Len())
	}
	var got []event.Time
	b.Scan(3, 7, false, false, func(e *event.Event) bool {
		got = append(got, e.TS)
		return true
	})
	if len(got) != 5 || got[0] != 3 || got[4] != 7 {
		t.Fatalf("inclusive scan = %v", got)
	}
	got = got[:0]
	b.Scan(3, 7, true, true, func(e *event.Event) bool {
		got = append(got, e.TS)
		return true
	})
	if len(got) != 3 || got[0] != 4 || got[2] != 6 {
		t.Fatalf("exclusive scan = %v", got)
	}
	// Early stop.
	n := 0
	stopped := b.Scan(1, 10, false, false, func(e *event.Event) bool {
		n++
		return n < 3
	})
	if stopped || n != 3 {
		t.Fatalf("early stop: stopped=%v n=%d", stopped, n)
	}
	b.Prune(5)
	if b.Len() != 6 { // ts 5..10 survive
		t.Fatalf("after prune Len = %d", b.Len())
	}
	got = got[:0]
	b.All(func(e *event.Event) bool {
		got = append(got, e.TS)
		return true
	})
	if got[0] != 5 {
		t.Fatalf("All after prune starts at %d", got[0])
	}
}

func TestBufferCompaction(t *testing.T) {
	s := mkSchema()
	var b Buffer
	for ts := event.Time(1); ts <= 400; ts++ {
		b.Add(ev(s, 0, ts, 0))
	}
	b.Prune(395)
	if b.Len() != 6 {
		t.Fatalf("Len = %d", b.Len())
	}
	// Compaction must have reset start.
	if b.start != 0 {
		t.Fatalf("start = %d; want compacted 0", b.start)
	}
}

// TestBufferSmallReleasesDeadPrefix: small buffers compact too — with one
// buffer per join key, dead prefixes that waited for a size threshold
// would pin an old arena chunk each.
func TestBufferSmallReleasesDeadPrefix(t *testing.T) {
	s := mkSchema()
	var b Buffer
	for ts := event.Time(1); ts <= 6; ts++ {
		b.Add(ev(s, 0, ts, 0))
	}
	backing := b.evs[:cap(b.evs)]
	b.Prune(4) // three dead, three live
	if b.start != 0 || b.Len() != 3 || backing[3] != nil {
		t.Fatalf("start %d len %d after pruning half; want compacted with the tail cleared", b.start, b.Len())
	}
	b.Prune(100)
	if b.start != 0 || len(b.evs) != 0 || backing[0] != nil {
		t.Fatal("a buffer pruned empty still holds events")
	}
}

func TestBufferCopyInto(t *testing.T) {
	s := mkSchema()
	var a, b Buffer
	for ts := event.Time(1); ts <= 5; ts++ {
		a.Add(ev(s, 0, ts, 0))
	}
	a.Prune(3)
	a.CopyInto(&b)
	if b.Len() != 3 {
		t.Fatalf("copied %d; want 3", b.Len())
	}
}

func seqPat(s *event.Schema) *pattern.Pattern {
	b := pattern.NewBuilder(s, pattern.Seq, 100)
	a := b.EventName("A")
	bb := b.EventName("B")
	b.WhereEq(a, "x", bb, "x")
	return b.MustBuild()
}

func TestPairOKWindowAndOrder(t *testing.T) {
	s := mkSchema()
	pat := seqPat(s)
	var np uint64
	a := ev(s, 0, 10, 1)
	b := ev(s, 1, 20, 1)
	if !PairOK(pat, pat.Window, 0, a, 1, b, &np) {
		t.Error("valid pair rejected")
	}
	// Argument order must not matter.
	if !PairOK(pat, pat.Window, 1, b, 0, a, &np) {
		t.Error("swapped valid pair rejected")
	}
	// SEQ order violated: B before A.
	b2 := ev(s, 1, 5, 1)
	if PairOK(pat, pat.Window, 0, a, 1, b2, &np) {
		t.Error("out-of-order pair accepted")
	}
	// Equal timestamps do not satisfy SEQ.
	b3 := ev(s, 1, 10, 1)
	if PairOK(pat, pat.Window, 0, a, 1, b3, &np) {
		t.Error("equal-timestamp pair accepted for SEQ")
	}
	// Window violated.
	b4 := ev(s, 1, 200, 1)
	if PairOK(pat, pat.Window, 0, a, 1, b4, &np) {
		t.Error("out-of-window pair accepted")
	}
	// Predicate violated.
	b5 := ev(s, 1, 20, 2)
	if PairOK(pat, pat.Window, 0, a, 1, b5, &np) {
		t.Error("predicate-failing pair accepted")
	}
	// Same event twice.
	if PairOK(pat, pat.Window, 0, a, 1, a, &np) {
		t.Error("same event accepted twice")
	}
	if np == 0 {
		t.Error("predicate evaluations not counted")
	}
}

func TestPairOKAndPattern(t *testing.T) {
	s := mkSchema()
	b := pattern.NewBuilder(s, pattern.And, 100)
	b.EventName("A")
	b.EventName("B")
	pat := b.MustBuild()
	var np uint64
	a := ev(s, 0, 50, 1)
	bb := ev(s, 1, 10, 1)
	// AND has no order constraint.
	if !PairOK(pat, pat.Window, 0, a, 1, bb, &np) {
		t.Error("AND pair rejected on order")
	}
}

func TestUnaryOK(t *testing.T) {
	s := mkSchema()
	b := pattern.NewBuilder(s, pattern.Seq, 100)
	a := b.EventName("A")
	b.EventName("B")
	b.WhereConst(a, "x", pattern.GT, 5)
	pat := b.MustBuild()
	var np uint64
	if !UnaryOK(pat, 0, ev(s, 0, 1, 10), &np) {
		t.Error("passing event rejected")
	}
	if UnaryOK(pat, 0, ev(s, 0, 1, 3), &np) {
		t.Error("failing event accepted")
	}
	if np != 2 {
		t.Errorf("pred evals = %d; want 2", np)
	}
}

func TestMatchKeySpanString(t *testing.T) {
	s := mkSchema()
	a := ev(s, 0, 10, 1)
	b := ev(s, 1, 30, 1)
	m := &Match{Events: []*event.Event{a, nil, b}}
	if m.Key() == "" || m.Key() != m.Key() {
		t.Error("Key not stable")
	}
	lo, hi := m.Span()
	if lo != 10 || hi != 30 {
		t.Errorf("Span = %d,%d", lo, hi)
	}
	if m.String() == "" {
		t.Error("empty String")
	}
	mk := &Match{Events: []*event.Event{a, nil}, Kleene: [][]*event.Event{nil, {b}}}
	if mk.String() == "" {
		t.Error("empty Kleene String")
	}
}

// negSeqPat builds SEQ(A, ~B, C) with B.x == A.x.
func negSeqPat(s *event.Schema) *pattern.Pattern {
	b := pattern.NewBuilder(s, pattern.Seq, 100)
	a := b.EventName("A")
	n := b.EventName("B")
	c := b.EventName("C")
	_ = c
	b.Negate(n)
	b.WhereEq(n, "x", a, "x")
	return b.MustBuild()
}

func collectResolver(pat *pattern.Pattern) (*Resolver, *[]*Match) {
	var out []*Match
	r := NewResolver(pat, func(m *Match) { out = append(out, m) })
	return r, &out
}

func TestResolverNoResiduals(t *testing.T) {
	s := mkSchema()
	pat := seqPat(s)
	r, out := collectResolver(pat)
	if r.HasResiduals() {
		t.Fatal("unexpected residuals")
	}
	core := []*event.Event{ev(s, 0, 1, 1), ev(s, 1, 2, 1)}
	r.OnCoreComplete(core, 2)
	if len(*out) != 1 || r.Emitted != 1 {
		t.Fatalf("emitted %d", len(*out))
	}
}

func TestResolverNegationMiddle(t *testing.T) {
	s := mkSchema()
	pat := negSeqPat(s)
	r, out := collectResolver(pat)

	// Case 1: no negated B in scope -> match survives (scope closed:
	// neighbours A@10, C@20 both present, watermark 20).
	a := ev(s, 0, 10, 7)
	c := ev(s, 2, 20, 0)
	r.OnCoreComplete([]*event.Event{a, nil, c}, 20)
	if len(*out) != 1 {
		t.Fatalf("clean match not emitted: %d", len(*out))
	}

	// Case 2: matching B between A and C kills the match.
	a2 := ev(s, 0, 30, 7)
	bKill := ev(s, 1, 35, 7)
	c2 := ev(s, 2, 40, 0)
	r.Observe(bKill)
	r.OnCoreComplete([]*event.Event{a2, nil, c2}, 40)
	if len(*out) != 1 {
		t.Fatalf("negated match emitted: %d", len(*out))
	}
	if r.Dropped != 1 {
		t.Fatalf("Dropped = %d", r.Dropped)
	}

	// Case 3: B with wrong attribute does not kill.
	a3 := ev(s, 0, 50, 7)
	bOther := ev(s, 1, 55, 9) // x != 7
	c3 := ev(s, 2, 60, 0)
	r.Observe(bOther)
	r.OnCoreComplete([]*event.Event{a3, nil, c3}, 60)
	if len(*out) != 2 {
		t.Fatalf("non-matching negation killed match: %d", len(*out))
	}

	// Case 4: B outside the (A,C) scope does not kill.
	a4 := ev(s, 0, 70, 7)
	c4 := ev(s, 2, 80, 0)
	bLate := ev(s, 1, 85, 7) // after C
	r.Observe(bLate)
	r.OnCoreComplete([]*event.Event{a4, nil, c4}, 85)
	if len(*out) != 3 {
		t.Fatalf("out-of-scope negation killed match: %d", len(*out))
	}
}

func TestResolverNegationLastDelays(t *testing.T) {
	s := mkSchema()
	// SEQ(A, C, ~B): negation scope stays open until A.TS + window.
	b := pattern.NewBuilder(s, pattern.Seq, 100)
	a := b.EventName("A")
	c := b.EventName("C")
	n := b.EventName("B")
	_ = c
	b.Negate(n)
	b.WhereEq(n, "x", a, "x")
	pat := b.MustBuild()
	r, out := collectResolver(pat)

	aev := ev(s, 0, 10, 7)
	cev := ev(s, 2, 20, 0)
	r.OnCoreComplete([]*event.Event{aev, cev, nil}, 20)
	if len(*out) != 0 || r.PendingCount() != 1 {
		t.Fatalf("match not parked: out=%d pending=%d", len(*out), r.PendingCount())
	}
	// A matching B arrives inside the open scope.
	r.Observe(ev(s, 1, 50, 7))
	// Scope closes at minTS+W = 110; ready at 111.
	r.Advance(110)
	if r.PendingCount() != 1 {
		t.Fatal("resolved before scope closed")
	}
	r.Advance(111)
	if r.PendingCount() != 0 {
		t.Fatal("not resolved after scope closed")
	}
	if len(*out) != 0 || r.Dropped != 1 {
		t.Fatalf("negated pending match emitted: out=%d dropped=%d", len(*out), r.Dropped)
	}

	// Second pending with no B: emitted at close.
	a2 := ev(s, 0, 200, 3)
	c2 := ev(s, 2, 210, 0)
	r.OnCoreComplete([]*event.Event{a2, c2, nil}, 210)
	r.Advance(301)
	if len(*out) != 1 {
		t.Fatalf("clean pending match not emitted: %d", len(*out))
	}
}

func TestResolverKleene(t *testing.T) {
	s := mkSchema()
	// SEQ(A, B*, C), B.x == A.x.
	b := pattern.NewBuilder(s, pattern.Seq, 100)
	a := b.EventName("A")
	k := b.EventName("B")
	b.EventName("C")
	b.Kleene(k)
	b.WhereEq(k, "x", a, "x")
	pat := b.MustBuild()
	r, out := collectResolver(pat)

	aev := ev(s, 0, 10, 7)
	b1 := ev(s, 1, 12, 7)
	b2 := ev(s, 1, 14, 7)
	bWrong := ev(s, 1, 16, 9)
	cev := ev(s, 2, 20, 0)
	r.Observe(b1)
	r.Observe(b2)
	r.Observe(bWrong)
	r.OnCoreComplete([]*event.Event{aev, nil, cev}, 20)
	if len(*out) != 1 {
		t.Fatalf("kleene match not emitted: %d", len(*out))
	}
	set := (*out)[0].Kleene[1]
	if len(set) != 2 || set[0] != b1 || set[1] != b2 {
		t.Fatalf("kleene set = %v", set)
	}

	// No B in scope: match dropped.
	a2 := ev(s, 0, 200, 5)
	c2 := ev(s, 2, 210, 0)
	r.OnCoreComplete([]*event.Event{a2, nil, c2}, 210)
	if len(*out) != 1 || r.Dropped != 1 {
		t.Fatalf("empty kleene emitted: out=%d dropped=%d", len(*out), r.Dropped)
	}
}

func TestResolverAndScope(t *testing.T) {
	s := mkSchema()
	// AND(A, C, ~B): scope is [maxTS-W, minTS+W].
	b := pattern.NewBuilder(s, pattern.And, 100)
	b.EventName("A")
	b.EventName("C")
	n := b.EventName("B")
	b.Negate(n)
	pat := b.MustBuild()
	r, out := collectResolver(pat)

	aev := ev(s, 0, 150, 0)
	cev := ev(s, 2, 100, 0)
	// B at 60: dt to A = 90 <= W, dt to C = 40 <= W -> in scope, kills.
	r.Observe(ev(s, 1, 60, 0))
	r.OnCoreComplete([]*event.Event{aev, cev, nil}, 150)
	r.Advance(201) // scope closes at minTS+W = 200
	if len(*out) != 0 || r.Dropped != 1 {
		t.Fatalf("AND negation failed: out=%d dropped=%d", len(*out), r.Dropped)
	}

	// B at 40: dt to A = 110 > W -> out of scope.
	a2 := ev(s, 0, 350, 0)
	c2 := ev(s, 2, 300, 0)
	r.Observe(ev(s, 1, 240, 0))
	r.OnCoreComplete([]*event.Event{a2, c2, nil}, 350)
	r.Advance(401)
	if len(*out) != 1 {
		t.Fatalf("out-of-scope AND negation killed match: %d", len(*out))
	}
}

func TestResolverFlush(t *testing.T) {
	s := mkSchema()
	b := pattern.NewBuilder(s, pattern.Seq, 100)
	b.EventName("A")
	n := b.EventName("B")
	b.Negate(n)
	pat := b.MustBuild()
	r, out := collectResolver(pat)
	r.OnCoreComplete([]*event.Event{ev(s, 0, 10, 0), nil}, 10)
	if r.PendingCount() != 1 {
		t.Fatal("not parked")
	}
	r.Flush()
	if r.PendingCount() != 0 || len(*out) != 1 {
		t.Fatalf("flush failed: pending=%d out=%d", r.PendingCount(), len(*out))
	}
}

func TestResolverSeedFrom(t *testing.T) {
	s := mkSchema()
	pat := negSeqPat(s)
	old, _ := collectResolver(pat)
	kill := ev(s, 1, 35, 7)
	old.Observe(kill)

	fresh, out := collectResolver(pat)
	fresh.SeedFrom(old)
	// The seeded negative event must veto a post-migration match.
	a := ev(s, 0, 30, 7)
	c := ev(s, 2, 40, 0)
	fresh.OnCoreComplete([]*event.Event{a, nil, c}, 40)
	if len(*out) != 0 || fresh.Dropped != 1 {
		t.Fatalf("seeded negation ignored: out=%d dropped=%d", len(*out), fresh.Dropped)
	}
}

func TestResolverObserveFiltersUnary(t *testing.T) {
	s := mkSchema()
	b := pattern.NewBuilder(s, pattern.Seq, 100)
	b.EventName("A")
	n := b.EventName("B")
	b.Negate(n)
	b.WhereConst(n, "x", pattern.GT, 10)
	pat := b.MustBuild()
	r, out := collectResolver(pat)
	r.Observe(ev(s, 1, 15, 5)) // fails unary, must not be buffered
	r.OnCoreComplete([]*event.Event{ev(s, 0, 10, 0), nil}, 15)
	r.Advance(200)
	if len(*out) != 1 {
		t.Fatalf("unary-failing negation killed match: %d", len(*out))
	}
}
