// Package multi is the pattern-set registry and shared-evaluation
// layer: it sits between ingestion and the per-pattern engines, analyzes
// the registered pattern set at compile time to factor out work the
// patterns have in common, and gates each tenant's patterns behind a
// token-bucket budget (see internal/shed). Every sharded or clustered
// session hosts its patterns through an Evaluator; a single pattern is
// the set of one (Solo), which shares nothing and costs one mask
// composition per event over a bare engine.
//
// Three kinds of sharing are detected (the "global plan" setting of
// Kolchinsky & Schuster's join-query-ordering work, applied to this
// paper's evaluation structures):
//
//   - Common unary predicates. Every distinct (type, attribute, op,
//     constant) unary predicate across the whole set is evaluated at most
//     once per event; the verdicts are composed into the per-pattern
//     position masks the engines already consume (pattern.MaskValid), so
//     a predicate shared by 100 patterns costs one comparison instead of
//     100.
//
//   - Shared SEQ prefixes. Patterns whose first j core positions agree
//     exactly — same types, same unary predicates, same intra-prefix
//     pairwise predicates, same tenant — are grouped behind one prefix
//     runner: a core-only NFA over the common prefix that detects every
//     prefix assignment once and publishes it to all subscribing
//     patterns, which skip those positions entirely and resume from
//     seeded partial matches (nfa.Engine.SetSharedPrefix/Seed). The
//     runner's window is the widest subscriber window; Seed filters
//     per-subscriber, so each pattern's match set is provably identical
//     to independent evaluation.
//
//   - Suffix classes. Group members that differ only in their suffix
//     positions' unary predicates share one suffix automaton, fed the OR
//     of their masks; each keeps the completions its own predicates pass,
//     so its match multiset is again that of independent evaluation.
//
// Sharing never crosses tenants for prefix runners (a runner can only
// serve patterns that see the same post-shed stream), while unary
// verdicts are shed-independent and safely shared set-wide.
package multi

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"acep/internal/engine"
	"acep/internal/event"
	"acep/internal/pattern"
)

// Spec registers one pattern: a set-unique id, the owning tenant, the
// pattern itself, and the engine configuration used when the pattern is
// evaluated independently (group members run a fixed-plan NFA instead;
// see Evaluator). Config.OnMatch/ExternalEvents/OwnedEmit are managed by
// the evaluator and ignored here.
type Spec struct {
	ID      uint32
	Tenant  uint32
	Pattern *pattern.Pattern
	Config  engine.Config
}

// SoloID is the pattern id the single-pattern entry points of the shard
// and cluster layers register their pattern under.
const SoloID uint32 = 0

// Solo is the set of one: pat under SoloID, tenant 0, evaluated with cfg.
func Solo(pat *pattern.Pattern, cfg engine.Config) []Spec {
	return []Spec{{ID: SoloID, Pattern: pat, Config: cfg}}
}

// Reads is the set of event types a pattern set reads, indexed by type.
type Reads []bool

// ReadsOf reports, per event type, whether a pattern of specs has a
// position of that type — core, negated or Kleene, in any disjunct of an
// OR. An event of any other type can neither join a match nor change
// one, so the shard and cluster routers offer no shard such an event (see
// DESIGN.md "Batched ingestion").
func ReadsOf(specs []Spec) Reads {
	var r Reads
	var visit func(p *pattern.Pattern)
	visit = func(p *pattern.Pattern) {
		for _, sub := range p.Subs {
			visit(sub)
		}
		for _, pos := range p.Positions {
			if pos.Type >= len(r) {
				r = append(r, make(Reads, pos.Type+1-len(r))...)
			}
			r[pos.Type] = true
		}
	}
	for _, sp := range specs {
		visit(sp.Pattern)
	}
	return r
}

// Has reports whether the set reads events of type t.
func (r Reads) Has(t int) bool { return t >= 0 && t < len(r) && r[t] }

// PrefixGroup is one shared-prefix subscription: Members (indices into
// the analyzed spec slice) share the pattern Prefix over their first Len
// core positions. Classes lists those that share one suffix automaton
// (see suffixClasses); a member in no class runs its own.
type PrefixGroup struct {
	Prefix  *pattern.Pattern
	Len     int
	Tenant  uint32
	Members []int
	Classes [][]int
}

// Set is the compile-time analysis of a pattern set.
type Set struct {
	Specs  []Spec
	Groups []PrefixGroup

	schema *event.Schema
	preds  []globalPred
	predID map[predKey]int
	member []int // member[i] = group index of spec i, or -1
}

// globalPred is one distinct unary predicate in the set-wide table.
type globalPred struct {
	typ int
	cu  pattern.CUnary
}

type predKey struct {
	typ  int
	attr int
	op   pattern.CmpOp
	c    uint64 // float bits
}

// Report summarizes the analysis for diagnostics and benchmarks.
type Report struct {
	Patterns        int
	TotalUnary      int // unary predicate instances across all patterns
	DistinctUnary   int // entries in the shared verdict table
	Groups          int
	GroupedPatterns int
	Classes         int // suffix classes
	ClassedPatterns int // patterns a suffix class serves
}

func (r Report) String() string {
	return fmt.Sprintf("multi: %d patterns, %d/%d unary preds distinct, %d prefix groups covering %d patterns, %d suffix classes serving %d",
		r.Patterns, r.DistinctUnary, r.TotalUnary, r.Groups, r.GroupedPatterns, r.Classes, r.ClassedPatterns)
}

// Analyze inspects the pattern set and builds its sharing structure. The
// specs must carry distinct IDs and non-nil patterns valid against the
// schema, which is required.
func Analyze(specs []Spec, schema *event.Schema) (*Set, error) {
	if schema == nil {
		return nil, fmt.Errorf("multi: Analyze needs the patterns' schema")
	}
	s := &Set{
		Specs:  append([]Spec(nil), specs...),
		schema: schema,
		predID: make(map[predKey]int),
		member: make([]int, len(specs)),
	}
	seen := make(map[uint32]bool)
	for i, sp := range s.Specs {
		if sp.Pattern == nil {
			return nil, fmt.Errorf("multi: spec %d (id %d) has nil pattern", i, sp.ID)
		}
		if seen[sp.ID] {
			return nil, fmt.Errorf("multi: duplicate pattern id %d", sp.ID)
		}
		seen[sp.ID] = true
		s.member[i] = -1
		s.registerPreds(sp.Pattern)
	}
	if err := s.group(); err != nil {
		return nil, err
	}
	return s, nil
}

// registerPreds folds a pattern's unary predicates into the global
// verdict table (recursing into OR disjuncts).
func (s *Set) registerPreds(p *pattern.Pattern) {
	if p.Op == pattern.Or {
		for _, sub := range p.Subs {
			s.registerPreds(sub)
		}
		return
	}
	for i, pos := range p.Positions {
		for _, cu := range p.Unary(i) {
			s.internPred(pos.Type, cu)
		}
	}
}

func (s *Set) internPred(typ int, cu pattern.CUnary) int {
	k := predKey{typ: typ, attr: cu.Attr, op: cu.Op, c: math.Float64bits(cu.C)}
	if id, ok := s.predID[k]; ok {
		return id
	}
	id := len(s.preds)
	s.preds = append(s.preds, globalPred{typ: typ, cu: cu})
	s.predID[k] = id
	return id
}

// eligible reports the longest shareable prefix length of spec i: SEQ
// patterns with at least three core positions can share prefixes of 2 up
// to core-1 positions (at least one position must remain with the
// subscriber engine).
func (s *Set) eligible(i int) int {
	p := s.Specs[i].Pattern
	if p.Op != pattern.Seq {
		return 0
	}
	if n := len(p.Core()); n >= 3 {
		return n - 1
	}
	return 0
}

// prefixSignature renders the first j core positions of spec i — types,
// unary predicates of the first unary of them, and intra-prefix pairwise
// checks — as a canonical string. Two patterns with equal signatures at
// unary = j (and equal tenant) detect identical prefix assignments and
// can share one runner.
func (s *Set) prefixSignature(i, j, unary int) string {
	p := s.Specs[i].Pattern
	core := p.Core()
	var b strings.Builder
	for t := 0; t < j; t++ {
		c := core[t]
		fmt.Fprintf(&b, "T%d[", p.Positions[c].Type)
		var us []pattern.CUnary
		if t < unary {
			us = append(us, p.Unary(c)...)
		}
		slices.SortFunc(us, func(a, z pattern.CUnary) int {
			return cmp.Or(cmp.Compare(a.Attr, z.Attr), cmp.Compare(a.Op, z.Op), cmp.Compare(a.C, z.C))
		})
		for _, u := range us {
			fmt.Fprintf(&b, "a%d%s%x;", u.Attr, u.Op, math.Float64bits(u.C))
		}
		b.WriteString("]")
		for u := 0; u < t; u++ {
			pc := p.Pair(c, core[u])
			ps := append([]pattern.CPair(nil), pc.Preds...)
			slices.SortFunc(ps, func(a, z pattern.CPair) int {
				return cmp.Or(cmp.Compare(a.AttrN, z.AttrN), cmp.Compare(a.AttrO, z.AttrO), cmp.Compare(a.Op, z.Op), cmp.Compare(a.C, z.C))
			})
			fmt.Fprintf(&b, "P%d:", u)
			for _, cp := range ps {
				fmt.Fprintf(&b, "n%do%d%s%x;", cp.AttrN, cp.AttrO, cp.Op, math.Float64bits(cp.C))
			}
		}
		b.WriteString("|")
	}
	return b.String()
}

// suffixClasses splits the members of a group sharing j prefix positions
// into suffix classes of two or more: members with no negated or Kleene
// position, the same window, and the same types and pairwise checks at
// every core position, which differ at most in their suffix positions'
// unary predicates.
func (s *Set) suffixClasses(members []int, j int) [][]int {
	var classes [][]int
	at := make(map[string]int)
	for _, m := range members {
		p := s.Specs[m].Pattern
		if n := len(p.Core()); n == p.NumPositions() && p.MaskScannable() {
			k := fmt.Sprintf("W%d|%s", p.Window, s.prefixSignature(m, n, j))
			if c, ok := at[k]; ok {
				classes[c] = append(classes[c], m)
			} else {
				at[k] = len(classes)
				classes = append(classes, []int{m})
			}
		}
	}
	return slices.DeleteFunc(classes, func(c []int) bool { return len(c) < 2 })
}

// group detects shared prefixes greedily, longest first: at each length
// j (descending), ungrouped eligible patterns are bucketed by (tenant,
// signature) and every bucket of two or more becomes a group.
func (s *Set) group() error {
	maxJ := 0
	for i := range s.Specs {
		if m := s.eligible(i); m > maxJ {
			maxJ = m
		}
	}
	for j := maxJ; j >= 2; j-- {
		type bkey struct {
			tenant uint32
			sig    string
		}
		buckets := make(map[bkey][]int)
		var order []bkey
		for i := range s.Specs {
			if s.member[i] >= 0 || s.eligible(i) < j {
				continue
			}
			k := bkey{s.Specs[i].Tenant, s.prefixSignature(i, j, j)}
			if len(buckets[k]) == 0 {
				order = append(order, k)
			}
			buckets[k] = append(buckets[k], i)
		}
		for _, k := range order {
			members := buckets[k]
			if len(members) < 2 {
				continue
			}
			prefix, err := s.buildPrefix(members[0], j, members)
			if err != nil {
				return err
			}
			g := PrefixGroup{Prefix: prefix, Len: j, Tenant: k.tenant, Members: members,
				Classes: s.suffixClasses(members, j)}
			for _, m := range members {
				s.member[m] = len(s.Groups)
			}
			s.Groups = append(s.Groups, g)
		}
	}
	return nil
}

// buildPrefix reconstructs the standalone prefix pattern from the
// compiled tables of one member: j core positions with their types,
// unary predicates, and intra-prefix pair predicates, under the widest
// member window (per-subscriber window filtering happens at Seed).
func (s *Set) buildPrefix(ref, j int, members []int) (*pattern.Pattern, error) {
	p := s.Specs[ref].Pattern
	core := p.Core()
	window := event.Time(0)
	for _, m := range members {
		if w := s.Specs[m].Pattern.Window; w > window {
			window = w
		}
	}
	b := pattern.NewBuilder(s.schema, pattern.Seq, window)
	for t := 0; t < j; t++ {
		b.Event(p.Positions[core[t]].Type)
	}
	for t := 0; t < j; t++ {
		c := core[t]
		for _, cu := range p.Unary(c) {
			b.WherePred(pattern.Pred{L: t, R: pattern.Unary, AttrL: cu.Attr, Op: cu.Op, C: cu.C})
		}
		for u := 0; u < t; u++ {
			pc := p.Pair(c, core[u])
			for _, cp := range pc.Preds {
				// CPair is oriented with the event at core[t] (the later
				// position) as the "new" left operand; as a declared Pred
				// that is L=t, R=u verbatim.
				b.WherePred(pattern.Pred{L: t, R: u, AttrL: cp.AttrN, AttrR: cp.AttrO, Op: cp.Op, C: cp.C})
			}
		}
	}
	prefix, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("multi: building shared prefix: %w", err)
	}
	return prefix, nil
}

// GroupOf returns the prefix-group index evaluating spec i's prefix, or
// -1 when the pattern runs independently.
func (s *Set) GroupOf(i int) int { return s.member[i] }

// Report summarizes the sharing the analysis found.
func (s *Set) Report() Report {
	r := Report{Patterns: len(s.Specs), DistinctUnary: len(s.preds), Groups: len(s.Groups)}
	for _, sp := range s.Specs {
		r.TotalUnary += countUnary(sp.Pattern)
	}
	for _, g := range s.Groups {
		r.GroupedPatterns += len(g.Members)
		r.Classes += len(g.Classes)
		for _, c := range g.Classes {
			r.ClassedPatterns += len(c)
		}
	}
	return r
}

func countUnary(p *pattern.Pattern) int {
	if p.Op == pattern.Or {
		n := 0
		for _, sub := range p.Subs {
			n += countUnary(sub)
		}
		return n
	}
	n := 0
	for i := range p.Positions {
		n += len(p.Unary(i))
	}
	return n
}
