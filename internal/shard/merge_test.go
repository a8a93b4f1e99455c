package shard

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refMerge is the merge collector's contract in its plainest form: every
// accepted tag numbered in its shard's posting order, kept in one slice,
// sorted by key at each release and delivered up to the frontier — the
// least watermark over the shards.
type refMerge struct {
	owner   []int
	frozen  []bool
	marks   []uint64
	nextIdx []uint64
	min     uint64
	buf     []Tagged
	out     []Tagged
}

func newRefMerge(owner []int) *refMerge {
	n := len(owner)
	return &refMerge{owner: slices.Clone(owner), frozen: make([]bool, n), marks: make([]uint64, n), nextIdx: make([]uint64, n)}
}

func (r *refMerge) post(node int, wm uint64, tags []Tagged) {
	for g, o := range r.owner {
		if o == node && !r.frozen[g] && r.marks[g] < wm {
			r.marks[g] = wm
		}
	}
	for _, t := range tags {
		if r.owner[t.Src] == node {
			t.Idx = r.nextIdx[t.Src]
			r.nextIdx[t.Src]++
			r.buf = append(r.buf, t)
		}
	}
	r.release()
}

func (r *refMerge) release() {
	min := slices.Min(r.marks)
	slices.SortFunc(r.buf, tagCmp)
	n := 0
	for n < len(r.buf) && r.buf[n].Seq <= min {
		n++
	}
	r.out = append(r.out, r.buf[:n]...)
	r.buf = r.buf[n:]
	r.min = max(r.min, min)
}

func (r *refMerge) migrate(g, to int) uint64 {
	r.buf = slices.DeleteFunc(r.buf, func(t Tagged) bool { return t.Src == g })
	r.owner[g], r.frozen[g], r.marks[g] = to, true, r.min
	return r.min
}

func (r *refMerge) complete(node, g int, upTo uint64) {
	if r.owner[g] == node && r.frozen[g] {
		r.frozen[g] = false
		r.marks[g] = max(r.marks[g], upTo)
		r.release()
	}
}

func (r *refMerge) abandon(node int) {
	for g, o := range r.owner {
		if o == node {
			r.owner[g], r.frozen[g], r.marks[g] = -1, false, math.MaxUint64
		}
	}
	r.release()
}

// checkedRun is a posted run's Releaser: it counts its calls, records how
// many matches had been delivered at the first, and poisons the slice it
// gets back, so a tag the collector read after the release would arrive
// as garbage.
type checkedRun struct {
	tags  []Tagged
	ids   []uint32 // the tags' Pattern, which the test numbers uniquely
	calls int
	at    int
	got   *[]Tagged
}

func (c *checkedRun) Release() {
	if c.calls++; c.calls == 1 {
		c.at = len(*c.got)
	}
	for i := range c.tags {
		c.tags[i] = Tagged{Seq: 1 << 62, Src: -1, Pattern: math.MaxUint32}
	}
}

// TestCollectorMergeDifferential drives the collector and refMerge through
// one seeded script each: three nodes owning up to four shards each post
// sorted runs under advancing watermarks, now and then a tag that is
// stale; shards migrate between live nodes, up to three at once, whose
// replays go out in one run that sorts before the tags the destination
// already posted and is out of order itself (shard after shard), complete,
// and nodes are abandoned. The delivered sequence must be the reference's
// tag for tag, a migration's boundary its release frontier, and every
// run's Releaser must fire exactly once, after the last of its tags that
// was delivered.
func TestCollectorMergeDifferential(t *testing.T) {
	replays, unsorted := 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const nodes = 3
		var owner []int
		for n := 0; n < nodes; n++ {
			for range 1 + rng.Intn(4) {
				owner = append(owner, n)
			}
		}
		var got []Tagged
		c := NewCollectorOwned(owner, func(t Tagged) { got = append(got, t) }, nil)
		ref := newRefMerge(owner)
		own := slices.Clone(owner)    // the script's view of the owner table
		wm := make([]uint64, nodes)   // each node's last watermark
		last := make([]uint64, nodes) // the Seq of each node's last posted tag
		pending := map[int]bool{}     // migrating shards, to own[g]
		dead := make([]bool, nodes)   // abandoned
		var runs []*checkedRun
		id := uint32(0)
		post := func(n int, upTo uint64, tags []Tagged) {
			for i := range tags {
				tags[i].Pattern = id // identifies the tag across the merge
				id++
			}
			r := &checkedRun{tags: tags, got: &got}
			for _, tg := range tags {
				r.ids = append(r.ids, tg.Pattern)
			}
			runs = append(runs, r)
			if len(tags) > 0 {
				last[n] = max(last[n], tags[len(tags)-1].Seq)
			}
			ref.post(n, upTo, slices.Clone(tags))
			c.PostRun(n, upTo, tags, r) // the slice is the collector's now
		}
		live := func() []int {
			var ls []int
			for n := range nodes {
				if !dead[n] {
					ls = append(ls, n)
				}
			}
			return ls
		}
		for step := 0; step < 300; step++ {
			ls := live()
			n := ls[rng.Intn(len(ls))]
			switch k := rng.Intn(20); {
			case k == 0 && len(ls) > 1: // migrate up to three of n's shards to another live node
				var mine []int
				for g, o := range own {
					if o == n && !pending[g] {
						mine = append(mine, g)
					}
				}
				to := ls[rng.Intn(len(ls))]
				if len(mine) == 0 || to == n {
					continue
				}
				rng.Shuffle(len(mine), func(i, j int) { mine[i], mine[j] = mine[j], mine[i] })
				// The destination replays each shard from the boundary, all in
				// one run, shard after shard: it sorts before what the node
				// posted last when the node is ahead, and is itself out of
				// order when two replays regenerate matches.
				var tags []Tagged
				for _, g := range mine[:1+rng.Intn(min(3, len(mine)))] {
					if b, want := c.Migrate(g, to), ref.migrate(g, to); b != want {
						t.Fatalf("seed %d: Migrate boundary %d, want %d", seed, b, want)
					}
					own[g], pending[g] = to, true
					for s := ref.min + 1; s <= wm[to]; s += 1 + uint64(rng.Intn(3)) {
						tags = append(tags, Tagged{Seq: s, Src: g})
					}
				}
				if len(tags) > 0 && tags[0].Seq < last[to] {
					replays++
				}
				if !slices.IsSortedFunc(tags, tagCmp) {
					unsorted++
				}
				post(to, wm[to], tags)
			case k == 1: // the destination of a migration acknowledges it
				for g, o := range own {
					if o == n && pending[g] {
						c.Complete(n, g, wm[n])
						ref.complete(n, g, wm[n])
						delete(pending, g)
						break
					}
				}
			case k == 2 && len(ls) > 1 && rng.Intn(4) == 0: // lose n for good
				c.Abandon(n)
				ref.abandon(n)
				dead[n] = true
				for g, o := range own {
					if o == n {
						own[g] = -1
						delete(pending, g)
					}
				}
			default: // a cut's run
				up := wm[n] + uint64(rng.Intn(6))
				var tags []Tagged
				for s := wm[n] + 1; s <= up; s++ {
					for range rng.Intn(3) {
						g := rng.Intn(len(own))
						if own[g] != n && rng.Intn(8) != 0 {
							continue // mostly its own shards; sometimes a stale tag
						}
						tags = append(tags, Tagged{Seq: s, Src: g})
					}
				}
				slices.SortFunc(tags, func(a, b Tagged) int { return cmp.Or(cmp.Compare(a.Seq, b.Seq), cmp.Compare(a.Src, b.Src)) })
				wm[n] = up
				post(n, up, tags)
			}
		}
		for g, o := range own {
			if pending[g] {
				c.Complete(o, g, math.MaxUint64)
				ref.complete(o, g, math.MaxUint64)
			}
		}
		for n := range nodes {
			post(n, math.MaxUint64, nil)
		}
		c.Close()

		if len(got) != len(ref.out) {
			t.Fatalf("seed %d: delivered %d matches, the reference %d", seed, len(got), len(ref.out))
		}
		at := map[uint32]int{}
		for i := range got {
			if g, w := got[i], ref.out[i]; g.Seq != w.Seq || g.Src != w.Src || g.Idx != w.Idx || g.Pattern != w.Pattern {
				t.Fatalf("seed %d: delivery %d is %+v, the reference's %+v", seed, i, g, w)
			}
			at[got[i].Pattern] = i
		}
		for _, r := range runs {
			if r.calls != 1 {
				t.Fatalf("seed %d: a run released %d times", seed, r.calls)
			}
			for _, id := range r.ids {
				if i, ok := at[id]; ok && r.at <= i {
					t.Fatalf("seed %d: a run released after %d deliveries, its match went out %dth", seed, r.at, i+1)
				}
			}
		}
	}
	if replays == 0 || unsorted == 0 {
		t.Fatalf("%d replay runs sorted before their node's last tag, %d were out of order: the script must make both", replays, unsorted)
	}
}
