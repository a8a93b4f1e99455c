package cluster

import (
	"slices"
	"strings"
	"testing"

	"acep/internal/chaos"
	"acep/internal/engine"
	"acep/internal/gen"
	"acep/internal/multi"
	"acep/internal/pattern"
	"acep/internal/rungtest"
	"acep/internal/shard"
	"acep/internal/shed"
)

// setRow is n overlapping-prefix patterns over tenants on a traffic
// stream over four keys (three of six shards busy), at the given shards.
func setRow(t *testing.T, n, tenants, shards int) rungtest.Row {
	t.Helper()
	w := gen.Traffic(gen.TrafficConfig{Types: 7, Events: 6000, Seed: 23, Shifts: 1, MeanGap: 2, Keys: 4})
	entries, err := w.OverlapPatterns(gen.Sequence, n, 3, 700, tenants)
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.Config{CheckEvery: 250}
	row := rungtest.Row{Schema: w.Schema, Events: w.Events, Config: cfg, Shards: shards, Batch: 64}
	for _, e := range entries {
		row.Specs = append(row.Specs, multi.Spec{ID: e.ID, Tenant: e.Tenant, Pattern: e.Pattern, Config: cfg})
	}
	return row
}

// byPattern is each pattern's delivered matches, as sorted wire bodies.
func byPattern(s rungtest.Stream) map[uint32][]string {
	out := make(map[uint32][]string)
	for _, r := range s {
		out[r.Pattern] = append(out[r.Pattern], string(r.Body))
	}
	for _, bodies := range out {
		slices.Sort(bodies)
	}
	return out
}

// TestMultiClusterMigrationFailover: the per-pattern streams stay
// byte-identical through both reshaping paths at once — a manual
// shard migration early in the stream, then a node death whose block
// fails over to a bare standby (which adopts the whole pattern set
// through the Assign handshake and journal replay).
func TestMultiClusterMigrationFailover(t *testing.T) {
	row := setRow(t, 6, 1, 6)
	want := rungtest.Reference(t, row)
	// Budget 45 ≈ the assign frame plus 44 cuts of 64 events: node 1's
	// link dies ~47% into the stream, after the migration at event 1000.
	rig := startRig(t, row, 1, func(i int, c Conn) Conn {
		if i == 1 {
			return &chaos.Flaky{C: c, Budget: 45}
		}
		return c
	}, nil)
	got, ing := runRig(t, rig, row, nil, map[int]func(*Ingress){
		1000: func(ing *Ingress) {
			if err := ing.MigrateShard(4, 0); err != nil {
				t.Fatalf("migrating shard 4: %v", err)
			}
		},
	})
	rungtest.Require(t, "migration+failover", got, want)
	fos := ing.Failovers()
	if len(fos) != 1 || fos[0].Node != 1 {
		t.Fatalf("failovers = %+v, want exactly one for node 1", fos)
	}
	if fos[0].ReplayEvents == 0 {
		t.Fatalf("failover replayed nothing: %+v", fos[0])
	}
	var sawMove bool
	for _, m := range ing.Migrations() {
		if m.Shard == 4 && m.To == 0 && m.Reason == "rebalance" {
			sawMove = true
			if m.CompletedAt.IsZero() {
				t.Fatalf("manual migration never acknowledged: %+v", m)
			}
		}
	}
	if !sawMove {
		t.Fatalf("migrations %+v: manual move of shard 4 missing", ing.Migrations())
	}
}

// TestMultiClusterAddRemove: registering and retiring patterns on a
// live cluster — with a shard migration after the mutation, so the
// replay filter for the runtime-added pattern is exercised — leaves
// every untouched pattern's match multiset identical to a run without
// the mutation, the removed pattern emits a subset of its baseline,
// and the added pattern emits a subset of its full-stream solo set
// (the migration replay must not regenerate pre-registration matches).
func TestMultiClusterAddRemove(t *testing.T) {
	// The baseline runs all seven from the start: the added pattern's
	// full-stream set is its solo set.
	row := setRow(t, 7, 1, 6)
	baseRun, _ := runRig(t, startRig(t, row, 0, nil, nil), row, nil, nil)
	base := byPattern(baseRun)
	initial, extra := row.Specs[:6], row.Specs[6]
	row.Specs = initial
	removed, solo := initial[1].ID, base[extra.ID]

	// Mutate early so the baseline certainly has post-mutation matches
	// of the removed pattern; migrate one of the mutated shards later.
	at := len(row.Events) / 8
	gotRun, ing := runRig(t, startRig(t, row, 0, nil, nil), row, nil, map[int]func(*Ingress){
		at: func(ing *Ingress) {
			if err := ing.AddPattern(extra); err != nil {
				t.Fatalf("AddPattern: %v", err)
			}
			if err := ing.RemovePattern(removed); err != nil {
				t.Fatalf("RemovePattern: %v", err)
			}
		},
		3 * len(row.Events) / 8: func(ing *Ingress) {
			if err := ing.MigrateShard(1, 2); err != nil {
				t.Fatalf("migrating shard 1 after the mutation: %v", err)
			}
		},
	})

	got := byPattern(gotRun)
	live := ing.specs
	if len(live) != 6 {
		t.Fatalf("%d live patterns after add+remove, want 6", len(live))
	}
	for _, sp := range live {
		if sp.ID == removed {
			t.Fatalf("removed pattern %d still in the shipped set", removed)
		}
	}
	for _, sp := range initial {
		if sp.ID == removed {
			continue
		}
		if !slices.Equal(got[sp.ID], base[sp.ID]) {
			t.Fatalf("pattern %d disturbed by add/remove: %d vs %d matches",
				sp.ID, len(got[sp.ID]), len(base[sp.ID]))
		}
	}
	baseSet := make(map[string]int)
	for _, k := range base[removed] {
		baseSet[k]++
	}
	for _, k := range got[removed] {
		if baseSet[k] == 0 {
			t.Fatalf("removed pattern emitted a match outside its baseline: %x", k)
		}
		baseSet[k]--
	}
	if len(got[removed]) >= len(base[removed]) && len(base[removed]) > 0 {
		t.Fatalf("removal had no effect: %d of %d matches still emitted",
			len(got[removed]), len(base[removed]))
	}
	soloSet := make(map[string]int)
	for _, k := range solo {
		soloSet[k]++
	}
	for _, k := range got[extra.ID] {
		if soloSet[k] == 0 {
			t.Fatalf("added pattern emitted a match outside its solo set (replay regenerated history?): %x", k)
		}
		soloSet[k]--
	}
}

// TestMultiClusterTenantBudgets: a budgeted tenant sheds cluster-wide
// while the other tenant's patterns stay byte-identical to an
// unbudgeted run, and the per-tenant accounting merges across nodes
// into the ingress TenantStats.
func TestMultiClusterTenantBudgets(t *testing.T) {
	row := setRow(t, 6, 2, 6)
	freeRun, _ := runRig(t, startRig(t, row, 0, nil, nil), row, nil, nil)
	row.Tenants = map[uint32]shed.TenantBudget{0: {Rate: 5, Burst: 5}}
	gotRun, ing := runRig(t, startRig(t, row, 0, nil, nil), row, nil, nil)
	got, free := byPattern(gotRun), byPattern(freeRun)

	stats := ing.TenantStats()
	if len(stats) != 2 {
		t.Fatalf("%d tenant stats, want 2: %+v", len(stats), stats)
	}
	var shed0, shed1, adm0, adm1 uint64
	for _, ts := range stats {
		if ts.Tenant == 0 {
			shed0, adm0 = ts.Shed, ts.Admitted
		} else {
			shed1, adm1 = ts.Shed, ts.Admitted
		}
	}
	if shed0 == 0 || adm0 == 0 {
		t.Fatalf("budgeted tenant: admitted %d, shed %d — want both nonzero", adm0, shed0)
	}
	if shed1 != 0 || adm1 == 0 {
		t.Fatalf("unbudgeted tenant: admitted %d, shed %d — want shedding zero", adm1, shed1)
	}
	for _, sp := range row.Specs {
		if sp.Tenant != 1 {
			continue
		}
		if !slices.Equal(got[sp.ID], free[sp.ID]) {
			t.Fatalf("unbudgeted tenant's pattern %d disturbed by the other tenant's budget", sp.ID)
		}
	}
}

// waitGhost blocks until slot n's session has ended, so the next AddNode
// can compact it (a hang here is the test timeout's to report).
func waitGhost(t *testing.T, ing *Ingress, n int) {
	t.Helper()
	<-ing.slots[n].done
	if ing.ghost() != n {
		t.Fatalf("slot %d's session ended but it is not a ghost", n)
	}
}

// TestMultiClusterGhostSlots: join/drain churn on a live multi-pattern
// cluster compacts ghost slots instead of growing the node arrays — a
// later joiner reuses the drained slot, the drained session's metrics
// move to the retired accumulator, and the delivered streams stay
// byte-identical.
func TestMultiClusterGhostSlots(t *testing.T) {
	row := setRow(t, 6, 1, 4)
	want := rungtest.Reference(t, row)
	// The two joiners: the rig's standbys, which no failure dials.
	rig := startRig(t, row, 2, nil, nil)
	joinLs := rig.standbyLs
	join := func(ing *Ingress, j int) int {
		c, err := DialTCP(joinLs[j].Addr())
		if err != nil {
			t.Fatal(err)
		}
		n, err := ing.AddNode(c)
		if err != nil {
			t.Fatalf("AddNode: %v", err)
		}
		return n
	}

	got, ing := runRig(t, rig, row, nil, map[int]func(*Ingress){
		1800: func(ing *Ingress) {
			if n := join(ing, 0); n != 2 {
				t.Fatalf("first joiner landed in slot %d, want appended slot 2", n)
			}
		},
		2600: func(ing *Ingress) {
			if err := ing.Drain(0); err != nil {
				t.Fatalf("Drain(0): %v", err)
			}
		},
		4000: func(ing *Ingress) {
			waitGhost(t, ing, 0)
			if n := join(ing, 1); n != 0 {
				t.Fatalf("second joiner landed in slot %d, want reused ghost slot 0", n)
			}
			ing.mu.Lock()
			banked := ing.retired.Events
			ing.mu.Unlock()
			if banked == 0 {
				t.Fatal("reused slot did not bank the drained session's metrics")
			}
		},
		4800: func(ing *Ingress) {
			if err := ing.Drain(1); err != nil {
				t.Fatalf("Drain(1): %v", err)
			}
		},
	})

	rungtest.Require(t, "ghost slots", got, want)
	if n := ing.Nodes(); n != 3 {
		t.Fatalf("slot array grew to %d, want 3 (second joiner must reuse the ghost)", n)
	}
	if fos := ing.Failovers(); len(fos) != 0 {
		t.Fatalf("join/drain churn recorded failovers: %+v", fos)
	}
	if ev := ing.Metrics().Events; ev < uint64(len(row.Events)) {
		t.Fatalf("cluster metrics lost the retired sessions: %d events accounted, want >= %d",
			ev, len(row.Events))
	}
}

// TestMultiClusterValidation covers the multi-pattern constructor,
// handshake and runtime-mutation misuse errors.
func TestMultiClusterValidation(t *testing.T) {
	row := setRow(t, 4, 1, 6)
	specs, pat := row.Specs, row.Specs[0].Pattern
	onTag := func(shard.Tagged) {}
	conn := func() Conn { c, _ := Pipe(); return c }

	if _, err := NewIngress(pat, []Conn{conn()}, IngressOptions{
		KeyAttr: "key", Schema: row.Schema, OnTagged: onTag, Patterns: specs,
	}); err == nil {
		t.Error("non-nil pattern accepted alongside Options.Patterns")
	}
	if _, err := NewIngress(nil, []Conn{conn()}, IngressOptions{
		KeyAttr: "key", Schema: row.Schema, OnTagged: onTag,
	}); err == nil {
		t.Error("ingress without any pattern accepted")
	}
	if _, err := NewIngress(nil, []Conn{conn()}, IngressOptions{
		KeyAttr: "key", OnTagged: onTag, Patterns: specs,
	}); err == nil {
		t.Error("KeyAttr without schema accepted")
	}
	dup := append([]multi.Spec(nil), specs...)
	dup[2].ID = dup[0].ID
	if _, err := NewIngress(nil, []Conn{conn()}, IngressOptions{
		KeyAttr: "key", Schema: row.Schema, OnTagged: onTag, Patterns: dup,
	}); err == nil {
		t.Error("duplicate pattern id accepted")
	}

	// A node configured with one pattern must be refused at the
	// handshake by an ingress opening with any other set: its
	// fingerprint covers the set of one, the session's covers four.
	single, err := NewNode(NodeConfig{
		Pattern: pat, Engine: engine.Config{CheckEvery: 250},
		Shards: 2, Batch: 64, KeyAttr: "key", Schema: row.Schema,
	})
	if err != nil {
		t.Fatal(err)
	}
	client, server := Pipe()
	go single.Serve(server) //nolint:errcheck // the rejection is the point
	if _, err := NewIngress(nil, []Conn{client}, IngressOptions{
		Batch: 64, KeyAttr: "key", Schema: row.Schema, OnTagged: onTag, Patterns: specs,
	}); err == nil || !strings.Contains(err.Error(), "different pattern") {
		t.Errorf("configured node accepted by multi ingress: %v", err)
	}

	// Runtime mutation misuse on a live pipe-backed multi cluster.
	bare, err := NewNode(NodeConfig{
		Engine: engine.Config{CheckEvery: 250}, Shards: 2, Batch: 64, KeyAttr: "key",
	})
	if err != nil {
		t.Fatal(err)
	}
	mc, ms := Pipe()
	go bare.Serve(ms) //nolint:errcheck // finished at test end
	ing, err := NewIngress(nil, []Conn{mc}, IngressOptions{
		Batch: 64, KeyAttr: "key", Schema: row.Schema, OnTagged: onTag, Patterns: specs[:2],
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ing.AddPattern(specs[0]); err == nil {
		t.Error("duplicate AddPattern accepted")
	}
	if err := ing.AddPattern(multi.Spec{ID: 77}); err == nil {
		t.Error("AddPattern without a pattern accepted")
	}
	// A pattern with no key equality could match across shards.
	b := pattern.NewBuilder(row.Schema, pattern.Seq, 300)
	b.Event(0)
	b.Event(1)
	if err := ing.AddPattern(multi.Spec{ID: 78, Pattern: b.MustBuild()}); err == nil {
		t.Error("AddPattern of a pattern not partitionable by the key accepted")
	}
	if err := ing.RemovePattern(999); err == nil {
		t.Error("unknown RemovePattern accepted")
	}
	if err := ing.RemovePattern(specs[0].ID); err != nil {
		t.Errorf("valid RemovePattern rejected: %v", err)
	}
	if err := ing.RemovePattern(specs[1].ID); err == nil {
		t.Error("removing the last pattern accepted")
	}
	if err := ing.AddPattern(specs[2]); err != nil {
		t.Errorf("valid AddPattern rejected: %v", err)
	}
	if err := rungtest.Finish(t, ing.Finish); err != nil {
		t.Fatalf("validation cluster finish: %v", err)
	}
}

// TestSoloClusterAddRemove: a session opened through the single-pattern
// entry points (NodeConfig.Pattern, NewIngress's pattern argument) is
// the set of one, so patterns can be registered and retired on it at
// runtime, every pattern's delivered stream staying byte-identical to
// the single-process shard engine given the same mutations (which the
// shard package checks against independent engines).
func TestSoloClusterAddRemove(t *testing.T) {
	var specs []multi.Spec
	var w rungtest.Row
	for i, name := range []string{"pinned/sequence-300", "pinned/conjunction-300", "pinned/kleene-300"} {
		w = rungtest.Lookup(t, name)
		specs = append(specs, multi.Spec{ID: uint32(i), Pattern: w.Specs[0].Pattern, Config: w.Config})
	}
	solo, added, brief := specs[0], specs[1], specs[2]
	addAt, dropAt := len(w.Events)/4, len(w.Events)/2

	var want, got rungtest.Recorder
	ref, err := shard.New(solo.Pattern, solo.Config, shard.Options{
		Shards: 4, Batch: 64, KeyAttr: "key", Schema: w.Schema, OnTagged: want.Tagged,
	})
	if err != nil {
		t.Fatal(err)
	}

	var conns []Conn
	for i := 0; i < 2; i++ {
		node, err := NewNode(NodeConfig{
			Pattern: solo.Pattern, Engine: solo.Config,
			Shards: 2, Batch: 64, KeyAttr: "key", Schema: w.Schema,
		})
		if err != nil {
			t.Fatal(err)
		}
		client, server := Pipe()
		go func() {
			if err := node.Serve(server); err != nil {
				t.Errorf("node: %v", err)
			}
		}()
		conns = append(conns, client)
	}
	ing, err := NewIngress(solo.Pattern, conns, IngressOptions{
		Batch: 64, KeyAttr: "key", Schema: w.Schema, OnTagged: got.Tagged,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ing.AddPattern(multi.Spec{ID: multi.SoloID, Pattern: added.Pattern}); err == nil {
		t.Error("a second pattern under the solo id accepted")
	}
	if err := ing.RemovePattern(multi.SoloID); err == nil {
		t.Error("removing the session's only pattern accepted")
	}

	for i := range w.Events {
		switch i {
		case addAt:
			for _, sp := range []multi.Spec{added, brief} {
				if err := ing.AddPattern(sp); err != nil {
					t.Fatalf("AddPattern on a session opened with one pattern: %v", err)
				}
				if err := ref.AddPattern(sp); err != nil {
					t.Fatal(err)
				}
			}
		case dropAt:
			if err := ing.RemovePattern(brief.ID); err != nil {
				t.Fatalf("RemovePattern on a session opened with one pattern: %v", err)
			}
			if err := ref.RemovePattern(brief.ID); err != nil {
				t.Fatal(err)
			}
		}
		ing.Process(&w.Events[i])
		ref.Process(&w.Events[i])
	}
	if err := rungtest.Finish(t, ing.Finish); err != nil {
		t.Fatalf("cluster finish: %v", err)
	}
	ref.Finish()

	rungtest.Require(t, "solo session", got.Stream(), want.Stream())
	for _, sp := range specs {
		if len(byPattern(got.Stream())[sp.ID]) == 0 {
			t.Fatalf("pattern %d never fired; test is vacuous", sp.ID)
		}
	}
	if live := ing.specs; len(live) != 2 {
		t.Fatalf("%d live patterns after add+add+remove, want 2", len(live))
	}
	if pms := ing.PatternMetrics(); len(pms) != 2 || pms[0].ID != multi.SoloID || pms[1].ID != added.ID {
		t.Fatalf("per-pattern metrics cover %+v, want the solo and the added pattern", pms)
	}
}
