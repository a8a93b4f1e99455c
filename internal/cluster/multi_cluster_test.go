package cluster

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"acep/internal/chaos"
	"acep/internal/engine"
	"acep/internal/gen"
	"acep/internal/multi"
	"acep/internal/shard"
	"acep/internal/shed"
	"acep/internal/wire"
)

// multiClusterWorkload is a dense keyed stream for the multi-pattern
// cluster tests: dense enough that every pattern of an overlapping-
// prefix set (Kleene suffixes included) fires, keyed so the set is
// partitionable by "key" and spreads across the shards.
func multiClusterWorkload(t *testing.T, dataset string, keys int) *gen.Workload {
	t.Helper()
	switch dataset {
	case "traffic":
		return gen.Traffic(gen.TrafficConfig{
			Types: 7, Events: 6000, Seed: 29, Shifts: 1, MeanGap: 2, Keys: keys,
		})
	case "stocks":
		return gen.Stocks(gen.StocksConfig{
			Types: 7, Events: 6000, Seed: 31, MeanGap: 2, DriftEvery: 300, Keys: keys,
		})
	default:
		t.Fatalf("unknown dataset %s", dataset)
		return nil
	}
}

// multiClusterSpecs builds an overlapping-prefix pattern set over w.
func multiClusterSpecs(t *testing.T, w *gen.Workload, kind gen.Kind, n, tenants int) []multi.Spec {
	t.Helper()
	entries, err := w.OverlapPatterns(kind, n, 3, 700, tenants)
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]multi.Spec, len(entries))
	for i, e := range entries {
		specs[i] = multi.Spec{
			ID: e.ID, Tenant: e.Tenant, Pattern: e.Pattern,
			Config: engine.Config{CheckEvery: 250},
		}
	}
	return specs
}

// multiRecorder canonicalizes a pattern-multiplexed match stream: one
// wire-encoded byte stream per pattern id, in delivery order. Per-
// pattern byte equality of two recordings means identical match sets
// in identical order, down to every attribute bit.
type multiRecorder struct {
	bufs map[uint32][]byte
	keys map[uint32][]string
	n    int
}

func (r *multiRecorder) rec(tg shard.Tagged) {
	if r.bufs == nil {
		r.bufs = make(map[uint32][]byte)
		r.keys = make(map[uint32][]string)
	}
	r.bufs[tg.Pattern] = wire.AppendMatchRecord(r.bufs[tg.Pattern], 0, tg.Seq, 0, wire.AppendMatchBody(nil, tg.M))
	r.keys[tg.Pattern] = append(r.keys[tg.Pattern], tg.M.Key())
	r.n++
}

// runMultiLocal is the single-process reference: the multi-pattern
// shard engine at the given total shard count (itself cross-checked
// against independent engines in the shard package's tests).
func runMultiLocal(t *testing.T, w *gen.Workload, specs []multi.Spec, shards int, tenants map[uint32]shed.TenantBudget) *multiRecorder {
	t.Helper()
	rec := &multiRecorder{}
	eng, err := shard.New(nil, engine.Config{}, shard.Options{
		Shards: shards, Batch: 64, KeyAttr: "key", Schema: w.Schema,
		Patterns: specs, Tenants: tenants, OnTagged: rec.rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.Events {
		eng.Process(&w.Events[i])
	}
	eng.Finish()
	return rec
}

// startMultiRig launches a loopback-TCP cluster of bare worker nodes
// (multi-pattern sessions always ship the set from the ingress) plus
// bare standby nodes behind a dialing Standby factory.
func startMultiRig(t *testing.T, nodes, shardsPer, standbys int, wrapConn func(i int, c Conn) Conn) *failoverRig {
	t.Helper()
	rig := &failoverRig{}
	serve := func(node *Node, l *Listener) {
		go node.ServeListener(l, rig.noteErr) //nolint:errcheck // closed at test end
	}
	for i := 0; i < nodes; i++ {
		node, err := NewNode(NodeConfig{
			Engine: engine.Config{CheckEvery: 250},
			Shards: shardsPer, Batch: 64, KeyAttr: "key",
		})
		if err != nil {
			t.Fatal(err)
		}
		l, err := ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		serve(node, l)
		c, err := DialTCP(l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if wrapConn != nil {
			c = wrapConn(i, c)
		}
		rig.conns = append(rig.conns, c)
	}
	for k := 0; k < standbys; k++ {
		node, err := NewNode(NodeConfig{
			Engine: engine.Config{CheckEvery: 250}, Batch: 64, KeyAttr: "key",
		})
		if err != nil {
			t.Fatal(err)
		}
		l, err := ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		serve(node, l)
		rig.standbyLs = append(rig.standbyLs, l)
	}
	rig.recOptions = RecoveryConfig{
		Standby: func() (Conn, error) {
			if rig.dialed >= len(rig.standbyLs) {
				return nil, fmt.Errorf("rig: standbys exhausted")
			}
			c, err := DialTCP(rig.standbyLs[rig.dialed].Addr())
			if err != nil {
				return nil, err
			}
			rig.dialed++
			return c, nil
		},
	}
	return rig
}

// runMultiCluster streams the workload through the rig's cluster with
// the given pattern set, firing the `at` hooks before their event
// index, and requires a clean finish.
func runMultiCluster(t *testing.T, rig *failoverRig, w *gen.Workload, specs []multi.Spec,
	tenants map[uint32]shed.TenantBudget, recover bool, at map[int]func(*Ingress)) (*multiRecorder, *Ingress) {
	t.Helper()
	rec := &multiRecorder{}
	opts := IngressOptions{
		Batch: 64, KeyAttr: "key", Schema: w.Schema, OnTagged: rec.rec,
		Patterns: specs, Tenants: tenants,
	}
	if recover {
		opts.Recovery = &rig.recOptions
	}
	ing, err := NewIngress(nil, rig.conns, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.Events {
		if f := at[i]; f != nil {
			f(ing)
		}
		ing.Process(&w.Events[i])
	}
	if err := finishWithin(t, 60*time.Second, ing); err != nil {
		t.Fatalf("multi cluster finished with error: %v", err)
	}
	return rec, ing
}

// requireMultiIdentical compares two recordings pattern by pattern.
func requireMultiIdentical(t *testing.T, label string, specs []multi.Spec, got, want *multiRecorder) {
	t.Helper()
	if want.n == 0 {
		t.Fatalf("%s: reference produced no matches; test is vacuous", label)
	}
	for _, sp := range specs {
		if !bytes.Equal(got.bufs[sp.ID], want.bufs[sp.ID]) {
			t.Fatalf("%s: pattern %d stream diverges from the reference (%d vs %d matches)",
				label, sp.ID, len(got.keys[sp.ID]), len(want.keys[sp.ID]))
		}
	}
	if got.n != want.n {
		t.Fatalf("%s: %d matches delivered, reference has %d", label, got.n, want.n)
	}
}

// TestMultiClusterByteIdentical is the subsystem's acceptance
// criterion on the wire: a 3-node loopback-TCP cluster hosting an
// overlapping-prefix pattern set must deliver, per pattern, a stream
// byte-identical to the single-process multi-pattern shard engine at
// equal total shards — for plain, negation and Kleene suffixes on
// both workload regimes.
func TestMultiClusterByteIdentical(t *testing.T) {
	for _, dataset := range []string{"traffic", "stocks"} {
		for _, kind := range []gen.Kind{gen.Sequence, gen.Negation, gen.Kleene} {
			w := multiClusterWorkload(t, dataset, 4)
			// Kleene closures need their own density: the standard regime
			// is too cross-key-diluted for traffic closures to fire, while
			// dense stocks streams make the closure count explode.
			if kind == gen.Kleene {
				if dataset == "traffic" {
					w = gen.Traffic(gen.TrafficConfig{
						Types: 7, Events: 6000, Seed: 23, Shifts: 1, MeanGap: 2, Keys: 2,
					})
				} else {
					w = gen.Stocks(gen.StocksConfig{
						Types: 7, Events: 6000, Seed: 31, MeanGap: 2, DriftEvery: 300, Keys: 8,
					})
				}
			}
			specs := multiClusterSpecs(t, w, kind, 6, 1)
			want := runMultiLocal(t, w, specs, 6, nil)
			rig := startMultiRig(t, 3, 2, 0, nil)
			got, ing := runMultiCluster(t, rig, w, specs, nil, false, nil)
			requireMultiIdentical(t, fmt.Sprintf("%s/%v", dataset, kind), specs, got, want)
			pms := ing.PatternMetrics()
			if len(pms) != len(specs) {
				t.Fatalf("%s/%v: %d pattern metrics, want %d", dataset, kind, len(pms), len(specs))
			}
			for _, pm := range pms {
				if pm.M.Events == 0 {
					t.Fatalf("%s/%v: pattern %d reports zero events", dataset, kind, pm.ID)
				}
			}
		}
	}
}

// TestMultiClusterMigrationFailover: the per-pattern streams stay
// byte-identical through both reshaping paths at once — a manual
// shard migration early in the stream, then a node death whose block
// fails over to a bare standby (which adopts the whole pattern set
// through the Assign handshake and journal replay).
func TestMultiClusterMigrationFailover(t *testing.T) {
	w := multiClusterWorkload(t, "traffic", 4)
	specs := multiClusterSpecs(t, w, gen.Sequence, 6, 1)
	want := runMultiLocal(t, w, specs, 6, nil)
	// Budget 45 ≈ the assign frame plus 44 cuts of 64 events: node 1's
	// link dies ~47% into the stream, after the migration at event 1000.
	rig := startMultiRig(t, 3, 2, 1, func(i int, c Conn) Conn {
		if i == 1 {
			return &chaos.Flaky{C: c, Budget: 45}
		}
		return c
	})
	got, ing := runMultiCluster(t, rig, w, specs, nil, true, map[int]func(*Ingress){
		1000: func(ing *Ingress) {
			if err := ing.MigrateShard(4, 0); err != nil {
				t.Fatalf("migrating shard 4: %v", err)
			}
		},
	})
	requireMultiIdentical(t, "migration+failover", specs, got, want)
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
	w := multiClusterWorkload(t, "traffic", 4)
	all := multiClusterSpecs(t, w, gen.Sequence, 7, 1)
	initial, extra := all[:6], all[6]
	removed := initial[1].ID

	rigBase := startMultiRig(t, 3, 2, 0, nil)
	base, _ := runMultiCluster(t, rigBase, w, initial, nil, false, nil)
	solo := runMultiLocal(t, w, []multi.Spec{extra}, 1, nil)

	// Mutate early so the baseline certainly has post-mutation matches
	// of the removed pattern; migrate one of the mutated shards later.
	at := len(w.Events) / 8
	rig := startMultiRig(t, 3, 2, 0, nil)
	got, ing := runMultiCluster(t, rig, w, initial, nil, true, map[int]func(*Ingress){
		at: func(ing *Ingress) {
			if err := ing.AddPattern(extra); err != nil {
				t.Fatalf("AddPattern: %v", err)
			}
			if err := ing.RemovePattern(removed); err != nil {
				t.Fatalf("RemovePattern: %v", err)
			}
		},
		3 * len(w.Events) / 8: func(ing *Ingress) {
			if err := ing.MigrateShard(1, 2); err != nil {
				t.Fatalf("migrating shard 1 after the mutation: %v", err)
			}
		},
	})

	live := ing.Patterns()
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
		if !reflect.DeepEqual(sorted(got.keys[sp.ID]), sorted(base.keys[sp.ID])) {
			t.Fatalf("pattern %d disturbed by add/remove: %d vs %d matches",
				sp.ID, len(got.keys[sp.ID]), len(base.keys[sp.ID]))
		}
	}
	baseSet := make(map[string]int)
	for _, k := range base.keys[removed] {
		baseSet[k]++
	}
	for _, k := range got.keys[removed] {
		if baseSet[k] == 0 {
			t.Fatalf("removed pattern emitted a match outside its baseline: %s", k)
		}
		baseSet[k]--
	}
	if len(got.keys[removed]) >= len(base.keys[removed]) && len(base.keys[removed]) > 0 {
		t.Fatalf("removal had no effect: %d of %d matches still emitted",
			len(got.keys[removed]), len(base.keys[removed]))
	}
	soloSet := make(map[string]int)
	for _, k := range solo.keys[extra.ID] {
		soloSet[k]++
	}
	for _, k := range got.keys[extra.ID] {
		if soloSet[k] == 0 {
			t.Fatalf("added pattern emitted a match outside its solo set (replay regenerated history?): %s", k)
		}
		soloSet[k]--
	}
}

// TestMultiClusterTenantBudgets: a budgeted tenant sheds cluster-wide
// while the other tenant's patterns stay byte-identical to an
// unbudgeted run, and the per-tenant accounting merges across nodes
// into the ingress TenantStats.
func TestMultiClusterTenantBudgets(t *testing.T) {
	w := multiClusterWorkload(t, "traffic", 4)
	specs := multiClusterSpecs(t, w, gen.Sequence, 6, 2)
	rigFree := startMultiRig(t, 3, 2, 0, nil)
	free, _ := runMultiCluster(t, rigFree, w, specs, nil, false, nil)

	budgets := map[uint32]shed.TenantBudget{0: {Rate: 5, Burst: 5}}
	rig := startMultiRig(t, 3, 2, 0, nil)
	got, ing := runMultiCluster(t, rig, w, specs, budgets, false, nil)

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
	for _, sp := range specs {
		if sp.Tenant != 1 {
			continue
		}
		if !bytes.Equal(got.bufs[sp.ID], free.bufs[sp.ID]) {
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
	w := multiClusterWorkload(t, "traffic", 4)
	specs := multiClusterSpecs(t, w, gen.Sequence, 6, 1)
	want := runMultiLocal(t, w, specs, 4, nil)
	rig := startMultiRig(t, 2, 2, 0, nil)

	// Two joiner nodes, each behind its own listener.
	var joinLs []*Listener
	for j := 0; j < 2; j++ {
		node, err := NewNode(NodeConfig{
			Engine: engine.Config{CheckEvery: 250}, Batch: 64, KeyAttr: "key",
		})
		if err != nil {
			t.Fatal(err)
		}
		l, err := ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		go node.ServeListener(l, rig.noteErr) //nolint:errcheck // closed at test end
		joinLs = append(joinLs, l)
	}
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

	got, ing := runMultiCluster(t, rig, w, specs, nil, true, map[int]func(*Ingress){
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

	requireMultiIdentical(t, "ghost slots", specs, got, want)
	if n := ing.Nodes(); n != 3 {
		t.Fatalf("slot array grew to %d, want 3 (second joiner must reuse the ghost)", n)
	}
	if fos := ing.Failovers(); len(fos) != 0 {
		t.Fatalf("join/drain churn recorded failovers: %+v", fos)
	}
	if ev := ing.Metrics().Events; ev < uint64(len(w.Events)) {
		t.Fatalf("cluster metrics lost the retired sessions: %d events accounted, want >= %d",
			ev, len(w.Events))
	}
}

// TestMultiClusterValidation covers the multi-pattern constructor,
// handshake and runtime-mutation misuse errors.
func TestMultiClusterValidation(t *testing.T) {
	w := multiClusterWorkload(t, "traffic", 4)
	specs := multiClusterSpecs(t, w, gen.Sequence, 4, 1)
	pat := specs[0].Pattern
	onTag := func(shard.Tagged) {}
	conn := func() Conn { c, _ := Pipe(); return c }

	if _, err := NewIngress(pat, []Conn{conn()}, IngressOptions{
		KeyAttr: "key", Schema: w.Schema, OnTagged: onTag, Patterns: specs,
	}); err == nil {
		t.Error("non-nil pattern accepted alongside Options.Patterns")
	}
	if _, err := NewIngress(nil, []Conn{conn()}, IngressOptions{
		KeyAttr: "key", Schema: w.Schema, OnTagged: onTag,
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
		KeyAttr: "key", Schema: w.Schema, OnTagged: onTag, Patterns: dup,
	}); err == nil {
		t.Error("duplicate pattern id accepted")
	}

	// A node configured with one pattern must be refused at the
	// handshake by an ingress opening with any other set: its
	// fingerprint covers the set of one, the session's covers four.
	single, err := NewNode(NodeConfig{
		Pattern: pat, Engine: engine.Config{CheckEvery: 250},
		Shards: 2, Batch: 64, KeyAttr: "key", Schema: w.Schema,
	})
	if err != nil {
		t.Fatal(err)
	}
	client, server := Pipe()
	go single.Serve(server) //nolint:errcheck // the rejection is the point
	if _, err := NewIngress(nil, []Conn{client}, IngressOptions{
		Batch: 64, KeyAttr: "key", Schema: w.Schema, OnTagged: onTag, Patterns: specs,
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
		Batch: 64, KeyAttr: "key", Schema: w.Schema, OnTagged: onTag, Patterns: specs[:2],
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
	if err := finishWithin(t, 30*time.Second, ing); err != nil {
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
	w := keyedWorkload(t, "traffic")
	var specs []multi.Spec
	for i, kind := range []gen.Kind{gen.Sequence, gen.Conjunction, gen.Kleene} {
		pat, err := w.Pattern(kind, 3, 300)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, multi.Spec{ID: uint32(i), Pattern: pat, Config: engine.Config{CheckEvery: 250}})
	}
	solo, added, brief := specs[0], specs[1], specs[2]
	addAt, dropAt := len(w.Events)/4, len(w.Events)/2

	want := &multiRecorder{}
	ref, err := shard.New(solo.Pattern, solo.Config, shard.Options{
		Shards: 4, Batch: 64, KeyAttr: "key", Schema: w.Schema, OnTagged: want.rec,
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
	got := &multiRecorder{}
	ing, err := NewIngress(solo.Pattern, conns, IngressOptions{
		Batch: 64, KeyAttr: "key", Schema: w.Schema, OnTagged: got.rec,
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
	if err := finishWithin(t, 30*time.Second, ing); err != nil {
		t.Fatalf("cluster finish: %v", err)
	}
	ref.Finish()

	requireMultiIdentical(t, "solo session", specs, got, want)
	for _, sp := range specs {
		if len(got.keys[sp.ID]) == 0 {
			t.Fatalf("pattern %d never fired; test is vacuous", sp.ID)
		}
	}
	if live := ing.Patterns(); len(live) != 2 {
		t.Fatalf("%d live patterns after add+add+remove, want 2", len(live))
	}
	if pms := ing.PatternMetrics(); len(pms) != 2 || pms[0].ID != multi.SoloID || pms[1].ID != added.ID {
		t.Fatalf("per-pattern metrics cover %+v, want the solo and the added pattern", pms)
	}
}
