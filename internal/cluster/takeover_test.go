package cluster

import (
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"acep/internal/engine"
	recovery "acep/internal/recover"
	"acep/internal/rungtest"
	"acep/internal/shard"
)

// inlineMirror is a synchronous stand-in for the HA standby: the OnCut
// tap appends every sealed cut to its own journal and tracks the owner
// and address tables, exactly the state a successor's ResumeState needs.
// (internal/ha runs the same protocol over a real replication link; this
// test pins the cluster-layer Resume mechanics in isolation.)
type inlineMirror struct {
	journal  *recovery.Journal
	lastUpTo uint64
	owner    []int
	addrs    []string
	cuts     int
}

func (m *inlineMirror) onCut(ci CutInfo) {
	if err := m.journal.AppendRuns(ci.Runs, ci.UpTo); err != nil { // the bodies are journal-retained, stable
		panic(err)
	}
	m.lastUpTo = ci.UpTo
	m.owner = append(m.owner[:0], ci.Owner...)
	m.addrs = append(m.addrs[:0], ci.Addrs...)
	m.cuts++
}

// TestTakeoverResume kills a founding coordinator mid-stream and builds
// a successor from a mirrored ResumeState: fresh connections at a
// higher epoch, adoption migrations that replay the mirror with the
// already-emitted prefix suppressed, and a re-fed unacknowledged tail.
// The combined consumer stream must be byte-identical to the
// single-process engine.
func TestTakeoverResume(t *testing.T) {
	row := rungtest.Lookup(t, "traffic/sequence")
	want := rungtest.Reference(t, row)
	pat := row.Specs[0].Pattern
	rig := startRig(t, row, 0, nil, nil)
	var addrs []string
	for _, c := range rig.conns {
		addrs = append(addrs, connAddr(c))
	}

	mir := &inlineMirror{}
	var err error
	mir.journal, err = recovery.NewJournal(recovery.JournalConfig{
		Window: pat.Window, Shards: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	var primRec rungtest.Recorder
	var released uint64 // last collector release watermark (the boundary)
	var relMu sync.Mutex
	ing, err := NewIngress(pat, rig.conns, IngressOptions{
		Batch: 64, KeyAttr: "key", Schema: row.Schema,
		OnTagged: primRec.Tagged,
		OnProgress: func(wm uint64) {
			relMu.Lock()
			if wm > released {
				released = wm
			}
			relMu.Unlock()
		},
		Epoch:    1,
		Addrs:    addrs,
		Recovery: &RecoveryConfig{OnCut: mir.onCut},
	})
	if err != nil {
		t.Fatal(err)
	}

	const killAt = 2500
	for i := 0; i < killAt; i++ {
		ing.Process(&row.Events[i])
		if (i+1)%512 == 0 {
			// Pace the feed so the workers' release frontier tracks it:
			// an unpaced coordinator can outrun single-CPU workers by the
			// whole prefix, leaving no emitted boundary to resume over.
			// (internal/ha gets the same effect from replication flow
			// control; this is a bare ingress.)
			deadline := time.Now().Add(10 * time.Second)
			for {
				relMu.Lock()
				r := released
				relMu.Unlock()
				if r+512 >= row.Events[i].Seq || time.Now().After(deadline) {
					break
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	ing.Kill()
	relMu.Lock()
	boundary := released
	relMu.Unlock()
	if mir.cuts == 0 || boundary == 0 {
		t.Fatalf("nothing to resume from: %d cuts mirrored, boundary %d", mir.cuts, boundary)
	}
	// Delivery is monotone in merge order, so the matches at or below the
	// boundary are a prefix of the primary's stream.
	kept := primRec.Stream()
	kept = kept[:sort.Search(len(kept), func(i int) bool { return kept[i].Seq > boundary })]
	if len(kept) == 0 {
		t.Fatal("primary delivered nothing below the boundary; test is vacuous")
	}

	// The successor: fresh dials to the replicated addresses, epoch 2,
	// resuming at the mirrored watermark with the emitted prefix
	// suppressed.
	var conns []Conn
	for _, a := range mir.addrs {
		c, err := DialTCP(a)
		if err != nil {
			t.Fatalf("re-dialing %s: %v", a, err)
		}
		conns = append(conns, c)
	}
	var succRec rungtest.Recorder
	succ, err := NewIngress(pat, conns, IngressOptions{
		Batch: 64, KeyAttr: "key", Schema: row.Schema,
		OnTagged: func(tm shard.Tagged) {
			if tm.Seq <= boundary {
				t.Errorf("successor re-emitted match at seq %d <= boundary %d", tm.Seq, boundary)
			}
			succRec.Tagged(tm)
		},
		Epoch: 2,
		Addrs: mir.addrs,
		Recovery: &RecoveryConfig{Resume: &ResumeState{
			NextSeq: mir.lastUpTo, Boundary: boundary,
			Owner: mir.owner, Journal: mir.journal,
		}},
	})
	if err != nil {
		t.Fatalf("building successor: %v", err)
	}
	refed := 0
	for i := 0; i < len(row.Events); i++ {
		if row.Events[i].Seq <= mir.lastUpTo {
			continue
		}
		succ.Process(&row.Events[i])
		refed++
	}
	if err := rungtest.Finish(t, succ.Finish); err != nil {
		t.Fatalf("successor finished with error: %v", err)
	}
	if refed == 0 {
		t.Fatal("no tail was re-fed")
	}

	rungtest.Require(t, "takeover", append(kept, succRec.Stream()...), want)

	mgs := succ.Migrations()
	adopted := 0
	for _, m := range mgs {
		if m.Reason == "takeover" {
			adopted++
			if m.CompletedAt.IsZero() {
				t.Fatalf("takeover adoption never acknowledged: %+v", m)
			}
		}
	}
	if adopted != 6 {
		t.Fatalf("%d takeover adoptions, want one per shard (6): %+v", adopted, mgs)
	}
}

// TestTakeoverEpochFence pins the worker-side fencing that keeps a dead
// primary from resurrecting: once a worker has served epoch 2, an
// epoch-1 coordinator (the zombie) is refused, while a fresh epoch-2
// session is still welcome.
func TestTakeoverEpochFence(t *testing.T) {
	row := rungtest.Lookup(t, "traffic/sequence")
	pat := row.Specs[0].Pattern
	node, err := NewNode(NodeConfig{
		Pattern: pat, Engine: engine.Config{CheckEvery: 250},
		Shards: 2, Batch: 64, KeyAttr: "key", Schema: row.Schema,
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	var rigErrs []error
	var mu sync.Mutex
	go node.ServeListener(l, func(e error) { //nolint:errcheck // closed at test end
		mu.Lock()
		rigErrs = append(rigErrs, e)
		mu.Unlock()
	})

	run := func(epoch uint64, events int) error {
		c, err := DialTCP(l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		ing, err := NewIngress(pat, []Conn{c}, IngressOptions{
			Batch: 64, KeyAttr: "key", Schema: row.Schema,
			OnTagged: func(shard.Tagged) {}, Epoch: epoch,
		})
		if err != nil {
			return err
		}
		for i := 0; i < events; i++ {
			ing.Process(&row.Events[i])
		}
		return rungtest.Finish(t, ing.Finish)
	}
	if err := run(2, 500); err != nil {
		t.Fatalf("founding epoch-2 session failed: %v", err)
	}
	if err := run(1, 500); err == nil {
		t.Fatal("worker served an epoch-1 coordinator after serving epoch 2")
	}
	if err := run(2, 500); err != nil {
		t.Fatalf("equal-epoch session refused after the fence tripped: %v", err)
	}
}

// TestRemoveNodeScaleIn pins the scale-in path symmetric to AddNode:
// RemoveNode drains a slot, retires its session cleanly, and releases
// its worker — which must be immediately reusable, here by re-joining
// the very same worker process and handing it a shard back.
func TestRemoveNodeScaleIn(t *testing.T) {
	row := rungtest.Lookup(t, "traffic/sequence")
	want := rungtest.Reference(t, row)
	rig := startRig(t, row, 0, nil, nil)
	removedAddr := connAddr(rig.conns[2])

	ec := (*ElasticConfig)(nil)
	rec, ing := runRig(t, rig, row, ec, map[int]func(*Ingress){
		2000: func(in *Ingress) {
			if err := in.RemoveNode(2); err != nil {
				t.Fatalf("RemoveNode: %v", err)
			}
			for g, o := range in.Owners() {
				if o == 2 {
					t.Fatalf("shard %d still on the removed slot", g)
				}
			}
		},
		3500: func(in *Ingress) {
			// The released worker re-joins: the same process serves a
			// fresh session and takes a shard back.
			c, err := DialTCP(removedAddr)
			if err != nil {
				t.Fatalf("re-dialing the released worker: %v", err)
			}
			n, err := in.AddNode(c)
			if err != nil {
				t.Fatalf("re-joining the released worker: %v", err)
			}
			if err := in.MigrateShard(0, n); err != nil {
				t.Fatalf("handing shard 0 back: %v", err)
			}
		},
	})
	rungtest.Require(t, "scale-in + rejoin", rec, want)
	drains, joins := 0, 0
	for _, m := range ing.Migrations() {
		switch m.Reason {
		case "drain":
			drains++
		case "join":
			joins++
		}
	}
	if drains != 2 || joins != 1 {
		t.Fatalf("migrations: %d drains and %d joins, want 2 drains (slot 2's shards) and 1 join: %+v",
			drains, joins, ing.Migrations())
	}
	if len(ing.Failovers()) != 0 {
		t.Fatalf("scale-in recorded failovers: %+v", ing.Failovers())
	}
}

// TestTakeoverRequiresMirror pins the guard rails around ResumeState:
// a resume without a journal or owner table must be refused outright.
func TestTakeoverRequiresMirror(t *testing.T) {
	row := rungtest.Lookup(t, "traffic/sequence")
	pat := row.Specs[0].Pattern
	rig := startRig(t, row, 0, nil, nil)
	_, err := NewIngress(pat, rig.conns, IngressOptions{
		Batch: 64, KeyAttr: "key", Schema: row.Schema,
		OnTagged: func(shard.Tagged) {}, Epoch: 2,
		Recovery: &RecoveryConfig{Resume: &ResumeState{NextSeq: 64}},
	})
	if err == nil || !strings.Contains(err.Error(), "Resume") {
		t.Fatalf("resume without a mirror built an ingress (err %v)", err)
	}
}
