package acep_test

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"acep"
	"acep/internal/cluster"
)

// TestFacadeHA runs the quick-start person pattern through a replicated
// coordinator pair over loopback-TCP workers, kills the primary halfway,
// and checks the delivered match set against the single-threaded engine
// — the facade-level slice of the ingress-HA takeover property.
func TestFacadeHA(t *testing.T) {
	schema, pat, types := personPattern(t)

	// 200 persons per step: enough cuts (batch 16) for the standby's
	// mirror to be warm at the kill point.
	var events []acep.Event
	seq := uint64(0)
	for step, typ := range types {
		for person := 0; person < 200; person++ {
			seq++
			events = append(events, acep.Event{
				Type:  typ,
				TS:    acep.Time(step*200+person) * acep.Second,
				Seq:   seq,
				Attrs: []float64{float64(person)},
			})
		}
	}

	var want []string
	single, err := acep.NewEngine(pat, acep.Config{
		OnMatch: func(m *acep.Match) { want = append(want, m.Key()) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range events {
		single.Process(&events[i])
	}
	single.Finish()
	sort.Strings(want)
	if len(want) == 0 {
		t.Fatal("reference found no matches")
	}

	// Loopback-TCP worker nodes: the replicated pair needs Connect mode.
	var addrs []string
	for i := 0; i < 2; i++ {
		node, err := cluster.NewNode(cluster.NodeConfig{
			Pattern: pat, Schema: schema,
			Shards: 2, Batch: 16, KeyAttr: "person_id",
		})
		if err != nil {
			t.Fatal(err)
		}
		l, err := cluster.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		go node.ServeListener(l, nil) //nolint:errcheck // killed sessions error by design
		addrs = append(addrs, l.Addr())
	}

	var got []string
	ing, err := acep.NewHAIngress(pat, acep.HAConfig{
		Remote:  acep.ClusterRemote{Connect: addrs},
		Batch:   16,
		KeyAttr: "person_id",
		Schema:  schema,
		OnMatch: func(m *acep.Match) { got = append(got, m.Key()) },
	})
	if err != nil {
		t.Fatal(err)
	}
	killAt := len(events) / 2
	for i := range events {
		if i == killAt {
			if err := ing.KillPrimary(); err != nil {
				t.Fatal(err)
			}
		}
		ing.Process(&events[i])
	}
	if err := ing.Finish(); err != nil {
		t.Fatal(err)
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("HA takeover run delivered %d matches, reference %d", len(got), len(want))
	}
	tk := ing.Takeover()
	if tk == nil {
		t.Fatal("killed primary recorded no takeover")
	}
	if tk.Epoch != 2 || tk.Workers != 2 {
		t.Fatalf("takeover = %+v, want epoch 2 over 2 workers", tk)
	}
	if d := ing.Demotion(); d != nil {
		t.Fatalf("the primary demoted before its kill: %s", d.Cause)
	}
}

// TestFacadeHAConfigGates: the pair constructor enforces its own
// preconditions. Each row fails before anything is dialed.
func TestFacadeHAConfigGates(t *testing.T) {
	schema, pat, _ := personPattern(t)
	onMatch := func(*acep.Match) {}
	connect := acep.ClusterRemote{Connect: []string{"127.0.0.1:1"}}
	for _, c := range []struct {
		name string
		cc   acep.HAConfig
		want string // in the error
	}{
		{"no Connect", acep.HAConfig{OnMatch: onMatch}, "Connect"},
		{"no sink", acep.HAConfig{Remote: connect}, "OnMatch"},
	} {
		c.cc.KeyAttr, c.cc.Schema = "person_id", schema
		_, err := acep.NewHAIngress(pat, c.cc)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one naming %s", c.name, err, c.want)
		}
	}
}
