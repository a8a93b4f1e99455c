package acep_test

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"acep"
	"acep/internal/cluster"
)

// TestFacadeCluster runs the quick-start person pattern through the
// in-process cluster ingress at several node layouts and checks the
// match set against the single-threaded engine — the facade-level slice
// of the cluster layer's exactness property.
func TestFacadeCluster(t *testing.T) {
	schema, pat, types := personPattern(t)

	var events []acep.Event
	seq := uint64(0)
	for step, typ := range types {
		for person := 0; person < 40; person++ {
			seq++
			events = append(events, acep.Event{
				Type:  typ,
				TS:    acep.Time(step*60+person) * acep.Second,
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

	// listen serves a node on a loopback listener for Connect mode; a bare
	// one (no pattern) is a standby, which learns the set at adoption.
	listen := func(bare bool) string {
		nc := cluster.NodeConfig{Shards: 2, Batch: 16, KeyAttr: "person_id"}
		if !bare {
			nc.Pattern, nc.Schema = pat, schema
		}
		node, err := cluster.NewNode(nc)
		if err != nil {
			t.Fatal(err)
		}
		l, err := cluster.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		go node.ServeListener(l, nil) //nolint:errcheck // ends when the listener closes
		return l.Addr()
	}
	for _, c := range []struct {
		name string
		cc   acep.ClusterConfig
	}{
		{"1 node x 1 shard", acep.ClusterConfig{Local: &acep.ClusterLocal{Nodes: 1, ShardsPerNode: 1}}},
		{"2 nodes x 2 shards", acep.ClusterConfig{Local: &acep.ClusterLocal{Nodes: 2, ShardsPerNode: 2}}},
		{"3 nodes x 1 shard", acep.ClusterConfig{Local: &acep.ClusterLocal{Nodes: 3, ShardsPerNode: 1}}},
		{"Connect", acep.ClusterConfig{Remote: &acep.ClusterRemote{Connect: []string{listen(false), listen(false)}}}},
		{"local Recover", acep.ClusterConfig{
			Local: &acep.ClusterLocal{Nodes: 2, ShardsPerNode: 2}, Recover: &acep.ClusterRecovery{},
		}},
		{"Connect Recover", acep.ClusterConfig{
			Remote:  &acep.ClusterRemote{Connect: []string{listen(false), listen(false)}, Standby: []string{listen(true)}},
			Recover: &acep.ClusterRecovery{},
		}},
	} {
		var got []string
		c.cc.Batch, c.cc.KeyAttr, c.cc.Schema = 16, "person_id", schema
		c.cc.OnMatch = func(m *acep.Match) { got = append(got, m.Key()) }
		ing, err := acep.NewClusterIngress(pat, c.cc)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for i := range events {
			ing.Process(&events[i])
		}
		if err := ing.Finish(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sort.Strings(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %d matches vs %d", c.name, len(got), len(want))
		}
		if ing.Metrics().EventsArrived != uint64(len(events)) {
			t.Fatalf("%s: merged metrics missed events", c.name)
		}
	}
}

// TestFacadeClusterConfigGates: NewClusterIngress refuses the
// combinations its types cannot rule out, naming the fields. Each row
// fails before anything is spawned or dialed.
func TestFacadeClusterConfigGates(t *testing.T) {
	schema, pat, _ := personPattern(t)
	connect := []string{"127.0.0.1:1"}
	for _, c := range []struct {
		name string
		cc   acep.ClusterConfig
		want string // in the error
	}{
		{"neither Local nor Remote", acep.ClusterConfig{}, "exactly one of Local and Remote"},
		{"both Local and Remote", acep.ClusterConfig{
			Local: &acep.ClusterLocal{}, Remote: &acep.ClusterRemote{Connect: connect},
		}, "exactly one of Local and Remote"},
		{"Standby without Recover", acep.ClusterConfig{
			Remote: &acep.ClusterRemote{Connect: connect, Standby: connect},
		}, "Remote.Standby needs Recover"},
		{"Recover over Remote without Standby", acep.ClusterConfig{
			Remote: &acep.ClusterRemote{Connect: connect}, Recover: &acep.ClusterRecovery{},
		}, "Recover over Remote needs Remote.Standby"},
	} {
		c.cc.KeyAttr, c.cc.Schema = "person_id", schema
		c.cc.OnMatch = func(*acep.Match) {}
		_, err := acep.NewClusterIngress(pat, c.cc)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one naming %s", c.name, err, c.want)
		}
	}
}

// TestFacadeClusterRejectsUnpartitionable: the cluster enforces the same
// partitionability precondition as the sharded engine.
func TestFacadeClusterRejectsUnpartitionable(t *testing.T) {
	schema := acep.NewSchema()
	a := schema.MustAddType("A", "person_id")
	b := schema.MustAddType("B", "person_id")
	pb := acep.NewPattern(schema, acep.Seq, acep.Minute)
	pb.Event(a)
	pb.Event(b) // no WhereEq: matches may span persons
	pat := pb.MustBuild()
	_, err := acep.NewClusterIngress(pat, acep.ClusterConfig{
		Local:   &acep.ClusterLocal{Nodes: 2},
		KeyAttr: "person_id",
		Schema:  schema,
	})
	if err == nil {
		t.Fatal("unpartitionable pattern accepted")
	}
}
