package acep_test

import (
	"reflect"
	"slices"
	"testing"

	"acep"
	"acep/internal/cluster"
	"acep/internal/core"
	"acep/internal/ha"
	recovery "acep/internal/recover"
)

// TestOptionSurface pins the exported fields of every config struct the
// facade names, and of the internal ones the facade, the commands and the
// HA pair configure each other through. Each field is a value some caller
// can set, and every one of them multiplies the configurations the tests
// and benchmarks must cover. So a field is added only with a non-test
// caller that sets it to a value other than its default, and the list
// below changes in the same commit; a field whose last such caller goes
// is deleted, and leaves the list with it.
func TestOptionSurface(t *testing.T) {
	for _, c := range []struct {
		name string
		typ  reflect.Type
		want []string
	}{
		{"Config", reflect.TypeFor[acep.Config](), []string{
			"Model", "NewPolicy", "CheckEvery", "InitialStats", "OnMatch",
			"ExternalEvents", "OwnedEmit", "Shedding"}},
		{"ShardedConfig", reflect.TypeFor[acep.ShardedConfig](), []string{
			"Shards", "Batch", "QueueCap", "Overflow", "KeyAttr", "Schema",
			"OnMatch", "OnTagged", "OnProgress", "Patterns", "Tenants", "EncodeMatch"}},
		{"ClusterConfig", reflect.TypeFor[acep.ClusterConfig](), []string{
			"Local", "Remote", "Batch", "KeyAttr", "Schema", "OnMatch", "Patterns",
			"Tenants", "OnTagged", "Recover"}},
		{"ClusterLocal", reflect.TypeFor[acep.ClusterLocal](), []string{
			"Nodes", "ShardsPerNode", "QueueCap", "Engine"}},
		{"ClusterRemote", reflect.TypeFor[acep.ClusterRemote](), []string{"Connect", "Standby"}},
		{"ClusterRecovery", reflect.TypeFor[acep.ClusterRecovery](), []string{
			"HeartbeatTimeout", "Elastic"}},
		{"HAConfig", reflect.TypeFor[acep.HAConfig](), []string{
			"Remote", "Batch", "KeyAttr", "Schema", "OnMatch", "OnTagged", "HeartbeatTimeout"}},
		{"SheddingConfig", reflect.TypeFor[acep.SheddingConfig](), []string{
			"Policy", "Budget", "Key"}},
		{"ShedBudget", reflect.TypeFor[acep.ShedBudget](), []string{
			"LivePMs", "EventsPerSec", "QueueWait"}},
		{"ClusterElastic", reflect.TypeFor[acep.ClusterElastic](), []string{
			"HotRatio", "CooldownCuts"}},
		{"InvariantOptions", reflect.TypeFor[acep.InvariantOptions](), []string{
			"K", "Distance", "AutoDistance"}},
		{"cluster.RecoveryConfig", reflect.TypeFor[cluster.RecoveryConfig](), []string{
			"Standby", "HeartbeatTimeout", "Elastic", "OnCut", "Resume"}},
		{"cluster.NodeConfig", reflect.TypeFor[cluster.NodeConfig](), []string{
			"Pattern", "Engine", "Shards", "Batch", "QueueCap", "Overflow", "KeyAttr", "Schema"}},
		{"cluster.IngressOptions", reflect.TypeFor[cluster.IngressOptions](), []string{
			"Batch", "KeyAttr", "Schema", "OnMatch", "OnTagged", "Patterns", "Tenants",
			"Recovery", "Epoch", "OnProgress", "Addrs"}},
		{"ha.Config", reflect.TypeFor[ha.Config](), []string{
			"Pattern", "Schema", "KeyAttr", "Batch", "Workers", "Standbys", "OnTagged",
			"HeartbeatTimeout", "StandbyAddr", "LeaseAddr", "LeaseTTL", "ReplTimeout",
			"WrapRepl"}},
		{"core.MetaInvariant", reflect.TypeFor[core.MetaInvariant](), []string{"InitialD"}},
		// The journal's slack and byte bound are the one exception: only the
		// journal's own tests set them, to reach trimming on small inputs.
		{"recovery.JournalConfig", reflect.TypeFor[recovery.JournalConfig](), []string{
			"Window", "Shards", "SlackWindows", "MaxBytes"}},
	} {
		var got []string
		for i := range c.typ.NumField() {
			if f := c.typ.Field(i); f.IsExported() {
				got = append(got, f.Name)
			}
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%s fields are %q, want %q: a new option needs a non-test caller "+
				"that sets a non-default value, and an option no such caller sets is deleted",
				c.name, got, c.want)
		}
	}
}

// TestMethodSurface pins the exported methods of the two coordinators
// the facade names. Each is a call some program makes: a method is added
// only with a non-test caller, and one whose last such caller goes is
// deleted — or unexported, when the package's own tests still drive it.
func TestMethodSurface(t *testing.T) {
	for _, c := range []struct {
		name string
		typ  reflect.Type
		want []string
	}{
		{"ClusterIngress", reflect.TypeFor[*acep.ClusterIngress](), []string{
			"AddNode", "AddPattern", "Drain", "Err", "Failovers", "Finish", "Kill", "Metrics",
			"MigrateShard", "Migrations", "NodeMetrics", "Nodes", "PatternMetrics", "Process",
			"RemovePattern", "TenantStats", "TotalShards"}},
		{"HAIngress", reflect.TypeFor[*acep.HAIngress](), []string{
			"Degraded", "Demotion", "Finish", "Ingress", "KillPrimary", "MirrorStats", "Process",
			"Takeover"}},
	} {
		var got []string
		for i := range c.typ.NumMethod() {
			got = append(got, c.typ.Method(i).Name)
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%s methods are %q, want %q: a new method needs a non-test caller, "+
				"and a method no such caller calls is deleted", c.name, got, c.want)
		}
	}
}
