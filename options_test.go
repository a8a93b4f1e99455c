package acep_test

import (
	"reflect"
	"slices"
	"testing"

	"acep"
)

// TestOptionSurface pins the fields of every config struct the facade
// names. Each field is a value some caller can set, and every one of them
// multiplies the configurations the tests and benchmarks must cover. So a
// field is added only with a non-test caller that sets it to a value other
// than its default, and the list below changes in the same commit; a field
// whose last such caller goes is deleted, and leaves the list with it.
func TestOptionSurface(t *testing.T) {
	for _, c := range []struct {
		name string
		typ  reflect.Type
		want []string
	}{
		{"Config", reflect.TypeFor[acep.Config](), []string{
			"Model", "NewPolicy", "Stats", "CheckEvery", "InitialStats", "OnMatch",
			"ExternalEvents", "OwnedEmit", "Shedding"}},
		{"ShardedConfig", reflect.TypeFor[acep.ShardedConfig](), []string{
			"Shards", "Batch", "QueueCap", "Overflow", "Key", "KeyAttr", "Schema",
			"OnMatch", "OnTagged", "OnProgress", "Patterns", "Tenants", "EncodeMatch"}},
		{"ClusterConfig", reflect.TypeFor[acep.ClusterConfig](), []string{
			"Connect", "Nodes", "ShardsPerNode", "Batch", "QueueCap", "KeyAttr", "Schema",
			"Key", "OnMatch", "Patterns", "Tenants", "OnTagged", "Recover", "Standby",
			"StandbyNodes", "HeartbeatTimeout", "MaxJournalBytes", "OnFailover", "Elastic"}},
		{"SheddingConfig", reflect.TypeFor[acep.SheddingConfig](), []string{
			"Policy", "Budget", "RefreshEvery", "Key"}},
		{"ShedBudget", reflect.TypeFor[acep.ShedBudget](), []string{
			"LivePMs", "EventsPerSec", "QueueWait"}},
		{"ClusterElastic", reflect.TypeFor[acep.ClusterElastic](), []string{
			"HotRatio", "CooldownCuts"}},
		{"InvariantOptions", reflect.TypeFor[acep.InvariantOptions](), []string{
			"K", "Distance", "AutoDistance"}},
	} {
		var got []string
		for i := range c.typ.NumField() {
			got = append(got, c.typ.Field(i).Name)
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%s fields are %q, want %q: a new option needs a non-test caller "+
				"that sets a non-default value, and an option no such caller sets is deleted",
				c.name, got, c.want)
		}
	}
}
