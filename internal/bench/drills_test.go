package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// recordedDrill is a DrillRecord as read back from a BENCH_drills.json
// object, which also pins the field names of the file format.
type recordedDrill struct {
	ID         string `json:"id"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Dataset    string `json:"dataset"`
	Events     int    `json:"events"`
	Keys       int    `json:"keys"`
	Batch      int    `json:"batch"`
	Seed       int64  `json:"seed"`
	Runs       []recordedRun
}

type recordedRun struct {
	Scenario      string             `json:"scenario"`
	Nodes         int                `json:"nodes"`
	ShardsPerNode int                `json:"shards_per_node"`
	BareNodes     int                `json:"bare_nodes"`
	Matches       uint64             `json:"matches"`
	Digest        string             `json:"digest"`
	Metrics       map[string]float64 `json:"metrics"`
}

// positive fails unless the run reports every named column above zero.
func positive(t *testing.T, run recordedRun, names ...string) {
	t.Helper()
	for _, name := range names {
		if v, ok := run.Metrics[name]; !ok || v <= 0 {
			t.Errorf("%s: %s = %v (reported: %v), want > 0", run.Scenario, name, v, ok)
		}
	}
}

// reported fails unless the run has every named column, whatever its value.
func reported(t *testing.T, run recordedRun, names ...string) {
	t.Helper()
	for _, name := range names {
		if _, ok := run.Metrics[name]; !ok {
			t.Errorf("%s: %s not reported", run.Scenario, name)
		}
	}
}

// drillChecks holds, per drill, how many scenarios it runs and the one
// thing each must produce — on top of what the rig enforces for every
// run: a delivered digest equal to a non-vacuous single-process
// reference, and the injected fault taking effect exactly as often as
// the scenario says (one failover, one takeover, one demotion).
var drillChecks = map[string]struct {
	scenarios int
	check     func(t *testing.T, run recordedRun)
}{
	"failover": {5, func(t *testing.T, run recordedRun) {
		positive(t, run, "recovery_ms", "journal_bytes", "replay_cuts", "replay_events")
		if run.BareNodes != 1 || run.ShardsPerNode != 2 {
			t.Errorf("%s: %d standbys, %d shards/node", run.Scenario, run.BareNodes, run.ShardsPerNode)
		}
	}},
	"elastic": {2, func(t *testing.T, run recordedRun) {
		if run.Scenario == "join-static" {
			if run.Metrics["migrations"] != 0 {
				t.Errorf("join-static migrated %v shards without a controller", run.Metrics["migrations"])
			}
			return
		}
		positive(t, run, "to_joiner", "max_pause_ms", "recovery_ms")
	}},
	"ha": {1, func(t *testing.T, run recordedRun) {
		positive(t, run, "takeover_ms", "mirror_cuts", "mirror_events")
		reported(t, run, "replay_events", "refed_events", "skipped_matches")
	}},
	"chaos": {2, func(t *testing.T, run recordedRun) {
		if run.Scenario == "faulty-link" {
			positive(t, run, "injected_dups", "injected_delays")
			return
		}
		positive(t, run, "demote_ms", "takeover_ms", "recovery_ms")
		reported(t, run, "lease_committed_matches", "skipped_matches")
	}},
}

// TestDrills runs every scenario of every drill on both datasets through
// the registry, so dispatch, the table printer and the JSON record are
// covered together with the rig.
func TestDrills(t *testing.T) {
	if testing.Short() {
		t.Skip("fault drills in -short mode")
	}
	// tinyScale, but long enough for the placement controller, which
	// decides at most every 16 cuts, to decide several times after the
	// elastic join a third in, and wide enough for the size-4 keyed
	// sequence to fire on traffic: the rig refuses a vacuous reference.
	sc := tinyScale()
	sc.Events, sc.Window = 20000, 150
	for name, want := range drillChecks {
		for _, dataset := range datasets {
			id := name + "-" + dataset
			t.Run(id, func(t *testing.T) {
				var table, record bytes.Buffer
				r := NewRunner(NewHarness(sc))
				r.JSON = &record
				if err := r.Run(&table, id); err != nil {
					t.Fatal(err)
				}
				var rec recordedDrill
				if err := json.Unmarshal(record.Bytes(), &rec); err != nil {
					t.Fatalf("record is not one JSON object: %v\n%s", err, record.String())
				}
				if rec.ID != id || rec.Dataset != dataset || rec.Events != sc.Events || rec.Seed != sc.Seed ||
					rec.Batch != drillBatch || rec.Keys == 0 || rec.GOMAXPROCS == 0 || rec.GoVersion == "" {
					t.Errorf("record does not state its own set-up: %+v", rec)
				}
				if len(rec.Runs) != want.scenarios {
					t.Fatalf("%d runs recorded, want %d", len(rec.Runs), want.scenarios)
				}
				digests := map[int]string{} // total shards -> digest
				for _, run := range rec.Runs {
					total := run.Nodes * run.ShardsPerNode
					if run.Matches == 0 || len(run.Digest) != 16 {
						t.Errorf("%s: vacuous run (%d matches, digest %q)", run.Scenario, run.Matches, run.Digest)
					}
					if d, ok := digests[total]; ok && d != run.Digest {
						t.Errorf("%s: digest %s differs from an earlier run's %s at %d shards", run.Scenario, run.Digest, d, total)
					}
					digests[total] = run.Digest
					if !strings.Contains(table.String(), run.Scenario) {
						t.Errorf("table lacks a row for %s:\n%s", run.Scenario, table.String())
					}
					want.check(t, run)
				}
			})
		}
	}
	if _, err := NewHarness(sc).Drill("nope", "traffic"); err == nil {
		t.Error("unknown drill accepted")
	}
}
