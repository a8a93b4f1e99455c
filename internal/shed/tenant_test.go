package shed

import (
	"testing"

	"acep/internal/event"
)

func TestTenantGateUnbudgeted(t *testing.T) {
	g := NewTenantGate(nil)
	for i := 0; i < 100; i++ {
		if !g.Admit(7, event.Time(i)) {
			t.Fatalf("unbudgeted tenant shed at %d", i)
		}
	}
	st := g.Stats()
	if len(st) != 1 || st[0].Tenant != 7 || st[0].Admitted != 100 || st[0].Shed != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st[0].Recall() != 1 {
		t.Fatalf("recall = %v", st[0].Recall())
	}
}

func TestTenantGateBudgetEnforced(t *testing.T) {
	// 10 events/logical-second, burst 10; offer 50 events per second for
	// 10 seconds: ~10 admitted per second after the initial burst.
	g := NewTenantGate(map[uint32]TenantBudget{1: {Rate: 10}})
	admitted := 0
	for sec := 0; sec < 10; sec++ {
		for i := 0; i < 50; i++ {
			ts := event.Time(sec)*event.Second + event.Time(i)*event.Second/50
			if g.Admit(1, ts) {
				admitted++
			}
		}
	}
	// Initial full burst (10) plus ~10/s refill over ~10s.
	if admitted < 100 || admitted > 120 {
		t.Fatalf("admitted %d of 500, want ~110", admitted)
	}
	st := g.Stats()
	if st[0].Admitted != uint64(admitted) || st[0].Shed != uint64(500-admitted) {
		t.Fatalf("stats = %+v (admitted %d)", st, admitted)
	}
	if r := st[0].Recall(); r < 0.15 || r > 0.30 {
		t.Fatalf("recall = %v", r)
	}
}

func TestTenantGateDeterministic(t *testing.T) {
	run := func() []bool {
		g := NewTenantGate(map[uint32]TenantBudget{3: {Rate: 5, Burst: 2}})
		var out []bool
		for i := 0; i < 400; i++ {
			ts := event.Time(i) * event.Second / 17
			out = append(out, g.Admit(3, ts))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d diverged", i)
		}
	}
}

func TestTenantGateIsolation(t *testing.T) {
	// Tenant 1 is budgeted and noisy; tenant 2 is unbudgeted and must be
	// untouched by 1's exhaustion.
	g := NewTenantGate(map[uint32]TenantBudget{1: {Rate: 1, Burst: 1}})
	for i := 0; i < 1000; i++ {
		ts := event.Time(i) * event.Second / 100
		g.Admit(1, ts)
		if !g.Admit(2, ts) {
			t.Fatalf("tenant 2 shed at %d", i)
		}
	}
	st := g.Stats()
	if st[0].Shed == 0 {
		t.Fatalf("noisy tenant never shed: %+v", st)
	}
	if st[1].Shed != 0 || st[1].Admitted != 1000 {
		t.Fatalf("quiet tenant disturbed: %+v", st)
	}
}

func TestTenantGateRuntimeBudgetChange(t *testing.T) {
	g := NewTenantGate(nil)
	for i := 0; i < 10; i++ {
		g.Admit(5, event.Time(i))
	}
	g.setBudget(5, TenantBudget{Rate: 1, Burst: 1})
	shed := 0
	for i := 10; i < 30; i++ {
		if !g.Admit(5, event.Time(i)) {
			shed++
		}
	}
	if shed == 0 {
		t.Fatal("budget installed at runtime never engaged")
	}
}
