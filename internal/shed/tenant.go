package shed

import (
	"sort"

	"acep/internal/event"
)

// Tenancy isolation: every pattern belongs to a tenant, and each tenant
// may carry a token-bucket budget over the events evaluated on its
// behalf. A tenant that exhausts its budget has its patterns' input shed
// *before* any global overload policy engages, so one noisy tenant's
// pattern set cannot crowd out the rest of the cluster — global shedding
// (the Shedder above) stays the backstop for aggregate overload.
//
// Like every other decision in this package, admission is a
// deterministic function of the event stream: buckets refill by logical
// (timestamp) time, not wall clock, so two runs over the same stream
// gate the same events. Note the corollary for replay: a freshly built
// gate starts with full buckets, so a stream replayed from a journal
// mid-run (migration, failover) re-decides admission from that state —
// exactly the precedent global shedding sets, which is why the cluster's
// byte-identity guarantees are stated for unbudgeted tenants.

// TenantBudget is a per-tenant token bucket: Rate tokens per logical
// second accrue up to Burst, and each admitted event costs one token.
type TenantBudget struct {
	// Rate is the sustained budget in events per logical second;
	// <= 0 means the tenant is unbudgeted (always admitted).
	Rate float64
	// Burst is the bucket capacity in events; <= 0 defaults to Rate.
	Burst float64
}

// TenantStat is one tenant's admission accounting.
type TenantStat struct {
	Tenant   uint32
	Admitted uint64
	Shed     uint64
}

// Recall is the tenant's admitted fraction — the recall proxy surfaced
// in cluster metrics (a k-event match needs all k constituents admitted,
// so per-pattern recall is roughly this fraction raised to the pattern
// size; see Metrics.RecallEstimate).
func (t TenantStat) Recall() float64 {
	total := t.Admitted + t.Shed
	if total == 0 {
		return 1
	}
	return float64(t.Admitted) / float64(total)
}

// tenantState is one tenant's live bucket.
type tenantState struct {
	budget   TenantBudget
	tokens   float64
	last     event.Time
	started  bool
	admitted uint64
	shed     uint64
}

// TenantGate admits or sheds events per tenant. Not safe for concurrent
// use; each evaluator (shard worker) drives its own gate, so budgets are
// per-evaluator — callers hosting an N-way sharded tenant should divide
// the tenant's global budget by N.
type TenantGate struct {
	states map[uint32]*tenantState
}

// NewTenantGate builds a gate from the given budgets. Tenants absent
// from the map are unbudgeted but still accounted once observed.
func NewTenantGate(budgets map[uint32]TenantBudget) *TenantGate {
	g := &TenantGate{states: make(map[uint32]*tenantState)}
	for id, b := range budgets {
		g.setBudget(id, b)
	}
	return g
}

// setBudget installs or replaces a tenant's budget. The bucket restarts
// full (deterministic for a given install point in the stream).
func (g *TenantGate) setBudget(tenant uint32, b TenantBudget) {
	if b.Burst <= 0 {
		b.Burst = b.Rate
	}
	st := g.state(tenant)
	st.budget = b
	st.tokens = b.Burst
	st.started = false
}

func (g *TenantGate) state(tenant uint32) *tenantState {
	st := g.states[tenant]
	if st == nil {
		st = &tenantState{}
		g.states[tenant] = st
	}
	return st
}

// Admit decides one event for one tenant: true to evaluate it on the
// tenant's patterns. Callers must invoke Admit exactly once per arriving
// event per hosted tenant, in stream order (each call costs the tenant
// one token when budgeted). Behind the shard and cluster routers an event
// arrives only if some hosted pattern reads its type, so an elided event
// costs no token.
func (g *TenantGate) Admit(tenant uint32, ts event.Time) bool {
	st := g.state(tenant)
	if st.budget.Rate <= 0 {
		st.admitted++
		return true
	}
	if !st.started {
		st.started = true
		st.last = ts
	}
	if ts > st.last {
		st.tokens += st.budget.Rate * float64(ts-st.last) / float64(event.Second)
		if st.tokens > st.budget.Burst {
			st.tokens = st.budget.Burst
		}
		st.last = ts
	}
	if st.tokens >= 1 {
		st.tokens--
		st.admitted++
		return true
	}
	st.shed++
	return false
}

// Stats reports every observed tenant's accounting, ordered by tenant id.
func (g *TenantGate) Stats() []TenantStat {
	out := make([]TenantStat, 0, len(g.states))
	for id, st := range g.states {
		out = append(out, TenantStat{Tenant: id, Admitted: st.admitted, Shed: st.shed})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}
