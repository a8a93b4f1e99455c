package stats

import (
	"fmt"

	"acep/internal/event"
	"acep/internal/pattern"
)

// Config tunes an Estimator. The zero value is usable: Defaults are
// applied by NewEstimator.
type Config struct {
	// Window is the statistics window; zero defaults to 20x the pattern
	// window, large enough that per-type counts are statistically stable
	// while still tracking regime changes quickly. Rates and
	// selectivities describe the stream over this trailing interval.
	Window event.Time
	// EHEps is the relative-error target of the exponential histograms
	// (default 0.05).
	EHEps float64
	// SampleSize is the per-position recent-event ring capacity used for
	// selectivity estimation (default 24).
	SampleSize int
	// Alpha is the EWMA smoothing factor for selectivities in (0,1]
	// (default 0.5; 1 disables smoothing).
	Alpha float64
	// MinSel floors selectivity estimates away from zero so that cost
	// products stay well-defined and tiny-selectivity noise does not
	// translate into huge relative swings (default 1e-3).
	MinSel float64
}

func (c Config) withDefaults(patWindow event.Time) Config {
	if c.Window <= 0 {
		c.Window = 20 * patWindow
	}
	if c.EHEps <= 0 {
		c.EHEps = 0.05
	}
	if c.SampleSize <= 0 {
		c.SampleSize = 24
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.5
	}
	if c.MinSel <= 0 {
		c.MinSel = 1e-3
	}
	return c
}

// Estimator maintains the running statistics for one (non-OR) pattern.
// Feed it every input event via Observe; read the current estimates with
// Snapshot. An Estimator is the paper's dedicated statistics-collection
// component (Figure 2).
//
// Estimators are not safe for concurrent use; the engine drives one from
// its event loop.
type Estimator struct {
	pat     *pattern.Pattern
	cfg     Config
	ehs     []*EH        // per position
	rings   []sampleRing // per position
	cols    columns      // which ring column each predicate reads
	counts  []predCount  // per predicate, as of the last refresh
	selPred []float64    // per predicate, EWMA-smoothed
	seeded  []bool       // per predicate: has a first estimate landed
	version uint64
	// snaps are the two snapshots Snapshot refills in turn; turn is the
	// one the next call refills.
	snaps [2]*Snapshot
	turn  int
}

// predCount is a predicate's pass/total over the sample rings, with the
// rings' add counts at the time it was taken: while those have not moved
// the columns have not either, and the count is reused.
type predCount struct {
	pass, total  int
	addsL, addsR uint64
}

// NewEstimator builds an estimator for the pattern. OR patterns are
// rejected; the engine maintains one estimator per disjunct.
func NewEstimator(pat *pattern.Pattern, cfg Config) (*Estimator, error) {
	if pat.Op == pattern.Or {
		return nil, fmt.Errorf("stats: estimator works per sub-pattern; got OR")
	}
	cfg = cfg.withDefaults(pat.Window)
	n := pat.NumPositions()
	e := &Estimator{
		pat:     pat,
		cfg:     cfg,
		ehs:     make([]*EH, n),
		rings:   make([]sampleRing, n),
		cols:    layoutColumns(pat),
		counts:  make([]predCount, len(pat.Preds)),
		selPred: make([]float64, len(pat.Preds)),
		seeded:  make([]bool, len(pat.Preds)),
		snaps:   [2]*Snapshot{NewSnapshot(n), NewSnapshot(n)},
	}
	for i := 0; i < n; i++ {
		eh, err := NewEH(cfg.Window, cfg.EHEps)
		if err != nil {
			return nil, err
		}
		e.ehs[i] = eh
		e.rings[i] = newSampleRing(e.cols.attrs[i], cfg.SampleSize)
	}
	for i := range e.selPred {
		e.selPred[i] = 1 // optimistic until observed
	}
	return e, nil
}

// Observe records one input event. Events whose type matches no pattern
// position are ignored. An event type occupying several positions updates
// each of them.
//
// The event is not retained: its timestamp and the attribute values the
// pattern's predicates read are copied before Observe returns, so the
// caller may overwrite or release ev and its Attrs immediately.
func (e *Estimator) Observe(ev *event.Event) {
	for _, i := range e.pat.PositionsOfType(ev.Type) {
		e.ehs[i].Add(ev.TS)
		e.rings[i].add(ev.Attrs)
	}
}

// refreshSelectivities recounts every predicate whose sample rings
// changed since the previous refresh and folds each predicate's count
// into its EWMA estimate. The fold runs on every refresh, changed or not:
// an unchanged observation still pulls the smoothed estimate toward it.
func (e *Estimator) refreshSelectivities() {
	for k := range e.pat.Preds {
		pr := &e.pat.Preds[k]
		cnt := &e.counts[k]
		lring, rring := &e.rings[pr.L], &e.rings[pr.L] // unary: countPred ignores the right column
		if !pr.IsUnary() {
			rring = &e.rings[pr.R]
		}
		if cnt.addsL != lring.adds || cnt.addsR != rring.adds {
			cnt.pass, cnt.total = countPred(pr, lring.col(e.cols.l[k]), rring.col(e.cols.r[k]))
			cnt.addsL, cnt.addsR = lring.adds, rring.adds
		}
		if cnt.total == 0 {
			continue // keep previous estimate
		}
		obs := float64(cnt.pass) / float64(cnt.total)
		if obs < e.cfg.MinSel {
			obs = e.cfg.MinSel
		}
		if !e.seeded[k] {
			e.selPred[k] = obs
			e.seeded[k] = true
		} else {
			e.selPred[k] = e.cfg.Alpha*obs + (1-e.cfg.Alpha)*e.selPred[k]
		}
	}
}

// Snapshot refreshes the selectivity estimates and returns all statistics
// as of now, in storage the estimator owns: it keeps two snapshots and
// refills them in turn, so a snapshot it returned stays unchanged until
// the call after the next one — an adaptation loop's last snapshot lasts
// a full check interval. A caller that keeps one longer Clones it.
func (e *Estimator) Snapshot(now event.Time) *Snapshot {
	e.refreshSelectivities()
	n := e.pat.NumPositions()
	s := e.snaps[e.turn]
	e.turn ^= 1
	e.version++
	s.Version = e.version
	for i := 0; i < n; i++ {
		s.Rates[i] = e.ehs[i].Rate(now)
	}
	for i := 0; i < n; i++ {
		u := 1.0
		for _, k := range e.pat.PredsAt(i) {
			u *= e.selPred[k]
		}
		s.Sel[i][i] = u
		for j := i + 1; j < n; j++ {
			v := 1.0
			for _, k := range e.pat.PredsBetween(i, j) {
				v *= e.selPred[k]
			}
			s.SetSym(i, j, v)
		}
	}
	return s
}

// Window returns the statistics window in effect.
func (e *Estimator) Window() event.Time { return e.cfg.Window }
