package stats

import (
	"fmt"
	"strings"
)

// Snapshot holds all statistics for one pattern at one instant:
// per-position arrival rates and the combined selectivity of the
// predicates between every pair of positions. It is the STAT argument of
// the paper's reoptimizing decision function D and of the plan generation
// algorithm A.
//
// A snapshot an Estimator returns is the estimator's storage, refilled by
// its next-but-one Snapshot call (see Estimator.Snapshot); one built with
// NewSnapshot, Clone or Exact belongs to its caller, and no Estimator
// writes into it.
//
// Indexing is by pattern position (not by event type): Rates[i] is the
// arrival rate of the type at position i in events/second, Sel[i][j]
// (i != j) is the product of the selectivities of the binary predicates
// between positions i and j, and Sel[i][i] is the product of the unary
// predicate selectivities at position i.
//
// Contract: Sel[i][j] must equal exactly 1 whenever no predicate connects
// positions i and j. Cost models and recorded invariant expressions rely
// on this to skip predicate-free pairs; the Estimator maintains it by
// construction, and hand-built snapshots must respect it.
type Snapshot struct {
	Rates []float64
	Sel   [][]float64
	// Version increases with every snapshot taken by an Estimator, letting
	// consumers detect staleness cheaply.
	Version uint64
}

// NewSnapshot allocates an n-position snapshot with unit selectivities and
// zero rates. The rates and the selectivity rows share one array.
func NewSnapshot(n int) *Snapshot {
	vals := make([]float64, n+n*n)
	s := &Snapshot{Rates: vals[:n:n], Sel: make([][]float64, n)}
	for i := range s.Sel {
		row := vals[n+i*n : n+(i+1)*n : n+(i+1)*n]
		for j := range row {
			row[j] = 1
		}
		s.Sel[i] = row
	}
	return s
}

// N reports the number of positions covered.
func (s *Snapshot) N() int { return len(s.Rates) }

// Clone deep-copies the snapshot.
func (s *Snapshot) Clone() *Snapshot {
	c := &Snapshot{
		Rates:   append([]float64(nil), s.Rates...),
		Sel:     make([][]float64, len(s.Sel)),
		Version: s.Version,
	}
	for i := range s.Sel {
		c.Sel[i] = append([]float64(nil), s.Sel[i]...)
	}
	return c
}

// SetSym sets Sel[i][j] and Sel[j][i].
func (s *Snapshot) SetSym(i, j int, v float64) {
	s.Sel[i][j] = v
	s.Sel[j][i] = v
}

// Flatten appends all statistic values (rates, then the upper selectivity
// triangle including the diagonal) to dst and returns it. The constant-
// threshold baseline policy compares flattened vectors; the layout is
// stable for a given n.
func (s *Snapshot) Flatten(dst []float64) []float64 {
	dst = append(dst, s.Rates...)
	for i := 0; i < len(s.Sel); i++ {
		for j := i; j < len(s.Sel[i]); j++ {
			dst = append(dst, s.Sel[i][j])
		}
	}
	return dst
}

// String renders the snapshot compactly for diagnostics.
func (s *Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "stats{v%d rates=%.3v", s.Version, s.Rates)
	b.WriteString(" sel=[")
	for i := range s.Sel {
		for j := i; j < len(s.Sel[i]); j++ {
			if s.Sel[i][j] != 1 {
				fmt.Fprintf(&b, " %d,%d:%.3g", i, j, s.Sel[i][j])
			}
		}
	}
	b.WriteString(" ]}")
	return b.String()
}
