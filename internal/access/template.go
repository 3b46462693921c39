// Package access implements access schemas (paper §2): access templates
// ψ = R(X → Y, N, d̄Y), access constraints (the d̄Y = 0̄ special case of
// [Fan et al., PODS'14/15]), the indices behind them, and the generic
// access schema At that makes every dataset approximable (Theorem 1(1)).
//
// Templates over the same (R, X, Y) with increasing N and decreasing d̄Y are
// organised into a Ladder: one K-D-tree index per X-group serves every level
// k, returning at most 2^k representative Y-tuples per X-value with
// resolution d̄k. The top level has resolution 0̄ and acts as the access
// constraint R(X → Y, N, 0̄) with N the maximum group size.
package access

import (
	"fmt"
	"strings"
)

// Template is one access template ψ = R(X → Y, N, d̄Y): given any X-value ā,
// the index returns at most N distinct Y-tuples such that every Y-tuple
// associated with ā in the data is within Resolution (component-wise) of a
// returned one.
type Template struct {
	// Relation is the relation schema name R.
	Relation string
	// X and Y are the input and output attribute sets.
	X, Y []string
	// N bounds the number of tuples returned per X-value.
	N int
	// Resolution is d̄Y, aligned with Y. All-zero means the template is an
	// access constraint: it returns the exact Y-values.
	Resolution []float64
	// Ladder is the index family this template belongs to, and K its level.
	Ladder *Ladder
	K      int
}

// IsConstraint reports whether the template fetches exact values (d̄Y = 0̄).
func (t *Template) IsConstraint() bool {
	for _, d := range t.Resolution {
		if d != 0 {
			return false
		}
	}
	return true
}

// MaxResolution returns max_B d̄Y[B], the paper's d̄m(ψ,k) used in the accuracy
// lower bounds of Theorems 5 and 6.
func (t *Template) MaxResolution() float64 {
	worst := 0.0
	for _, d := range t.Resolution {
		if d > worst {
			worst = d
		}
	}
	return worst
}

// String renders the template in the paper's notation, e.g.
// "poi({type,city} -> {price,address}, 8, (0.1, 0.2))".
func (t *Template) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s({%s} -> {%s}, %d", t.Relation, strings.Join(t.X, ","), strings.Join(t.Y, ","), t.N)
	if t.IsConstraint() {
		b.WriteString(", 0)")
		return b.String()
	}
	b.WriteString(", (")
	for i, d := range t.Resolution {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%.3g", d)
	}
	b.WriteString("))")
	return b.String()
}
