package relation

import "math"

// DistanceKind selects one of the built-in attribute distance functions.
// All of them are metrics (non-negative, symmetric, zero iff equal values,
// triangle inequality), which §3 and §6 of the paper rely on.
type DistanceKind uint8

const (
	// DistTrivial is the paper's default distance: 0 if the values are
	// equal and +inf otherwise. It is the right choice for identifiers,
	// where no notion of "close" exists and relaxation must never admit a
	// different value.
	DistTrivial DistanceKind = iota
	// DistDiscrete is 0 if equal, 1 otherwise: a bounded variant of the
	// trivial distance for categorical attributes (e.g. POI type), so that
	// coverage of approximate answers stays finite.
	DistDiscrete
	// DistNumeric is |a-b| / Scale for numeric values. Scale normalises
	// the attribute's active domain so that typical distances land in
	// [0, 1] and the RC-measure is comparable across attributes.
	DistNumeric
)

// String returns a human-readable name of the distance kind.
func (k DistanceKind) String() string {
	switch k {
	case DistTrivial:
		return "trivial"
	case DistDiscrete:
		return "discrete"
	case DistNumeric:
		return "numeric"
	default:
		return "distance(?)"
	}
}

// Distance is a per-attribute distance function disA from the paper (§2.1).
type Distance struct {
	Kind DistanceKind
	// Scale divides the absolute difference for DistNumeric. Zero means 1.
	Scale float64
}

// Trivial returns the trivial (0 / +inf) distance.
func Trivial() Distance { return Distance{Kind: DistTrivial} }

// Discrete returns the 0/1 categorical distance.
func Discrete() Distance { return Distance{Kind: DistDiscrete} }

// Numeric returns the scaled absolute-difference distance |a-b|/scale.
func Numeric(scale float64) Distance { return Distance{Kind: DistNumeric, Scale: scale} }

// Between evaluates the distance between two values. Nulls are at distance 0
// from each other and +inf from everything else (so approximate matching
// never conflates a missing value with a present one).
func (d Distance) Between(a, b Value) float64 {
	if a.IsNull() || b.IsNull() {
		if a.IsNull() && b.IsNull() {
			return 0
		}
		return math.Inf(1)
	}
	switch d.Kind {
	case DistNumeric:
		fa, oka := a.AsFloat()
		fb, okb := b.AsFloat()
		if oka && okb {
			return d.scaled(fa, fb)
		}
		// Non-numeric values under a numeric distance degrade to the
		// trivial distance.
		if a.Equal(b) {
			return 0
		}
		return math.Inf(1)
	case DistDiscrete:
		if a.Equal(b) {
			return 0
		}
		return 1
	default: // DistTrivial
		if a.Equal(b) {
			return 0
		}
		return math.Inf(1)
	}
}

// BetweenRow is Between(a, c.Value(r)), read straight from the column's
// payload when a has the kind of a column without nulls or mixed kinds: the
// distance searches over columnar points compute per visited row.
func (d Distance) BetweenRow(a Value, c *Column, r int) float64 {
	if c.mixed || c.valid != nil || a.kind != c.kind {
		return d.Between(a, c.Value(r))
	}
	switch a.kind {
	case KindInt:
		if d.Kind == DistNumeric {
			return d.scaled(float64(a.i), float64(c.ints[r]))
		}
		return d.unequal(a.i != c.ints[r])
	case KindFloat:
		if d.Kind == DistNumeric {
			return d.scaled(a.f, c.floats[r])
		}
		// Equal is Compare == 0, which holds unless one orders first: a
		// NaN equals everything.
		return d.unequal(a.f < c.floats[r] || a.f > c.floats[r])
	case KindString:
		// Strings are not numeric, so every kind falls back to equality.
		return d.unequal(a.s != c.strs[r])
	}
	return d.Between(a, c.Value(r))
}

// scaled is the numeric distance |fa − fb| / Scale.
func (d Distance) scaled(fa, fb float64) float64 {
	scale := d.Scale
	if scale <= 0 {
		scale = 1
	}
	return math.Abs(fa-fb) / scale
}

// unequal is the distance between two non-null values that are equal
// (neq false) or not under a distance that compares them by equality only:
// 0, or 1 when discrete and +inf otherwise.
func (d Distance) unequal(neq bool) float64 {
	switch {
	case !neq:
		return 0
	case d.Kind == DistDiscrete:
		return 1
	}
	return math.Inf(1)
}

// Bounded reports whether the distance can take finite non-zero values, i.e.
// whether relaxation on this attribute can ever admit a non-equal value.
func (d Distance) Bounded() bool { return d.Kind != DistTrivial }
