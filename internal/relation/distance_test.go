package relation

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTrivialDistance(t *testing.T) {
	d := Trivial()
	if got := d.Between(Int(1), Int(1)); got != 0 {
		t.Errorf("trivial equal = %g", got)
	}
	if got := d.Between(Int(1), Int(2)); !math.IsInf(got, 1) {
		t.Errorf("trivial unequal = %g, want +inf", got)
	}
	if got := d.Between(String("a"), String("a")); got != 0 {
		t.Errorf("trivial equal strings = %g", got)
	}
}

func TestDiscreteDistance(t *testing.T) {
	d := Discrete()
	if got := d.Between(String("hotel"), String("hotel")); got != 0 {
		t.Errorf("discrete equal = %g", got)
	}
	if got := d.Between(String("hotel"), String("bar")); got != 1 {
		t.Errorf("discrete unequal = %g, want 1", got)
	}
}

func TestNumericDistance(t *testing.T) {
	d := Numeric(10)
	if got := d.Between(Int(95), Int(99)); got != 0.4 {
		t.Errorf("numeric |95-99|/10 = %g, want 0.4", got)
	}
	if got := d.Between(Float(1.5), Int(1)); got != 0.05 {
		t.Errorf("numeric cross-kind = %g, want 0.05", got)
	}
	// Zero scale behaves as scale 1.
	d0 := Numeric(0)
	if got := d0.Between(Int(2), Int(5)); got != 3 {
		t.Errorf("numeric default scale = %g, want 3", got)
	}
	// Non-numeric operands degrade to trivial behaviour.
	if got := d.Between(String("a"), String("a")); got != 0 {
		t.Errorf("numeric on equal strings = %g", got)
	}
	if got := d.Between(String("a"), String("b")); !math.IsInf(got, 1) {
		t.Errorf("numeric on unequal strings = %g, want +inf", got)
	}
}

func TestNullDistances(t *testing.T) {
	for _, d := range []Distance{Trivial(), Discrete(), Numeric(5)} {
		if got := d.Between(Null(), Null()); got != 0 {
			t.Errorf("%v: null-null = %g", d.Kind, got)
		}
		if got := d.Between(Null(), Int(1)); !math.IsInf(got, 1) {
			t.Errorf("%v: null-present = %g, want +inf", d.Kind, got)
		}
	}
}

// Property: all built-in distances are metrics on the numeric domain
// (identity of indiscernibles, symmetry, triangle inequality).
func TestDistanceMetricProperties(t *testing.T) {
	dists := []Distance{Trivial(), Discrete(), Numeric(7)}
	f := func(a, b, c int16) bool {
		va, vb, vc := Int(int64(a)), Int(int64(b)), Int(int64(c))
		for _, d := range dists {
			ab, ba := d.Between(va, vb), d.Between(vb, va)
			if ab != ba {
				return false
			}
			if (ab == 0) != (a == b) {
				return false
			}
			ac, cb := d.Between(va, vc), d.Between(vc, vb)
			// Triangle inequality with +inf arithmetic (allowing
			// float-rounding slack on the sum).
			if ab > ac+cb+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDistanceBounded(t *testing.T) {
	if Trivial().Bounded() {
		t.Error("trivial distance must be unbounded")
	}
	if !Discrete().Bounded() || !Numeric(1).Bounded() {
		t.Error("discrete and numeric distances are bounded")
	}
}

func TestDistanceKindString(t *testing.T) {
	if DistTrivial.String() != "trivial" || DistDiscrete.String() != "discrete" || DistNumeric.String() != "numeric" {
		t.Error("DistanceKind.String names")
	}
}

// BetweenRow is Between against the column's value, for every distance kind
// and every pair of test values, over typed columns, columns with nulls and
// mixed columns.
func TestBetweenRowMatchesBetween(t *testing.T) {
	vals := testValues()
	var cols []Column
	for _, v := range vals { // one typed (or all-null) column per value
		var c Column
		c.Append(v)
		c.Append(v)
		cols = append(cols, c)
	}
	var nulls, mixed Column
	for _, v := range vals {
		mixed.Append(v)
		if v.Kind() == KindInt {
			nulls.Append(v)
			nulls.Append(Null())
		}
	}
	cols = append(cols, nulls, mixed)
	for _, d := range []Distance{Trivial(), Discrete(), Numeric(0), Numeric(4)} {
		for ci := range cols {
			c := &cols[ci]
			for r := 0; r < c.Len(); r++ {
				for _, a := range vals {
					got, want := d.BetweenRow(a, c, r), d.Between(a, c.Value(r))
					if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
						t.Fatalf("%v: BetweenRow(%v, %v) = %g, Between = %g", d.Kind, a, c.Value(r), got, want)
					}
				}
			}
		}
	}
}
