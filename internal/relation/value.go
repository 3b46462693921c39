// Package relation implements the relational substrate that BEAS runs on:
// typed attribute values, per-attribute distance functions, relation schemas,
// tuples, in-memory relations and databases.
//
// The paper (Cao & Fan, VLDB 2017, §2.1) assumes each attribute A has a
// distance function disA over its domain satisfying the triangle inequality,
// with a "trivial" default (0 if equal, +inf otherwise) for attributes such
// as IDs. This package provides those domains and distances.
package relation

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// Supported value kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
)

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed attribute value. The zero Value is Null.
// Value is comparable with ==, so it can be used directly as a map key;
// note however that == distinguishes Int(3) from Float(3.0), while Equal
// and Compare treat numeric kinds uniformly.
type Value struct {
	kind Kind
	i    int64
	f    float64
	s    string
}

// Null returns the null value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Float returns a floating-point value.
func Float(v float64) Value { return Value{kind: KindFloat, f: v} }

// String returns a string value.
func String(v string) Value { return Value{kind: KindString, s: v} }

// Kind reports the dynamic kind of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is the null value.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsInt returns the value as an int64. It reports false when v is not
// numeric; floats are truncated toward zero.
func (v Value) AsInt() (int64, bool) {
	switch v.kind {
	case KindInt:
		return v.i, true
	case KindFloat:
		return int64(v.f), true
	default:
		return 0, false
	}
}

// AsFloat returns the value as a float64. It reports false when v is not
// numeric.
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case KindInt:
		return float64(v.i), true
	case KindFloat:
		return v.f, true
	default:
		return 0, false
	}
}

// AsString returns the underlying string. It reports false when v is not a
// string.
func (v Value) AsString() (string, bool) {
	if v.kind == KindString {
		return v.s, true
	}
	return "", false
}

// Equal reports whether two values are equal, comparing Int and Float
// numerically (Int(3).Equal(Float(3)) is true).
func (v Value) Equal(o Value) bool { return v.Compare(o) == 0 }

// Compare orders values: Null < numerics (by numeric value) < strings (by
// lexicographic order). It returns -1, 0 or +1.
func (v Value) Compare(o Value) int {
	ra, rb := v.rank(), o.rank()
	if ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	switch ra {
	case 0: // both null
		return 0
	case 1: // both numeric
		a, _ := v.AsFloat()
		b, _ := o.AsFloat()
		// Compare exact int64s without float rounding when possible.
		if v.kind == KindInt && o.kind == KindInt {
			switch {
			case v.i < o.i:
				return -1
			case v.i > o.i:
				return 1
			}
			return 0
		}
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	default: // both strings
		return strings.Compare(v.s, o.s)
	}
}

// Less reports whether v orders strictly before o.
func (v Value) Less(o Value) bool { return v.Compare(o) < 0 }

func (v Value) rank() int {
	switch v.kind {
	case KindNull:
		return 0
	case KindInt, KindFloat:
		return 1
	default:
		return 2
	}
}

// String renders the value for display.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	default:
		return v.s
	}
}

// keyEscaper escapes the characters that have structural meaning in
// composite keys: \x1f separates tuple components (Tuple.Key) and \x1e is
// the escape character itself. Escaping keeps Key injective even for string
// values that contain the separator.
var keyEscaper = strings.NewReplacer("\x1e", "\x1e\x1e", "\x1f", "\x1e\x1f")

// Key returns a canonical encoding of the value that is unique per distinct
// value (with Int/Float unified when integral), suitable for use in
// composite map keys. The encoding never contains a bare \x1f, so joining
// component keys with \x1f stays injective.
func (v Value) Key() string {
	switch v.kind {
	case KindNull:
		return "n"
	case KindInt:
		return "i" + strconv.FormatInt(v.i, 10)
	case KindFloat:
		if v.f == math.Trunc(v.f) && math.Abs(v.f) < 1e15 {
			// Unify Float(3) with Int(3) so joins across kinds behave.
			return "i" + strconv.FormatInt(int64(v.f), 10)
		}
		return "f" + strconv.FormatFloat(v.f, 'g', -1, 64)
	default:
		if strings.ContainsAny(v.s, "\x1e\x1f") {
			return "s" + keyEscaper.Replace(v.s)
		}
		return "s" + v.s
	}
}

// canonInt reports whether v's canonical Key encoding is the integer form,
// and that integer: true for ints and for integral floats below the 1e15
// unification cutoff (see Key).
func (v Value) canonInt() (int64, bool) {
	switch v.kind {
	case KindInt:
		return v.i, true
	case KindFloat:
		if v.f == math.Trunc(v.f) && math.Abs(v.f) < 1e15 {
			return int64(v.f), true
		}
	}
	return 0, false
}

// KeyEqual reports whether two values share the same canonical Key encoding
// — Int/Float unified when integral and below the 1e15 cutoff, kinds
// distinct otherwise — without building the strings. This is the equality
// the hash tables verify keys with, so they key as Tuple.Key strings do.
// (It is deliberately narrower than Equal, which unifies numeric kinds at
// any magnitude where float comparison is lossy.)
func (v Value) KeyEqual(o Value) bool {
	vi, vInt := v.canonInt()
	oi, oInt := o.canonInt()
	if vInt || oInt {
		return vInt && oInt && vi == oi
	}
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindNull:
		return true
	case KindFloat:
		// All NaNs render to one Key ("fNaN"); ±0 never reaches here
		// (integral, unified by canonInt).
		return math.Float64bits(v.f) == math.Float64bits(o.f) ||
			(math.IsNaN(v.f) && math.IsNaN(o.f))
	default:
		return v.s == o.s
	}
}

// ParseValue parses s into a Value of the given kind. Empty strings parse to
// Null.
func ParseValue(kind Kind, s string) (Value, error) {
	if s == "" {
		return Null(), nil
	}
	switch kind {
	case KindInt:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Null(), fmt.Errorf("relation: parse int %q: %w", s, err)
		}
		return Int(i), nil
	case KindFloat:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Null(), fmt.Errorf("relation: parse float %q: %w", s, err)
		}
		return Float(f), nil
	case KindString:
		return String(s), nil
	default:
		return Null(), fmt.Errorf("relation: cannot parse into kind %v", kind)
	}
}
