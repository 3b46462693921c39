package relation

import "fmt"

// Attribute describes one column of a relation schema: a name, the expected
// value kind and the distance function disA used by the accuracy measure and
// by access-template resolutions.
type Attribute struct {
	Name string
	Type Kind
	Dist Distance
}

// Attr is a convenience constructor for an Attribute.
func Attr(name string, typ Kind, dist Distance) Attribute {
	return Attribute{Name: name, Type: typ, Dist: dist}
}

// Schema is a relation schema R(A1, ..., Ah). Name lookups scan Attrs:
// schemas are narrow, and no caller looks a name up per row.
type Schema struct {
	Name  string
	Attrs []Attribute
}

// NewSchema builds a relation schema. Attribute names must be unique.
func NewSchema(name string, attrs ...Attribute) (*Schema, error) {
	for i, a := range attrs {
		if a.Name == "" {
			return nil, fmt.Errorf("relation: schema %s: attribute %d has empty name", name, i)
		}
		for _, b := range attrs[:i] {
			if b.Name == a.Name {
				return nil, fmt.Errorf("relation: schema %s: duplicate attribute %q", name, a.Name)
			}
		}
	}
	return &Schema{Name: name, Attrs: attrs}, nil
}

// MustSchema is NewSchema that panics on error; intended for statically
// known schemas (dataset generators, tests).
func MustSchema(name string, attrs ...Attribute) *Schema {
	s, err := NewSchema(name, attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// Arity returns the number of attributes.
func (s *Schema) Arity() int { return len(s.Attrs) }

// Index returns the position of the named attribute, or false.
func (s *Schema) Index(attr string) (int, bool) {
	for i, a := range s.Attrs {
		if a.Name == attr {
			return i, true
		}
	}
	return -1, false
}

// MustIndex is Index that panics when the attribute does not exist.
func (s *Schema) MustIndex(attr string) int {
	i, ok := s.Index(attr)
	if !ok {
		panic(fmt.Sprintf("relation: schema %s has no attribute %q", s.Name, attr))
	}
	return i
}

// AttrNames returns the attribute names in schema order.
func (s *Schema) AttrNames() []string {
	names := make([]string, len(s.Attrs))
	for i, a := range s.Attrs {
		names[i] = a.Name
	}
	return names
}

// Indices maps attribute names to positions, failing on unknown names.
func (s *Schema) Indices(attrs []string) ([]int, error) {
	idx := make([]int, len(attrs))
	for i, a := range attrs {
		j, ok := s.Index(a)
		if !ok {
			return nil, fmt.Errorf("relation: schema %s has no attribute %q", s.Name, a)
		}
		idx[i] = j
	}
	return idx, nil
}

// Project returns a new schema with the given attributes, in the given
// order, under the given relation name.
func (s *Schema) Project(name string, attrs []string) (*Schema, error) {
	idx, err := s.Indices(attrs)
	if err != nil {
		return nil, err
	}
	out := make([]Attribute, len(idx))
	for i, j := range idx {
		out[i] = s.Attrs[j]
	}
	return NewSchema(name, out...)
}
