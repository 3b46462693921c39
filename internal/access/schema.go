package access

import (
	"fmt"
	"runtime"

	"repro/internal/relation"
)

// Schema is an access schema A: a set of template ladders over a database
// schema. BEAS requires A ⊇ At; BuildAt constructs At and Extend adds
// user-defined or discovered ladders on top.
type Schema struct {
	Ladders []*Ladder
	// builds is the memory of the maintenance rebuilds (flushDirty), one
	// buildOut per worker, kept from batch to batch so that a steady
	// stream of writes stops allocating it: the buffers that grow with a
	// group — kd-tree nodes, maxDist rows, sort keys, level rows — hold no
	// pointers, so keeping them costs the collector nothing. Maintenance is
	// single-writer, so no lock guards it.
	builds []buildOut
}

// BuildAt constructs the generic access schema At of Theorem 1(1): for every
// relation R, the ladder R(∅ → attr(R), 2^k, d̄k) for k = 0..⌈log2 |DR|⌉.
// Every instance conforms to its own At by construction. Each generic ladder
// is a single group, so the relations' groups are built together on one
// worker pool.
func BuildAt(db *relation.Database) (*Schema, error) {
	s := &Schema{}
	var jobs []groupBuild
	for _, name := range db.Names() {
		r := db.MustRelation(name)
		if r.Len() == 0 {
			continue
		}
		l, err := prepareLadder(db, name, nil, r.Schema.AttrNames(), runtime.GOMAXPROCS(0))
		if err != nil {
			return nil, err
		}
		s.Ladders = append(s.Ladders, l)
		for slot := 0; slot < l.dir.slots(); slot++ {
			jobs = append(jobs, groupBuild{l: l, slot: slot})
		}
	}
	buildGroups(jobs, make([]buildOut, runtime.GOMAXPROCS(0)))
	packArenas(jobs)
	for _, l := range s.Ladders {
		l.recomputeMeta()
	}
	return s, nil
}

// Extend builds and adds a ladder for R(X → Y, ·, ·), mirroring the paper's
// practice of enriching At with discovered or user-defined access templates
// and constraints.
func (s *Schema) Extend(db *relation.Database, rel string, x, y []string) (*Ladder, error) {
	l, err := BuildLadder(db, rel, x, y)
	if err != nil {
		return nil, err
	}
	s.Ladders = append(s.Ladders, l)
	return l, nil
}

// LaddersFor returns the ladders over the named relation.
func (s *Schema) LaddersFor(rel string) []*Ladder {
	var out []*Ladder
	for _, l := range s.Ladders {
		if l.RelName == rel {
			out = append(out, l)
		}
	}
	return out
}

// Find returns the ladder on rel with exactly the given X and Y sets
// (order-insensitive), or nil.
func (s *Schema) Find(rel string, x, y []string) *Ladder {
	for _, l := range s.Ladders {
		if l.RelName == rel && sameSet(l.X, x) && sameSet(l.Y, y) {
			return l
		}
	}
	return nil
}

// Size returns ||A||: the number of distinct template ladders.
func (s *Schema) Size() int { return len(s.Ladders) }

// NumTemplates counts individual access templates (ladder levels), matching
// how the paper reports "617 access templates" for a handful of ladders.
func (s *Schema) NumTemplates() int {
	n := 0
	for _, l := range s.Ladders {
		n += l.MaxK() + 1
	}
	return n
}

// IndexSize totals the stored representatives across all ladders (Exp-4).
func (s *Schema) IndexSize() int {
	n := 0
	for _, l := range s.Ladders {
		n += l.IndexSize()
	}
	return n
}

// ConstraintIndexSize totals only the exact top levels (the access-constraint
// part of the schema), the paper's "index for access constraints" series.
func (s *Schema) ConstraintIndexSize() int {
	n := 0
	for _, l := range s.Ladders {
		d := &l.dir
		for slot := 0; slot < d.slots(); slot++ {
			if d.live(slot) {
				_, rows := d.level(slot, d.exactLevel(slot))
				n += rows
			}
		}
	}
	return n
}

// Verify checks D |= A for every ladder.
func (s *Schema) Verify(db *relation.Database) error {
	for _, l := range s.Ladders {
		if err := l.Verify(db); err != nil {
			return fmt.Errorf("access: schema verification failed: %w", err)
		}
	}
	return nil
}

func sameSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	m := make(map[string]bool, len(a))
	for _, s := range a {
		m[s] = true
	}
	for _, s := range b {
		if !m[s] {
			return false
		}
	}
	return true
}
