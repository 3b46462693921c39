package kdtree

import "repro/internal/relation"

// Build constructs the tree over rows [lo, hi) of b in fresh memory: the
// one-off form of Scratch.Build the tests build with.
func Build(attrs []relation.Attribute, b *relation.Block, lo, hi int) *Tree {
	return new(Scratch).Build(attrs, b, lo, hi)
}

// Count returns the number of rows indexed.
func (t *Tree) Count() int { return t.count }

// ExactLevel returns the smallest level k at which Level(k) represents the
// data exactly (every representative has all-zero resolution). It equals the
// tree depth; ceil(log2 n) for n distinct points.
func (t *Tree) ExactLevel() int { return t.maxDepth }

// Level returns the representatives at level k by a walk of its own: the
// frontier of nodes at depth k plus any leaves above it. Negative k
// behaves as 0; k beyond ExactLevel behaves as ExactLevel.
func (t *Tree) Level(k int) []Rep {
	if len(t.nodes) == 0 {
		return nil
	}
	k = max(k, 0)
	var reps []Rep
	var walk func(s int32, depth int)
	walk = func(s int32, depth int) {
		n := &t.nodes[s]
		if depth == k || n.right == 0 {
			reps = append(reps, Rep{Row: n.rep, Count: n.count, dist: n.dist})
			return
		}
		walk(s+1, depth+1)
		walk(n.right, depth+1)
	}
	walk(0, 0)
	return reps
}

// AllLevels returns Level(k) for every k in [0, ExactLevel], listed by
// AppendLevels into fresh memory.
func (t *Tree) AllLevels() [][]Rep {
	return splitLevels((&Scratch{tree: *t}).AppendLevels(nil, nil))
}

// splitLevels cuts an AppendLevels listing into its levels.
func splitLevels(reps []Rep, sizes []int32) [][]Rep {
	var levels [][]Rep
	for _, n := range sizes {
		levels, reps = append(levels, reps[:n:n]), reps[n:]
	}
	return levels
}

// Resolution returns the per-attribute resolution d̄k at level k: the maximum
// of MaxDist over the level's representatives (zeros for an empty tree).
func (t *Tree) Resolution(k int) []float64 {
	out := make([]float64, len(t.attrs))
	for _, r := range t.Level(k) {
		for i, d := range t.MaxDist(r) {
			if d > out[i] {
				out[i] = d
			}
		}
	}
	return out
}
