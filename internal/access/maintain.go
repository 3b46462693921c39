package access

// This file implements component C2 of the BEAS architecture (Fig. 2):
// maintaining the access-schema indices in response to updates to D.
// Updates are localised twice over: a tuple only affects the group of its
// own X-value in each ladder, and that group alone records its item range
// in the ladder's item store. What a batch of updates costs (batch.go): one pass over each
// written relation to find the tuples its deletes remove, one pass over the
// items of each group a delete reaches, one copy of each touched group's
// surviving items and inserts into a new range, and one rebuild of each
// touched group from its range — a K-D tree over the group's g points,
// O(g log g) per tree level (one sort, one spread scan), at most ⌈log₂ g⌉
// levels. No other group is touched, except when a compaction of the item
// store or the level arena moves every group's rows. The generic ladder At
// keeps a relation in a single group (X = ∅), so any write to R rebuilds a
// |R|-point tree: that rebuild, not the scans, is what a write costs, and
// splitting it is the next lever. Every write goes through the batched
// Apply.

// recomputeMeta refreshes MaxK, MaxGroupDistinct, IndexSize, NumGroups and
// the per-level resolutions from the current groups, in one pass over the
// directory. It touches metadata only — never group indices or the
// relation — so it is O(Σ over slots of the slot's levels).
func (l *Ladder) recomputeMeta() {
	d := &l.dir
	arity := len(l.Y)
	l.maxK, l.maxDistinct, l.indexSize, d.dead = 0, 0, 0, 0
	// Fresh rows every time: Resolution hands the old ones out.
	res := [][]float64{make([]float64, arity)}
	for s := 0; s < d.slots(); s++ {
		if !d.live(s) {
			d.dead++
			continue
		}
		l.maxK = max(l.maxK, d.exactLevel(s))
		r := d.recs[s]
		l.maxDistinct = max(l.maxDistinct, int(r.distinct))
		lo, hi := d.span(s)
		l.indexSize += hi - lo
		// Levels past a group's exact level resolve exactly (all-zero
		// resolution, as kdtree clamping reports), so a group contributes
		// to the maxima of its own levels only.
		e := int(r.lvlFirst)
		for k := 0; k < int(r.lvlCount); k++ {
			if k == len(res) {
				res = append(res, make([]float64, arity))
			}
			for i, r := range d.res[(e+k)*arity : (e+k+1)*arity] {
				if r > res[k][i] {
					res[k][i] = r
				}
			}
		}
	}
	l.resolutions = res
}
