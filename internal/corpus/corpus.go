// Package corpus generates the seeded random query corpus over the paper's
// Example 1 fixture schema (person, friend, poi): ~200 SPC / RA / aggregate
// queries paired with a resource-ratio rotation. The corpus is the shared
// yardstick of the system-level invariants — the soundness suite
// (internal/core) checks budgets, exactness and executor agreement over it,
// and the persistence layer re-verifies it against warm-started systems
// (snapshot → restart → load must answer every case byte-identically to the
// freshly built system). Generation is deterministic in the seed, so every
// consumer sees the same queries.
package corpus

import (
	"math/rand"

	"repro/internal/fixture"
	"repro/internal/query"
	"repro/internal/relation"
)

// Case is one corpus entry: a query and the resource ratio it runs at.
type Case struct {
	Query query.Expr
	Alpha float64
}

// DefaultSeed and DefaultCases pin the canonical corpus every consumer
// shares (200 cases from seed 42, the parameters the soundness suite has
// used since PR 1).
const (
	DefaultSeed  int64 = 42
	DefaultCases       = 200
)

// alphas is the resource-ratio rotation cases cycle through.
var alphas = []float64{0.01, 0.1, 0.6}

// Default returns the canonical corpus: DefaultCases cases from DefaultSeed.
func Default() []Case { return Cases(DefaultSeed, DefaultCases) }

// Cases generates n cases from the seed: random valid queries over the
// fixture schema, each paired with the next alpha of the rotation.
func Cases(seed int64, n int) []Case {
	g := NewGenerator(seed)
	out := make([]Case, n)
	for i := range out {
		out[i] = Case{Query: g.Query(), Alpha: alphas[i%len(alphas)]}
	}
	return out
}

// Generator hands out the corpus's random queries one at a time, for suites
// that want the raw stream (differential digests, worker invariance) rather
// than the alpha-paired cases. The stream is deterministic in the seed.
type Generator struct{ g qgen }

// NewGenerator returns a generator seeded like Cases.
func NewGenerator(seed int64) *Generator {
	return &Generator{g: qgen{rng: rand.New(rand.NewSource(seed))}}
}

// Query returns the next random SPC / RA / aggregate query.
func (g *Generator) Query() query.Expr { return g.g.randQuery() }

// SPC returns the next random conjunctive leaf query.
func (g *Generator) SPC() *query.SPC { return g.g.randSPC() }

// Variant copies an SPC with perturbed constants: same shape and output
// arity, so it is Union/Diff-compatible with the original.
func (g *Generator) Variant(q *query.SPC) *query.SPC { return g.g.variant(q) }

// qgen generates random valid queries over the fixture schema
// (person(pid, city), friend(pid, fid), poi(address, type, city, price)).
type qgen struct {
	rng *rand.Rand
}

// joinDomains tags the joinable attributes of each relation: attributes
// sharing a tag may be equated.
var joinDomains = map[string][][2]string{
	"person": {{"pid", "id"}, {"city", "city"}},
	"friend": {{"pid", "id"}, {"fid", "id"}},
	"poi":    {{"city", "city"}},
}

var relAttrs = map[string][]string{
	"person": {"pid", "city"},
	"friend": {"pid", "fid"},
	"poi":    {"address", "type", "city", "price"},
}

func (g *qgen) pick(ss []string) string { return ss[g.rng.Intn(len(ss))] }

// connectable reports whether rel shares a join domain with any chosen atom.
func connectable(rel string, chosen []query.Atom) bool {
	for _, a := range chosen {
		for _, d1 := range joinDomains[a.Rel] {
			for _, d2 := range joinDomains[rel] {
				if d1[1] == d2[1] {
					return true
				}
			}
		}
	}
	return false
}

func (g *qgen) randConst(rel, attr string) relation.Value {
	switch {
	case attr == "city":
		return relation.String(fixture.Cities[g.rng.Intn(len(fixture.Cities))])
	case attr == "type":
		return relation.String(fixture.POITypes[g.rng.Intn(len(fixture.POITypes))])
	case attr == "price":
		return relation.Float(10 + g.rng.Float64()*390)
	case attr == "address":
		return relation.String("addr0")
	default: // pid / fid
		return relation.Int(int64(g.rng.Intn(60)))
	}
}

func (g *qgen) randSPC() *query.SPC {
	rels := []string{"person", "friend", "poi"}
	n := 1 + g.rng.Intn(3)
	spc := &query.SPC{}
	for i := 0; i < n; i++ {
		var cands []string
		for _, r := range rels {
			if i == 0 || connectable(r, spc.Atoms) {
				cands = append(cands, r)
			}
		}
		rel := g.pick(cands)
		alias := []string{"a", "b", "c"}[i]
		atom := query.Atom{Rel: rel, Alias: alias}
		if i > 0 {
			// Connect the new atom to a random earlier one on a shared
			// join domain.
			type pair struct{ l, r query.Col }
			var pairs []pair
			for _, prev := range spc.Atoms {
				for _, d1 := range joinDomains[prev.Rel] {
					for _, d2 := range joinDomains[rel] {
						if d1[1] == d2[1] {
							pairs = append(pairs, pair{query.C(prev.Name(), d1[0]), query.C(alias, d2[0])})
						}
					}
				}
			}
			p := pairs[g.rng.Intn(len(pairs))]
			spc.Preds = append(spc.Preds, query.EqJ(p.l, p.r))
		}
		spc.Atoms = append(spc.Atoms, atom)
		// 0–2 constant predicates per atom.
		for k := g.rng.Intn(3); k > 0; k-- {
			attr := g.pick(relAttrs[rel])
			c := query.C(alias, attr)
			v := g.randConst(rel, attr)
			switch {
			case attr == "price" || (g.rng.Intn(3) == 0 && attr != "city" && attr != "type" && attr != "address"):
				if g.rng.Intn(2) == 0 {
					spc.Preds = append(spc.Preds, query.LeC(c, v))
				} else {
					spc.Preds = append(spc.Preds, query.GeC(c, v))
				}
			default:
				spc.Preds = append(spc.Preds, query.EqC(c, v))
			}
		}
	}
	// 1–2 distinct output columns.
	seen := map[query.Col]bool{}
	for k := 1 + g.rng.Intn(2); k > 0; k-- {
		ai := g.rng.Intn(len(spc.Atoms))
		a := spc.Atoms[ai]
		c := query.C(a.Name(), g.pick(relAttrs[a.Rel]))
		if seen[c] {
			continue
		}
		seen[c] = true
		spc.Output = append(spc.Output, c)
	}
	return spc
}

// variant copies the SPC with perturbed constants: same shape and output
// arity, so it is Union/Diff-compatible with the original.
func (g *qgen) variant(q *query.SPC) *query.SPC {
	cp := &query.SPC{
		Atoms:  append([]query.Atom(nil), q.Atoms...),
		Preds:  append([]query.Pred(nil), q.Preds...),
		Output: append([]query.Col(nil), q.Output...),
	}
	for i := range cp.Preds {
		if cp.Preds[i].Join {
			continue
		}
		rel := ""
		for _, a := range cp.Atoms {
			if a.Name() == cp.Preds[i].Left.Rel {
				rel = a.Rel
			}
		}
		cp.Preds[i].Const = g.randConst(rel, cp.Preds[i].Left.Attr)
	}
	return cp
}

func (g *qgen) randQuery() query.Expr {
	spc := g.randSPC()
	switch g.rng.Intn(10) {
	case 0, 1:
		return &query.Union{L: spc, R: g.variant(spc)}
	case 2:
		return &query.Diff{L: spc, R: g.variant(spc)}
	case 3, 4:
		// Aggregate over the leaf: key on the first output column,
		// aggregate a numeric column of some atom.
		a := spc.Atoms[g.rng.Intn(len(spc.Atoms))]
		onAttr := "pid"
		if a.Rel == "poi" {
			onAttr = "price"
		} else if a.Rel == "friend" {
			onAttr = "fid"
		}
		on := query.C(a.Name(), onAttr)
		key := spc.Output[0]
		if key == on {
			// Pick any column other than the aggregate's.
			for _, attr := range relAttrs[spc.Atoms[0].Rel] {
				if c := query.C(spc.Atoms[0].Name(), attr); c != on {
					key = c
					break
				}
			}
		}
		aggs := []query.AggKind{query.AggMin, query.AggMax, query.AggSum, query.AggCount, query.AggAvg}
		spc.Output = []query.Col{key, on}
		return &query.GroupBy{In: spc, Keys: []query.Col{key}, Agg: aggs[g.rng.Intn(len(aggs))], On: on, As: "agg"}
	default:
		return spc
	}
}
