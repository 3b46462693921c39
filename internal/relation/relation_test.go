package relation

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func samplePOI(t testing.TB) *Relation {
	t.Helper()
	r := NewRelation(poiSchema(t))
	r.MustAppend(
		Tuple{String("1 Main St"), String("hotel"), String("NYC"), Float(95)},
		Tuple{String("2 Oak Ave"), String("hotel"), String("NYC"), Float(120)},
		Tuple{String("3 Elm Rd"), String("bar"), String("NYC"), Float(15)},
		Tuple{String("4 Pine Ln"), String("hotel"), String("Chicago"), Float(85)},
		Tuple{String("1 Main St"), String("hotel"), String("NYC"), Float(95)}, // dup
	)
	return r
}

func TestRelationAppendValidation(t *testing.T) {
	r := NewRelation(poiSchema(t))
	if err := r.Append(Tuple{Int(1)}); err == nil {
		t.Error("arity mismatch must error")
	}
	if err := r.Append(Tuple{String("a"), String("b"), String("c"), Float(1)}); err != nil {
		t.Errorf("valid append: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustAppend should panic on arity error")
		}
	}()
	r.MustAppend(Tuple{Int(1)})
}

func TestRelationDistinct(t *testing.T) {
	r := samplePOI(t)
	d := r.Distinct()
	if d.Len() != 4 {
		t.Errorf("Distinct len = %d, want 4", d.Len())
	}
	if r.Len() != 5 {
		t.Error("Distinct must not mutate the receiver")
	}
	// First-occurrence order preserved.
	if v, _ := d.Tuples[0][0].AsString(); v != "1 Main St" {
		t.Error("order not preserved")
	}
}

func TestRelationProject(t *testing.T) {
	r := samplePOI(t)
	p, err := r.Project([]string{"city", "price"})
	if err != nil {
		t.Fatalf("Project: %v", err)
	}
	if p.Len() != 5 || p.Schema.Arity() != 2 {
		t.Fatalf("Project shape: %d rows, arity %d", p.Len(), p.Schema.Arity())
	}
	if s, _ := p.Tuples[3][0].AsString(); s != "Chicago" {
		t.Errorf("Project content: %v", p.Tuples[3])
	}
	if _, err := r.Project([]string{"nope"}); err != nil == false {
		t.Error("Project bad attr should fail")
	}
}

func TestRelationGroupBy(t *testing.T) {
	r := samplePOI(t)
	groups, err := r.GroupBy([]string{"type", "city"})
	if err != nil {
		t.Fatalf("GroupBy: %v", err)
	}
	if len(groups) != 3 {
		t.Fatalf("GroupBy groups = %d, want 3", len(groups))
	}
	// (hotel, NYC) has 3 members (including dup).
	found := false
	for _, g := range groups {
		ty, _ := g.Key[0].AsString()
		ci, _ := g.Key[1].AsString()
		if ty == "hotel" && ci == "NYC" {
			found = true
			if len(g.Tuples) != 3 {
				t.Errorf("(hotel,NYC) group size = %d, want 3", len(g.Tuples))
			}
		}
	}
	if !found {
		t.Error("missing (hotel, NYC) group")
	}
	if _, err := r.GroupBy([]string{"nope"}); err == nil {
		t.Error("GroupBy bad attr should fail")
	}
}

// randKeyRelation returns n tuples of width 3 drawn from mapKeys, so that
// many are duplicates under Tuple.Key and many more spell one key two ways.
func randKeyRelation(rng *rand.Rand, n int) *Relation {
	r := NewRelation(MustSchema("r",
		Attr("a", KindInt, Trivial()), Attr("b", KindFloat, Trivial()), Attr("c", KindString, Trivial())))
	for i := 0; i < n; i++ {
		r.MustAppend(Tuple{mapKeys[rng.Intn(len(mapKeys))], mapKeys[rng.Intn(len(mapKeys))], mapKeys[rng.Intn(4)]})
	}
	return r
}

// Distinct keeps the first tuple of every Tuple.Key, in order of first
// occurrence, and nothing else.
func TestDistinctMatchesStringKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{0, 1, 7, 300, 3000} {
		r := randKeyRelation(rng, n)
		seen := map[string]bool{}
		var want []Tuple
		for _, tp := range r.Tuples {
			if !seen[tp.Key()] {
				seen[tp.Key()] = true
				want = append(want, tp)
			}
		}
		got := r.Distinct()
		if got.Len() != len(want) {
			t.Fatalf("n=%d: %d distinct tuples, reference %d", n, got.Len(), len(want))
		}
		for i := range want {
			if !sliceIdentical(got.Tuples[i], want[i]) {
				t.Fatalf("n=%d: distinct tuple %d is %v, reference %v", n, i, got.Tuples[i], want[i])
			}
		}
	}
}

// GroupBy files every tuple under the first-seen spelling of its key's
// Tuple.Key, groups and members in order of first occurrence.
func TestGroupByMatchesStringKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, attrs := range [][]string{{"a"}, {"c", "b"}, {"a", "b", "c"}, {}} {
		r := randKeyRelation(rng, 2000)
		idx, _ := r.Schema.Indices(attrs)
		byKey := map[string]int{}
		var want []Group
		for _, tp := range r.Tuples {
			key := tp.Project(idx)
			gi, ok := byKey[key.Key()]
			if !ok {
				gi = len(want)
				byKey[key.Key()] = gi
				want = append(want, Group{Key: key})
			}
			want[gi].Tuples = append(want[gi].Tuples, tp)
		}
		got, err := r.GroupBy(attrs)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%v: %d groups, reference %d", attrs, len(got), len(want))
		}
		for i := range want {
			if !sliceIdentical(got[i].Key, want[i].Key) || len(got[i].Tuples) != len(want[i].Tuples) {
				t.Fatalf("%v: group %d is %v with %d tuples, reference %v with %d",
					attrs, i, got[i].Key, len(got[i].Tuples), want[i].Key, len(want[i].Tuples))
			}
			for j := range want[i].Tuples {
				if !sliceIdentical(got[i].Tuples[j], want[i].Tuples[j]) {
					t.Fatalf("%v: group %d member %d is %v, reference %v", attrs, i, j, got[i].Tuples[j], want[i].Tuples[j])
				}
			}
		}
	}
}

// Distinct allocates a constant number of times, never per tuple and
// never to grow a slice: doubling the input adds no allocation.
func TestDistinctAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		r := NewRelation(MustSchema("r", Attr("a", KindInt, Trivial()), Attr("b", KindString, Trivial())))
		for i := 0; i < n; i++ {
			r.MustAppend(Tuple{Int(int64(i % (n / 2))), String("k")})
		}
		return testing.AllocsPerRun(5, func() { r.Distinct() })
	}
	// The relation, its tuples, and the seen table's hashes and slots,
	// each sized once.
	if a, b := allocs(4096), allocs(8192); a != b {
		t.Errorf("Distinct allocates %.0f times over 4096 tuples and %.0f over 8192, want the same count", a, b)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	r := samplePOI(t)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, r); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	got, err := ReadCSV(&buf, r.Schema)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if got.Len() != r.Len() {
		t.Fatalf("roundtrip len = %d, want %d", got.Len(), r.Len())
	}
	for i := range r.Tuples {
		if !got.Tuples[i].EqualTuple(r.Tuples[i]) {
			t.Errorf("row %d: %v != %v", i, got.Tuples[i], r.Tuples[i])
		}
	}
}

func TestCSVHeaderMismatch(t *testing.T) {
	in := strings.NewReader("a,b\n1,2\n")
	s := MustSchema("r", Attr("x", KindInt, Trivial()), Attr("y", KindInt, Trivial()))
	if _, err := ReadCSV(in, s); err == nil {
		t.Error("header mismatch must error")
	}
}

func TestCSVNulls(t *testing.T) {
	s := MustSchema("r", Attr("x", KindInt, Trivial()), Attr("y", KindString, Trivial()))
	r := NewRelation(s)
	r.MustAppend(Tuple{Null(), String("a")}, Tuple{Int(2), Null()})
	var buf bytes.Buffer
	if err := WriteCSV(&buf, r); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	got, err := ReadCSV(&buf, s)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if !got.Tuples[0][0].IsNull() || !got.Tuples[1][1].IsNull() {
		t.Error("nulls must survive the roundtrip")
	}
}
