package access

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/relation"
)

// lineitemFixture is a database of two relations shaped as TPCH's: a
// lineitem of n rows and an orders of n/20, each under At, lineitem under
// the three grouped ladders of the TPCH workload and orders under one by
// status. lineitem's At group is the largest tree a write rebuilds, and
// orders' groups are all small.
func lineitemFixture(t *testing.T, rng *rand.Rand, n int) (*relation.Database, *Schema) {
	t.Helper()
	db := relation.NewDatabase()
	lineitem := relation.NewRelation(relation.MustSchema("lineitem",
		relation.Attr("ok", relation.KindInt, relation.Trivial()),
		relation.Attr("pk", relation.KindInt, relation.Trivial()),
		relation.Attr("sk", relation.KindInt, relation.Trivial()),
		relation.Attr("qty", relation.KindInt, relation.Numeric(49)),
		relation.Attr("extprice", relation.KindFloat, relation.Numeric(100000)),
		relation.Attr("discount", relation.KindFloat, relation.Numeric(0.1)),
		relation.Attr("ship", relation.KindInt, relation.Numeric(2555)),
	))
	orders := relation.NewRelation(relation.MustSchema("orders",
		relation.Attr("ok", relation.KindInt, relation.Trivial()),
		relation.Attr("status", relation.KindString, relation.Discrete()),
		relation.Attr("totalprice", relation.KindFloat, relation.Numeric(199000)),
	))
	for i := 0; i < n; i++ {
		lineitem.MustAppend(lineitemRow(rng, n))
	}
	for i := 0; i < n/20; i++ {
		orders.MustAppend(ordersRow(rng, n))
	}
	db.MustAdd(lineitem)
	db.MustAdd(orders)
	s, err := BuildAt(db)
	if err != nil {
		t.Fatal(err)
	}
	rest := []string{"ok", "pk", "sk", "qty", "extprice", "discount", "ship"}
	for _, x := range []string{"ok", "pk", "sk"} {
		var y []string
		for _, a := range rest {
			if a != x {
				y = append(y, a)
			}
		}
		if _, err := s.Extend(db, "lineitem", []string{x}, y); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Extend(db, "orders", []string{"status"}, []string{"ok", "totalprice"}); err != nil {
		t.Fatal(err)
	}
	return db, s
}

func lineitemRow(rng *rand.Rand, n int) relation.Tuple {
	return relation.Tuple{
		relation.Int(int64(rng.Intn(n/4 + 1))), relation.Int(int64(rng.Intn(n/8 + 1))),
		relation.Int(int64(rng.Intn(n/64 + 1))), relation.Int(int64(1 + rng.Intn(50))),
		relation.Float(100 + rng.Float64()*100000), relation.Float(rng.Float64() * 0.1),
		relation.Int(int64(rng.Intn(2556))),
	}
}

func ordersRow(rng *rand.Rand, n int) relation.Tuple {
	statuses := []string{"F", "O", "P"}
	return relation.Tuple{
		relation.Int(int64(rng.Intn(n / 4))), relation.String(statuses[rng.Intn(len(statuses))]),
		relation.Float(1000 + rng.Float64()*199000),
	}
}

// writes returns a batch of k inserts of fresh rows and k deletes of
// stored ones into rel.
func writes(rng *rand.Rand, db *relation.Database, rel string, k, n int) []Op {
	stored := db.MustRelation(rel).Tuples
	var ops []Op
	for i := 0; i < k; i++ {
		row := ordersRow(rng, n)
		if rel == "lineitem" {
			row = lineitemRow(rng, n)
		}
		ops = append(ops,
			Op{Kind: OpInsert, Rel: rel, Tuple: row},
			Op{Kind: OpDelete, Rel: rel, Tuple: stored[rng.Intn(len(stored))].Clone()})
	}
	return ops
}

// The build memory a schema keeps from batch to batch must build exactly
// what fresh memory builds. Over a lineitem whose At group forks the
// kd-tree build (above forkMin) and an orders whose groups are all small,
// a run of steady-state batches rebuilds the large group after small ones
// and small groups after the large one — in memory grown, then reused
// short, then regrown — and after every batch every ladder must match the
// reference construction (assertMatchesReference).
func TestApplyKeepsBuildsExact(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	const (
		n       = 2600
		forkMin = 2048 // the kd-tree build's: the smallest node it forks
	)
	rng := rand.New(rand.NewSource(48))
	db, s := lineitemFixture(t, rng, n)
	if at := s.Find("lineitem", nil, []string{"ok", "pk", "sk", "qty", "extprice", "discount", "ship"}); at == nil || at.dir.items(0).rows <= forkMin {
		t.Fatalf("lineitem's At group must be larger than %d rows", forkMin)
	}
	// Lineitem, orders, both: each kind of batch follows each other kind.
	plans := [][]string{{"lineitem"}, {"orders"}, {"lineitem", "orders"}}
	for b := 0; b < 21; b++ {
		var ops []Op
		for _, rel := range plans[b%len(plans)] {
			ops = append(ops, writes(rng, db, rel, 1+rng.Intn(25), n)...)
		}
		if _, err := s.Apply(db, ops); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		if len(s.builds) != runtime.GOMAXPROCS(0) {
			t.Fatalf("batch %d: the schema keeps %d build memories, want one per worker (%d)", b, len(s.builds), runtime.GOMAXPROCS(0))
		}
		for _, l := range s.Ladders {
			assertMatchesReference(t, fmt.Sprintf("batch %d %s(%v→%v)", b, l.RelName, l.X, l.Y), l, db)
		}
	}
}

// pointerFree reports whether values of type t hold no pointer: the
// garbage collector never scans a slice of them.
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return pointerFree(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.Chan,
		reflect.Func, reflect.Interface, reflect.String:
		return false
	}
	return true
}

// The buffers a kept buildOut grows with its groups — the level rows, the
// level sizes and the resolutions — hold no pointers (the kd-tree
// package checks its own).
func TestKeptBuildMemoryHoldsNoPointers(t *testing.T) {
	out := reflect.TypeOf(buildOut{})
	for _, name := range []string{"reps", "sizes", "res"} {
		f, ok := out.FieldByName(name)
		if !ok || f.Type.Kind() != reflect.Slice {
			t.Fatalf("buildOut.%s is not a slice", name)
		}
		if !pointerFree(f.Type.Elem()) {
			t.Errorf("buildOut.%s holds %v, which has pointers", name, f.Type.Elem())
		}
	}
}
