package query

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/relation"
)

// kernelConsts are the constants the kernel differential tests: ints
// (including ones a float64 cannot hold exactly), integral and fractional
// floats, −0, NaN, ±Inf, strings and null. With scale 0.1 and tolerance 9,
// |1.1−0.2|/0.1 <= 9 holds while |1.1−0.2| <= 9·0.1 does not, so a kernel
// that rearranged the distance test would fail.
var kernelConsts = []relation.Value{
	relation.Int(0), relation.Int(1), relation.Int(-1), relation.Int(3), relation.Int(7),
	relation.Int(1 << 53), relation.Int(1<<53 + 1), relation.Int(math.MaxInt64), relation.Int(math.MinInt64),
	relation.Float(0), relation.Float(math.Copysign(0, -1)), relation.Float(3), relation.Float(2.5),
	relation.Float(-7.25), relation.Float(1.1), relation.Float(0.2), relation.Float(1 << 53), relation.Float(math.NaN()),
	relation.Float(math.Inf(1)), relation.Float(math.Inf(-1)),
	relation.String(""), relation.String("a"), relation.String("b"), relation.String("hotel"),
	relation.Null(),
}

var (
	kernelOps   = []CmpOp{OpEq, OpLe, OpGe, OpLt, OpGt, CmpOp(9)}
	kernelDists = []relation.Distance{
		relation.Trivial(), relation.Discrete(),
		relation.Numeric(0), relation.Numeric(-2), relation.Numeric(0.1), relation.Numeric(0.5), relation.Numeric(100),
	}
	kernelTols = []float64{0, 0.5, 1, 2.5, 9, math.Inf(1), math.NaN(), -1}
)

// kernelColumn builds a column of n rows drawn from pool, with a null in
// about one row of nullEvery when nullEvery > 0.
func kernelColumn(rng *rand.Rand, n int, pool []relation.Value, nullEvery int) *relation.Column {
	var c relation.Column
	for i := 0; i < n; i++ {
		if nullEvery > 0 && rng.Intn(nullEvery) == 0 {
			c.Append(relation.Null())
			continue
		}
		c.Append(pool[rng.Intn(len(pool))])
	}
	return &c
}

// checkKernel compares the kernel's selections of c — from every row, and
// narrowing sel — with RelaxedHolds evaluated row by row.
func checkKernel(t testing.TB, p Pred, d relation.Distance, tol float64, c *relation.Column, sel []int32) {
	t.Helper()
	k := CompileConst(p, d, tol)
	var want []int32
	for i := 0; i < c.Len(); i++ {
		if p.RelaxedHolds(d, c.Value(i), relation.Null(), tol) {
			want = append(want, int32(i))
		}
	}
	// The all-rows entry ignores what the reused storage held.
	if got := k.Select(c, []int32{5, 3, 1}, true); !slices.Equal(got, want) {
		t.Fatalf("%v under %v, tol %v, all rows of %v: kernel %v, RelaxedHolds %v", p, d, tol, columnValues(c), got, want)
	}
	want = want[:0]
	for _, i := range sel {
		if p.RelaxedHolds(d, c.Value(int(i)), relation.Null(), tol) {
			want = append(want, i)
		}
	}
	if got := k.Select(c, slices.Clone(sel), false); !slices.Equal(got, want) {
		t.Fatalf("%v under %v, tol %v, narrowing %v of %v: kernel %v, RelaxedHolds %v", p, d, tol, sel, columnValues(c), got, want)
	}
}

func columnValues(c *relation.Column) []relation.Value {
	vs := make([]relation.Value, c.Len())
	for i := range vs {
		vs[i] = c.Value(i)
	}
	return vs
}

// TestConstKernelMatchesRelaxedHolds is the kernel's differential test:
// for every operator, distance kind (numeric scale zero, negative and
// positive), tolerance (0, positive, +Inf, NaN, negative) and constant kind,
// the rows a ConstKernel selects — from every row and narrowing an existing
// selection — are exactly those at which RelaxedHolds holds. The columns
// cover the typed payloads (ints, floats with integral values, NaN, ±Inf and
// −0, strings) and the row-loop fallback (nulls, mixed kinds, all null).
func TestConstKernelMatchesRelaxedHolds(t *testing.T) {
	var ints, floats, strs []relation.Value
	for _, v := range kernelConsts {
		switch v.Kind() {
		case relation.KindInt:
			ints = append(ints, v)
		case relation.KindFloat:
			floats = append(floats, v)
		case relation.KindString:
			strs = append(strs, v)
		}
	}
	mixed := append(append(slices.Clone(ints), floats...), strs...)
	rng := rand.New(rand.NewSource(36))
	type colCase struct {
		name  string
		c     *relation.Column
		typed bool
	}
	var cols []colCase
	for rep := 0; rep < 2; rep++ {
		cols = append(cols,
			colCase{"ints", kernelColumn(rng, 20, ints, 0), true},
			colCase{"floats", kernelColumn(rng, 20, floats, 0), true},
			colCase{"strings", kernelColumn(rng, 20, strs, 0), true},
			colCase{"ints with nulls", kernelColumn(rng, 20, ints, 4), false},
			colCase{"strings with nulls", kernelColumn(rng, 20, strs, 4), false},
			colCase{"mixed kinds", kernelColumn(rng, 20, mixed, 6), false},
		)
	}
	cols = append(cols, colCase{"all null", kernelColumn(rng, 5, ints, 1), false})
	for _, cc := range cols {
		_, okI := cc.c.Ints()
		_, okF := cc.c.Floats()
		_, okS := cc.c.Strings()
		if typed := okI || okF || okS; typed != cc.typed {
			t.Fatalf("%s column: typed payload %v, want %v", cc.name, typed, cc.typed)
		}
		var sel []int32
		for i := 0; i < cc.c.Len(); i++ {
			if rng.Intn(2) == 0 {
				sel = append(sel, int32(i))
			}
		}
		for _, cv := range kernelConsts {
			for _, op := range kernelOps {
				p := Pred{Op: op, Left: C("r", "a"), Const: cv}
				for _, d := range kernelDists {
					for _, tol := range kernelTols {
						checkKernel(t, p, d, tol, cc.c, sel)
						checkKernel(t, p, d, tol, cc.c, nil)
					}
				}
			}
		}
	}
}

// TestConstKernelSelectionsDoNotAllocate pins that compiling two kernels
// and running them — the first over every row, the second narrowing — into
// a selection vector with room allocates nothing.
func TestConstKernelSelectionsDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var price, name relation.Column
	for i := 0; i < 1000; i++ {
		price.Append(relation.Float(float64(rng.Intn(200))))
		name.Append(relation.String([]string{"a", "b", "hotel"}[rng.Intn(3)]))
	}
	p1 := LeC(C("r", "price"), relation.Int(120))
	p2 := EqC(C("r", "name"), relation.String("hotel"))
	sel := make([]int32, 0, price.Len())
	if allocs := testing.AllocsPerRun(50, func() {
		k1 := CompileConst(p1, relation.Numeric(100), 0.1)
		k2 := CompileConst(p2, relation.Discrete(), 0)
		sel = k1.Select(&price, sel, true)
		sel = k2.Select(&name, sel, false)
	}); allocs != 0 {
		t.Fatalf("two kernel selections allocate %.0f times, want 0", allocs)
	}
	if len(sel) == 0 || len(sel) == price.Len() {
		t.Fatalf("%d of %d rows selected; the pin wants a selective predicate", len(sel), price.Len())
	}
}

// FuzzConstKernel drives the differential from fuzzed predicates and
// columns: data is read as 9-byte rows (a tag byte and 8 payload bytes)
// whose kinds mode fixes (ints, floats, strings, ints with nulls) or the
// tags choose row by row (nulls and mixed kinds); rows with an odd tag form
// the selection narrowed.
func FuzzConstKernel(f *testing.F) {
	f.Add(uint8(1), uint8(2), 100.0, 0.1, uint8(2), int64(120), 120.0, "", uint8(1),
		[]byte{1, 0, 0, 0, 0, 0, 0, 94, 64, 2, 0, 0, 0, 0, 0, 0, 248, 127, 3, 0, 0, 0, 0, 0, 0, 240, 127})
	f.Add(uint8(0), uint8(1), 0.0, 0.0, uint8(3), int64(0), 0.0, "hotel", uint8(2),
		[]byte{5, 'h', 'o', 't', 'e', 'l', 0, 0, 0, 1, 'a', 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint8(3), uint8(0), -1.0, math.Inf(1), uint8(1), int64(-7), 0.0, "", uint8(0),
		[]byte{0, 249, 255, 255, 255, 255, 255, 255, 255, 1, 3, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint8(4), uint8(2), 0.0, math.NaN(), uint8(2), int64(0), math.Copysign(0, -1), "", uint8(3),
		[]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 7, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 128, 3, 'x', 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, op, dk uint8, scale, tol float64, ck uint8, ci int64, cf float64, cs string, mode uint8, data []byte) {
		consts := []relation.Value{relation.Null(), relation.Int(ci), relation.Float(cf), relation.String(cs)}
		p := Pred{Op: CmpOp(op % 6), Left: C("r", "a"), Const: consts[ck%4]}
		d := relation.Distance{Kind: relation.DistanceKind(dk % 3), Scale: scale}
		var c relation.Column
		var sel []int32
		for r := 0; len(data) >= 9 && r < 256; r, data = r+1, data[9:] {
			tag, bits := data[0], binary.LittleEndian.Uint64(data[1:9])
			kind := mode % 5
			if kind == 3 {
				kind = tag % 4 // row by row: null, int, float, string
			} else if kind == 4 {
				kind = 1 // ints with nulls
				if tag%4 == 0 {
					kind = 0
				}
			} else {
				kind++
			}
			switch kind {
			case 0:
				c.Append(relation.Null())
			case 1:
				c.Append(relation.Int(int64(bits)))
			case 2:
				if tag&2 != 0 {
					c.Append(relation.Float(float64(int8(bits))))
				} else {
					c.Append(relation.Float(math.Float64frombits(bits)))
				}
			default:
				c.Append(relation.String(string(data[1 : 1+tag%9])))
			}
			if tag&1 != 0 {
				sel = append(sel, int32(r))
			}
		}
		checkKernel(t, p, d, tol, &c, sel)
	})
}
