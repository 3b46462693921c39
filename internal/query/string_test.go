package query_test

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/workload"
)

// The reference renderer: Render, Pred.String and their helpers as they
// were written over fmt and strings.Builder before AppendRender replaced
// them. Render doubles as the plan-cache key and feeds the SQL a server is
// sent, so the renderer must reproduce it byte for byte.

func refRender(e query.Expr) string {
	var b strings.Builder
	refRenderTo(&b, e)
	return b.String()
}

func refRenderTo(b *strings.Builder, e query.Expr) {
	switch q := e.(type) {
	case *query.SPC:
		refRenderSPC(b, q, nil)
	case *query.Union:
		b.WriteString("(")
		refRenderTo(b, q.L)
		b.WriteString(") UNION (")
		refRenderTo(b, q.R)
		b.WriteString(")")
	case *query.Diff:
		b.WriteString("(")
		refRenderTo(b, q.L)
		b.WriteString(") EXCEPT (")
		refRenderTo(b, q.R)
		b.WriteString(")")
	case *query.GroupBy:
		if spc, ok := q.In.(*query.SPC); ok && refSQLRenderable(spc, q) {
			refRenderSPC(b, spc, q)
			return
		}
		fmt.Fprintf(b, "gpBy(")
		refRenderTo(b, q.In)
		fmt.Fprintf(b, ", {%s}, %s(%s))", refColList(q.Keys), q.Agg, q.On)
	default:
		fmt.Fprintf(b, "<%T>", e)
	}
}

func refRenderSPC(b *strings.Builder, q *query.SPC, g *query.GroupBy) {
	b.WriteString("select ")
	switch {
	case g != nil:
		as := g.As
		if as == "" {
			as = "agg"
		}
		if len(g.Keys) > 0 {
			fmt.Fprintf(b, "%s, ", refColList(g.Keys))
		}
		fmt.Fprintf(b, "%s(%s) as %s", g.Agg, g.On, as)
	case len(q.Output) == 0:
		b.WriteString("*")
	default:
		b.WriteString(refColList(q.Output))
	}
	b.WriteString(" from ")
	for i, a := range q.Atoms {
		if i > 0 {
			b.WriteString(", ")
		}
		if a.Alias != "" && a.Alias != a.Rel {
			fmt.Fprintf(b, "%s as %s", a.Rel, a.Alias)
		} else {
			b.WriteString(a.Rel)
		}
	}
	if len(q.Preds) > 0 {
		b.WriteString(" where ")
		for i, p := range q.Preds {
			if i > 0 {
				b.WriteString(" and ")
			}
			b.WriteString(refPredString(p))
		}
	}
	if g != nil && len(g.Keys) > 0 {
		fmt.Fprintf(b, " group by %s", refColList(g.Keys))
	}
}

func refSQLRenderable(spc *query.SPC, g *query.GroupBy) bool {
	if len(spc.Output) != len(g.Keys)+1 {
		return false
	}
	for i, k := range g.Keys {
		if spc.Output[i] != k {
			return false
		}
	}
	return spc.Output[len(spc.Output)-1] == g.On
}

func refColList(cols []query.Col) string {
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = c.String()
	}
	return strings.Join(parts, ", ")
}

func refPredString(p query.Pred) string {
	if p.Join {
		return fmt.Sprintf("%s %s %s", p.Left, p.Op, p.Right)
	}
	return fmt.Sprintf("%s %s %s", p.Left, p.Op, refRenderConst(p.Const))
}

func refRenderConst(v relation.Value) string {
	switch v.Kind() {
	case relation.KindString:
		s, _ := v.AsString()
		return "'" + strings.ReplaceAll(s, "'", "''") + "'"
	case relation.KindFloat:
		f, _ := v.AsFloat()
		s := strconv.FormatFloat(f, 'f', -1, 64)
		if !strings.ContainsRune(s, '.') {
			s += ".0"
		}
		return s
	default:
		return v.String()
	}
}

// checkRender holds Render, AppendRender (into an empty buffer and after a
// prefix) and Pred.String of every predicate of every leaf to the reference.
func checkRender(t *testing.T, where string, e query.Expr) {
	t.Helper()
	want := refRender(e)
	if got := query.Render(e); got != want {
		t.Fatalf("%s: Render =\n%q\nreference\n%q", where, got, want)
	}
	if got := query.AppendRender(nil, e); string(got) != want {
		t.Fatalf("%s: AppendRender =\n%q\nreference\n%q", where, got, want)
	}
	if got := query.AppendRender([]byte("k|"), e); string(got) != "k|"+want {
		t.Fatalf("%s: AppendRender after a prefix =\n%q\nreference\n%q", where, got, "k|"+want)
	}
	for _, l := range query.SPCLeaves(e) {
		for _, p := range l.Preds {
			if got, want := p.String(), refPredString(p); got != want {
				t.Fatalf("%s: Pred.String = %q, reference %q", where, got, want)
			}
		}
	}
}

// Render, AppendRender and Pred.String are byte-identical to the reference
// over the randomized and edge-shape corpora and 2,000 generated queries
// of each of TPCH, TFACC and AIRCA.
func TestAppendRenderMatchesReference(t *testing.T) {
	n := 0
	for ci, c := range corpus.Default() {
		checkRender(t, fmt.Sprintf("corpus case %d", ci), c.Query)
		n++
	}
	for ci, c := range corpus.EdgeCases() {
		checkRender(t, fmt.Sprintf("edge case %d", ci), c.Query)
		n++
	}
	for _, d := range []*workload.Dataset{workload.TPCH(1, 3), workload.TFACC(1, 3), workload.AIRCA(1, 3)} {
		qs, err := d.Workload(2000, 11)
		if err != nil {
			t.Fatal(err)
		}
		for qi, e := range qs {
			checkRender(t, fmt.Sprintf("%s query %d", d.Name, qi), e)
			n++
		}
	}
	t.Logf("%d queries rendered identically", n)
}

// AppendRender into a buffer with enough room allocates nothing (0
// allocations per call) on every corpus query.
func TestAppendRenderAllocatesNothing(t *testing.T) {
	buf := make([]byte, 0, 1<<14)
	for ci, c := range append(corpus.Default(), corpus.EdgeCases()...) {
		if n := testing.AllocsPerRun(10, func() { buf = query.AppendRender(buf[:0], c.Query) }); n != 0 {
			t.Fatalf("case %d: AppendRender allocates %v times per call\n%s", ci, n, query.Render(c.Query))
		}
	}
}

// renderFuzzQuery builds a query around one constant predicate, in the
// shape the selector picks: a bare SPC, a union, a difference, a group-by
// in SQL form or one in the explicit gpBy form.
func renderFuzzQuery(p query.Pred, alias, as string, shape uint8) query.Expr {
	c := func(attr string) query.Col { return query.C(alias, attr) }
	spc := &query.SPC{
		Atoms:  []query.Atom{{Rel: "poi", Alias: alias}, {Rel: "friend"}},
		Preds:  []query.Pred{p, query.EqJ(c("pid"), query.C("friend", "fid"))},
		Output: []query.Col{c("city"), c("price")},
	}
	switch shape % 5 {
	case 1:
		return &query.Union{L: spc, R: &query.SPC{Atoms: spc.Atoms[:1], Preds: spc.Preds[:1]}}
	case 2:
		return &query.Diff{L: spc, R: spc}
	case 3:
		return &query.GroupBy{In: spc, Keys: []query.Col{c("city")}, Agg: query.AggMax, On: c("price"), As: as}
	case 4:
		return &query.GroupBy{In: spc, Keys: []query.Col{c("price"), c("city")}, Agg: query.AggCount, On: c("city"), As: as}
	default:
		return spc
	}
}

// FuzzRenderMatchesReference holds the renderer to the reference on
// queries around one arbitrary constant: every float spelling (−0, NaN,
// ±Inf, huge, subnormal, integral), extreme ints, strings with quotes,
// empty or spelling NULL, and null.
func FuzzRenderMatchesReference(f *testing.F) {
	for _, v := range []float64{math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1e21, 5e-324, 0.1, 3, -42} {
		f.Add(uint8(2), uint8(0), int64(0), v, "", "h", "", uint8(0))
	}
	for _, v := range []int64{math.MaxInt64, -math.MaxInt64, math.MinInt64, 0} {
		f.Add(uint8(1), uint8(3), v, 0.0, "", "h", "agg", uint8(1))
	}
	for _, s := range []string{"it's", "''", "", "NULL", "a'b'c"} {
		f.Add(uint8(3), uint8(1), int64(0), 0.0, s, "poi", "m", uint8(3))
	}
	f.Add(uint8(0), uint8(4), int64(0), 0.0, "", "", "", uint8(4))
	f.Add(uint8(2), uint8(2), int64(0), 1e300, "x", "p", "", uint8(2))
	f.Fuzz(func(t *testing.T, kind, op uint8, i int64, fl float64, s, alias, as string, shape uint8) {
		consts := []relation.Value{relation.Null(), relation.Int(i), relation.Float(fl), relation.String(s)}
		p := query.Pred{Op: query.CmpOp(op % 6), Left: query.C(alias, "city"), Const: consts[kind%4]}
		checkRender(t, "fuzz", renderFuzzQuery(p, alias, as, shape))
	})
}
