package query

import (
	"bytes"
	"fmt"
	"strconv"

	"repro/internal/relation"
)

// Render pretty-prints the expression in a SQL-ish notation for logs, CLIs
// and experiment reports.
func Render(e Expr) string { return string(AppendRender(nil, e)) }

// AppendRender appends Render's text of e to dst and returns the extended
// buffer. With enough room in dst it allocates nothing, which is how the
// plan cache builds its key on every lookup.
func AppendRender(dst []byte, e Expr) []byte {
	switch q := e.(type) {
	case *SPC:
		return appendSPC(dst, q, nil)
	case *Union:
		dst = append(dst, '(')
		dst = AppendRender(dst, q.L)
		dst = append(dst, ") UNION ("...)
		dst = AppendRender(dst, q.R)
		return append(dst, ')')
	case *Diff:
		dst = append(dst, '(')
		dst = AppendRender(dst, q.L)
		dst = append(dst, ") EXCEPT ("...)
		dst = AppendRender(dst, q.R)
		return append(dst, ')')
	case *GroupBy:
		// SQL form only when it loses nothing: the inner SPC's projection
		// must be exactly keys + aggregate column (what the parser builds).
		// Anything else uses the explicit form, which renders the child in
		// full — Render must stay injective, it doubles as the plan-cache
		// key.
		if spc, ok := q.In.(*SPC); ok && sqlRenderable(spc, q) {
			return appendSPC(dst, spc, q)
		}
		dst = append(dst, "gpBy("...)
		dst = AppendRender(dst, q.In)
		dst = append(dst, ", {"...)
		dst = appendCols(dst, q.Keys)
		dst = append(dst, "}, "...)
		dst = appendAgg(dst, q)
		return append(dst, ')')
	default:
		return fmt.Appendf(dst, "<%T>", e)
	}
}

func appendSPC(dst []byte, q *SPC, g *GroupBy) []byte {
	dst = append(dst, "select "...)
	switch {
	case g != nil:
		if len(g.Keys) > 0 {
			dst = appendCols(dst, g.Keys)
			dst = append(dst, ", "...)
		}
		dst = appendAgg(dst, g)
		as := g.As
		if as == "" {
			as = "agg"
		}
		dst = append(dst, " as "...)
		dst = append(dst, as...)
	case len(q.Output) == 0:
		dst = append(dst, '*')
	default:
		dst = appendCols(dst, q.Output)
	}
	dst = append(dst, " from "...)
	for i, a := range q.Atoms {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = append(dst, a.Rel...)
		if a.Alias != "" && a.Alias != a.Rel {
			dst = append(dst, " as "...)
			dst = append(dst, a.Alias...)
		}
	}
	for i, p := range q.Preds {
		if i == 0 {
			dst = append(dst, " where "...)
		} else {
			dst = append(dst, " and "...)
		}
		dst = appendPred(dst, p)
	}
	if g != nil && len(g.Keys) > 0 {
		dst = append(dst, " group by "...)
		dst = appendCols(dst, g.Keys)
	}
	return dst
}

// sqlRenderable reports whether the group-by's inner projection is exactly
// Keys + On, i.e. fully implied by the SQL select list.
func sqlRenderable(spc *SPC, g *GroupBy) bool {
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

// appendAgg appends "agg(alias.attr)".
func appendAgg(dst []byte, g *GroupBy) []byte {
	dst = append(dst, g.Agg.String()...)
	dst = append(dst, '(')
	dst = appendCol(dst, g.On)
	return append(dst, ')')
}

func appendCols(dst []byte, cols []Col) []byte {
	for i, c := range cols {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = appendCol(dst, c)
	}
	return dst
}

func appendCol(dst []byte, c Col) []byte {
	dst = append(dst, c.Rel...)
	dst = append(dst, '.')
	return append(dst, c.Attr...)
}

// String renders the predicate in re-parseable form: string constants are
// quoted and float constants keep a digits-and-dot spelling, so that
// Render's output feeds back through the SQL parser (Parse ∘ Render is the
// identity on parsed queries, which the sqlparser fuzz target checks).
func (p Pred) String() string { return string(appendPred(nil, p)) }

func appendPred(dst []byte, p Pred) []byte {
	dst = appendCol(dst, p.Left)
	dst = append(dst, ' ')
	dst = append(dst, p.Op.String()...)
	dst = append(dst, ' ')
	if p.Join {
		return appendCol(dst, p.Right)
	}
	return appendConst(dst, p.Const)
}

// appendConst spells a constant the SQL lexer can read back.
func appendConst(dst []byte, v relation.Value) []byte {
	switch v.Kind() {
	case relation.KindString:
		// Double embedded quotes (SQL escaping): keeps Render injective —
		// it doubles as the plan-cache key — and re-parseable.
		s, _ := v.AsString()
		dst = append(dst, '\'')
		for i := 0; i < len(s); i++ {
			if s[i] == '\'' {
				dst = append(dst, '\'')
			}
			dst = append(dst, s[i])
		}
		return append(dst, '\'')
	case relation.KindFloat:
		f, _ := v.AsFloat()
		start := len(dst)
		dst = strconv.AppendFloat(dst, f, 'f', -1, 64)
		if bytes.IndexByte(dst[start:], '.') < 0 {
			dst = append(dst, ".0"...) // keep the float kind through a re-parse
		}
		return dst
	case relation.KindInt:
		i, _ := v.AsInt()
		return strconv.AppendInt(dst, i, 10)
	default:
		return append(dst, v.String()...)
	}
}
