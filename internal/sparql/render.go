package sparql

// Query rendering: Query.String() serializes a parsed query back to SPARQL
// source that this package's parser accepts, reaching a fixed point after
// one round trip (render(parse(render(q))) == render(q) — the property
// FuzzParseQuery enforces). Prefixes are expanded (terms render as absolute
// IRIs), and anonymous blank nodes — which the parser rewrites to internal
// variables — render as plain variables with a reserved ?_anonN name, so
// the rendered text is plain-variable SPARQL. The renderer is for
// diagnostics, corpus generation, and round-trip testing; it does not try
// to reproduce the original layout.

import (
	"strconv"
	"strings"

	"repro/internal/rdf"
)

// String renders the query as parseable SPARQL source.
func (q *Query) String() string { return renderer{}.query(q) }

// renderer renders a query; params holds the values of a template's
// parameter references (nil for a parsed query).
type renderer struct{ params []rdf.Term }

// query renders q with its parameters bound to r.params.
//
//feo:emit
func (r renderer) query(q *Query) string {
	var b strings.Builder
	switch q.Kind {
	case KindSelect:
		b.WriteString("SELECT ")
		if q.Distinct {
			b.WriteString("DISTINCT ")
		} else if q.Reduced {
			b.WriteString("REDUCED ")
		}
		if len(q.Projection) == 0 {
			b.WriteString("*")
		} else {
			for i, item := range q.Projection {
				if i > 0 {
					b.WriteByte(' ')
				}
				if item.Expr != nil {
					b.WriteString("(" + r.renderExpr(item.Expr) + " AS " + renderVar(item.Var) + ")")
				} else {
					b.WriteString(renderVar(item.Var))
				}
			}
		}
	case KindAsk:
		b.WriteString("ASK")
	case KindConstruct:
		b.WriteString("CONSTRUCT { ")
		for _, tp := range q.Template {
			b.WriteString(r.renderTriple(tp) + " ")
		}
		b.WriteString("}")
	case KindDescribe:
		b.WriteString("DESCRIBE")
		for _, dt := range q.DescribeTerms {
			b.WriteByte(' ')
			b.WriteString(r.renderTermOrVar(dt))
		}
	}
	b.WriteString(" WHERE ")
	r.renderGroup(&b, q.Where)
	if len(q.GroupBy) > 0 {
		b.WriteString(" GROUP BY")
		for _, ge := range q.GroupBy {
			b.WriteByte(' ')
			if ve, ok := ge.(*VarExpr); ok {
				b.WriteString(renderVar(ve.Name))
			} else {
				b.WriteString("(" + r.renderExpr(ge) + ")")
			}
		}
	}
	if len(q.Having) > 0 {
		b.WriteString(" HAVING")
		for _, h := range q.Having {
			b.WriteString(" (" + r.renderExpr(h) + ")")
		}
	}
	if len(q.OrderBy) > 0 {
		b.WriteString(" ORDER BY")
		for _, oc := range q.OrderBy {
			if oc.Descending {
				b.WriteString(" DESC(" + r.renderExpr(oc.Expr) + ")")
			} else {
				b.WriteString(" ASC(" + r.renderExpr(oc.Expr) + ")")
			}
		}
	}
	if q.Limit >= 0 {
		b.WriteString(" LIMIT " + strconv.Itoa(q.Limit))
	}
	if q.Offset > 0 {
		b.WriteString(" OFFSET " + strconv.Itoa(q.Offset))
	}
	return b.String()
}

// renderVar maps internal anonymous-blank variables (" bnodeN") onto the
// reserved plain name ?_anonN; ordinary variables render as ?name.
func renderVar(name string) string {
	if rest, ok := strings.CutPrefix(name, " bnode"); ok {
		return "?_anon" + rest
	}
	return "?" + name
}

func (r renderer) renderTermOrVar(tv TermOrVar) string {
	if tv.IsVar {
		return renderVar(tv.Var)
	}
	if tv.param > 0 {
		return r.params[tv.param-1].String()
	}
	return tv.Term.String()
}

func (r renderer) renderTriple(tp TriplePattern) string {
	p := ""
	if tp.Path != nil {
		p = r.renderPath(tp.Path)
	} else {
		p = r.renderTermOrVar(tp.P)
	}
	return r.renderTermOrVar(tp.S) + " " + p + " " + r.renderTermOrVar(tp.O) + " ."
}

func (r renderer) renderPath(p *Path) string {
	switch p.Kind {
	case PathIRI:
		return p.IRI.String()
	case PathSeq:
		return "(" + r.renderPath(p.Kids[0]) + "/" + r.renderPath(p.Kids[1]) + ")"
	case PathAlt:
		parts := make([]string, len(p.Kids))
		for i, kid := range p.Kids {
			parts[i] = r.renderPath(kid)
		}
		return "(" + strings.Join(parts, "|") + ")"
	case PathInverse:
		return "^(" + r.renderPath(p.Kids[0]) + ")"
	case PathZeroOrMore:
		return "(" + r.renderPath(p.Kids[0]) + ")*"
	case PathOneOrMore:
		return "(" + r.renderPath(p.Kids[0]) + ")+"
	case PathZeroOrOne:
		return "(" + r.renderPath(p.Kids[0]) + ")?"
	}
	return "<invalid-path>"
}

func (r renderer) renderGroup(b *strings.Builder, g *Group) {
	b.WriteString("{ ")
	if g != nil {
		for _, p := range g.Patterns {
			r.renderPattern(b, p)
			b.WriteByte(' ')
		}
		for _, f := range g.Filters {
			if ex, ok := f.(*ExistsExpr); ok {
				b.WriteString("FILTER " + r.renderExists(ex) + " ")
				continue
			}
			b.WriteString("FILTER (" + r.renderExpr(f) + ") ")
		}
	}
	b.WriteString("}")
}

func (r renderer) renderPattern(b *strings.Builder, p Pattern) {
	switch pat := p.(type) {
	case *BGP:
		for i, tp := range pat.Triples {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(r.renderTriple(tp))
		}
	case *Group:
		// The parser wraps every UNION in a singleton group (and nested
		// braces in general); unwrap filterless singletons so rendering is
		// a fixed point instead of growing a brace level per round trip.
		if len(pat.Patterns) == 1 && len(pat.Filters) == 0 {
			r.renderPattern(b, pat.Patterns[0])
			return
		}
		r.renderGroup(b, pat)
	case *Optional:
		b.WriteString("OPTIONAL ")
		r.renderGroup(b, pat.Pattern)
	case *Union:
		r.renderGroup(b, pat.Left)
		b.WriteString(" UNION ")
		r.renderGroup(b, pat.Right)
	case *Minus:
		b.WriteString("MINUS ")
		r.renderGroup(b, pat.Pattern)
	case *Bind:
		b.WriteString("BIND(" + r.renderExpr(pat.Expr) + " AS " + renderVar(pat.Var) + ")")
	case *InlineData:
		b.WriteString("VALUES (")
		for i, v := range pat.Vars {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(renderVar(v))
		}
		b.WriteString(") { ")
		for _, row := range pat.Rows {
			b.WriteString("(")
			for i, cell := range row {
				if i > 0 {
					b.WriteByte(' ')
				}
				if cell.Defined {
					b.WriteString(cell.Term.String())
				} else {
					b.WriteString("UNDEF")
				}
			}
			b.WriteString(") ")
		}
		b.WriteString("}")
	case *SubSelect:
		b.WriteString("{ ")
		b.WriteString(r.query(pat.Query))
		b.WriteString(" }")
	}
}

func (r renderer) renderExists(e *ExistsExpr) string {
	var b strings.Builder
	if e.Negated {
		b.WriteString("NOT ")
	}
	b.WriteString("EXISTS ")
	r.renderGroup(&b, e.Pattern)
	return b.String()
}

func (r renderer) renderExpr(e Expression) string {
	switch x := e.(type) {
	case *VarExpr:
		return renderVar(x.Name)
	case *ConstExpr:
		return x.Term.String()
	case *paramExpr:
		return r.params[x.index].String()
	case *BinaryExpr:
		return "(" + r.renderExpr(x.Left) + " " + x.Op + " " + r.renderExpr(x.Right) + ")"
	case *UnaryExpr:
		return "(" + x.Op + r.renderExpr(x.Expr) + ")"
	case *FuncExpr:
		args := make([]string, len(x.Args))
		for i, a := range x.Args {
			args[i] = r.renderExpr(a)
		}
		return x.Name + "(" + strings.Join(args, ", ") + ")"
	case *InExpr:
		items := make([]string, len(x.List))
		for i, item := range x.List {
			items[i] = r.renderExpr(item)
		}
		op := " IN ("
		if x.Negated {
			op = " NOT IN ("
		}
		return "(" + r.renderExpr(x.Expr) + op + strings.Join(items, ", ") + "))"
	case *AggExpr:
		var b strings.Builder
		b.WriteString(x.Name)
		b.WriteByte('(')
		if x.Distinct {
			b.WriteString("DISTINCT ")
		}
		if x.Arg == nil {
			b.WriteByte('*')
		} else {
			b.WriteString(r.renderExpr(x.Arg))
		}
		if x.Name == "GROUP_CONCAT" && x.Sep != " " {
			b.WriteString("; SEPARATOR=" + rdf.QuoteLiteral(x.Sep))
		}
		b.WriteByte(')')
		return b.String()
	case *ExistsExpr:
		return r.renderExists(x)
	}
	return "<invalid-expr>"
}
