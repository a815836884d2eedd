package sparql

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/rdf"
)

// ParseQuery parses a SPARQL query string. The returned Query carries the
// prefix declarations it contained; the repository's standard prefixes
// (rdf, rdfs, owl, xsd, eo, feo, food, kg) are pre-bound so the paper's
// listings parse verbatim.
func ParseQuery(src string) (*Query, error) {
	q, _, err := parse(src, false)
	return q, err
}

// parse parses a query. With lift set it builds a template: every
// constant the lexer lifted that sits in a triple-pattern position or is
// an expression constant becomes a reference into the parameter vector
// (p.lx.params), and the parameters compiled in elsewhere are listed in
// p.pinned.
func parse(src string, lift bool) (*Query, *qparser, error) {
	p := newParser(src, lift)
	q, err := p.parseQuery()
	if err = p.finish(err); err != nil {
		return nil, nil, err
	}
	q.Namespaces = p.ns
	return q, p, nil
}

type qparser struct {
	lx lexer
	// la buffers the tokens read ahead of the cursor: the parser looks at
	// most one token past the current one.
	la     [2]token
	nla    int
	lexErr error
	ns     *rdf.Namespaces
	// lift marks a template parse; pinned lists the lifted parameters
	// compiled into the template.
	lift     bool
	pinned   []int
	bnodeSeq int
	aggSeq   int
	aggs     []*AggExpr // aggregates discovered while parsing
}

func newParser(src string, lift bool) *qparser {
	return &qparser{lx: lexer{src: src}, ns: rdf.StandardNamespaces(), lift: lift}
}

// peek returns the token i places past the cursor (i ≤ 1). A lexing
// error ends the stream with EOF and is reported by finish.
func (p *qparser) peek(i int) token {
	for p.nla <= i {
		t, err := p.lx.next()
		if err != nil && p.lexErr == nil {
			p.lexErr = err
		}
		p.la[p.nla] = t
		p.nla++
	}
	return p.la[i]
}

// cur and next stop at EOF: error paths that consume a token they
// expected to exist (e.g. a GROUP_CONCAT separator cut off mid-clause)
// keep reporting EOF.
func (p *qparser) cur() token { return p.peek(0) }

func (p *qparser) next() token {
	t := p.peek(0)
	if t.kind != tokEOF {
		p.la[0] = p.la[1]
		p.nla--
	}
	return t
}

// finish settles a parse's error: a lexing error anywhere in the text
// wins over a syntax error, so after a syntax error the rest of the text
// is still lexed. The reported error then does not depend on how far the
// parser read.
func (p *qparser) finish(err error) error {
	if p.lexErr != nil {
		return p.lexErr
	}
	if err == nil {
		return nil
	}
	for {
		t, lerr := p.lx.next()
		if lerr != nil {
			return lerr
		}
		if t.kind == tokEOF {
			return err
		}
	}
}

// pin returns constant token t's term, compiled into the template: its
// parameter joins the cache key.
func (p *qparser) pin(t token) rdf.Term {
	p.pinned = append(p.pinned, t.param)
	return p.lx.params[t.param]
}

// pinPos compiles a parameter reference in a pattern position into the
// template (path endpoints, CONSTRUCT templates).
func (p *qparser) pinPos(tv TermOrVar) TermOrVar {
	if tv.param == 0 {
		return tv
	}
	p.pinned = append(p.pinned, tv.param-1)
	return T(p.lx.params[tv.param-1])
}

// constPos is the pattern position of constant token t: a parameter
// reference in a template, the term otherwise.
func (p *qparser) constPos(t token) TermOrVar {
	if p.lift {
		return TermOrVar{param: t.param + 1}
	}
	return T(p.lx.params[t.param])
}

// constExpr is the expression for constant token t, likewise.
func (p *qparser) constExpr(t token) Expression {
	if p.lift {
		return &paramExpr{index: t.param}
	}
	return &ConstExpr{Term: p.lx.params[t.param]}
}

func (p *qparser) errf(format string, args ...any) error {
	t := p.cur()
	return p.lx.errAt(t.end, fmt.Sprintf(format, args...))
}

func (p *qparser) isKeyword(kw string) bool {
	t := p.cur()
	return t.kind == tokKeyword && t.text == kw
}

func (p *qparser) acceptKeyword(kw string) bool {
	if p.isKeyword(kw) {
		p.next()
		return true
	}
	return false
}

func (p *qparser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errf("expected %s, found %s", kw, p.cur())
	}
	return nil
}

func (p *qparser) isPunct(s string) bool {
	t := p.cur()
	return t.kind == tokPunct && t.text == s
}

func (p *qparser) acceptPunct(s string) bool {
	if p.isPunct(s) {
		p.next()
		return true
	}
	return false
}

func (p *qparser) expectPunct(s string) error {
	if !p.acceptPunct(s) {
		return p.errf("expected %q, found %s", s, p.cur())
	}
	return nil
}

func (p *qparser) parseQuery() (*Query, error) {
	if err := p.parsePrologue(); err != nil {
		return nil, err
	}
	q := &Query{Limit: -1}
	switch {
	case p.acceptKeyword("SELECT"):
		q.Kind = KindSelect
		if err := p.parseSelectClause(q); err != nil {
			return nil, err
		}
	case p.acceptKeyword("ASK"):
		q.Kind = KindAsk
	case p.acceptKeyword("CONSTRUCT"):
		q.Kind = KindConstruct
		if err := p.parseConstructTemplate(q); err != nil {
			return nil, err
		}
	case p.acceptKeyword("DESCRIBE"):
		q.Kind = KindDescribe
		if err := p.parseDescribeTerms(q); err != nil {
			return nil, err
		}
		// DESCRIBE may omit WHERE entirely.
		if p.cur().kind == tokEOF {
			q.Where = &Group{}
			return q, nil
		}
	default:
		return nil, p.errf("expected SELECT, ASK, CONSTRUCT, or DESCRIBE, found %s", p.cur())
	}
	p.acceptKeyword("WHERE")
	w, err := p.parseGroupGraphPattern()
	if err != nil {
		return nil, err
	}
	q.Where = w
	if err := p.parseSolutionModifiers(q); err != nil {
		return nil, err
	}
	if p.cur().kind != tokEOF {
		return nil, p.errf("unexpected trailing input %s", p.cur())
	}
	// Hoist aggregates found in projection/having into keys.
	for i, agg := range p.aggs {
		agg.key = fmt.Sprintf(" agg%d", i)
	}
	return q, nil
}

func (p *qparser) parsePrologue() error {
	for {
		switch {
		case p.acceptKeyword("PREFIX"):
			// Only a PNAME_NS declares: a name whose one ':' ends it.
			t := p.next()
			name, local, ok := strings.Cut(t.text, ":")
			if t.kind != tokPName || !ok || local != "" {
				return p.lx.errAt(t.end, "expected prefix declaration")
			}
			iriTok := p.next()
			if iriTok.kind != tokIRIRef {
				return p.lx.errAt(iriTok.end, "expected IRI in PREFIX")
			}
			p.ns.Bind(name, iriTok.text)
		case p.acceptKeyword("BASE"):
			iriTok := p.next()
			if iriTok.kind != tokIRIRef {
				return p.lx.errAt(iriTok.end, "expected IRI in BASE")
			}
			p.ns.SetBase(iriTok.text)
		default:
			return nil
		}
	}
}

func (p *qparser) parseSelectClause(q *Query) error {
	if p.acceptKeyword("DISTINCT") {
		q.Distinct = true
	} else if p.acceptKeyword("REDUCED") {
		q.Reduced = true
	}
	if p.acceptPunct("*") {
		return nil // SELECT *
	}
	for {
		switch {
		case p.cur().kind == tokVar:
			q.Projection = append(q.Projection, SelectItem{Var: p.next().text})
		case p.isPunct("("):
			p.next()
			expr, err := p.parseExpression()
			if err != nil {
				return err
			}
			if err := p.expectKeyword("AS"); err != nil {
				return err
			}
			if p.cur().kind != tokVar {
				return p.errf("expected variable after AS")
			}
			v := p.next().text
			if err := p.expectPunct(")"); err != nil {
				return err
			}
			q.Projection = append(q.Projection, SelectItem{Var: v, Expr: expr})
		default:
			if len(q.Projection) == 0 {
				return p.errf("SELECT needs at least one variable or *")
			}
			return nil
		}
	}
}

func (p *qparser) parseConstructTemplate(q *Query) error {
	if err := p.expectPunct("{"); err != nil {
		return err
	}
	for !p.isPunct("}") {
		tps, err := p.parseTriplesSameSubject()
		if err != nil {
			return err
		}
		for _, tp := range tps {
			tp.S, tp.P, tp.O = p.pinPos(tp.S), p.pinPos(tp.P), p.pinPos(tp.O)
			q.Template = append(q.Template, tp)
		}
		if !p.acceptPunct(".") {
			break
		}
	}
	return p.expectPunct("}")
}

func (p *qparser) parseDescribeTerms(q *Query) error {
	for {
		switch {
		case p.cur().kind == tokVar:
			q.DescribeTerms = append(q.DescribeTerms, V(p.next().text))
		case p.cur().kind == tokIRIRef:
			q.DescribeTerms = append(q.DescribeTerms, T(p.pin(p.next())))
		case p.cur().kind == tokPName:
			t, err := p.parseTermToken(p.next())
			if err != nil {
				return err
			}
			q.DescribeTerms = append(q.DescribeTerms, T(t))
		default:
			if len(q.DescribeTerms) == 0 {
				return p.errf("DESCRIBE needs at least one term")
			}
			return nil
		}
	}
}

// parseGroupGraphPattern parses '{' ... '}'.
func (p *qparser) parseGroupGraphPattern() (*Group, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	g := &Group{}
	var bgp *BGP
	flushBGP := func() {
		if bgp != nil && len(bgp.Triples) > 0 {
			g.Patterns = append(g.Patterns, bgp)
		}
		bgp = nil
	}
	for {
		switch {
		case p.isPunct("}"):
			p.next()
			flushBGP()
			return g, nil
		case p.cur().kind == tokEOF:
			return nil, p.errf("unterminated group pattern")
		case p.acceptKeyword("FILTER"):
			expr, err := p.parseConstraint()
			if err != nil {
				return nil, err
			}
			g.Filters = append(g.Filters, expr)
			p.acceptPunct(".")
		case p.acceptKeyword("OPTIONAL"):
			flushBGP()
			sub, err := p.parseGroupGraphPattern()
			if err != nil {
				return nil, err
			}
			g.Patterns = append(g.Patterns, &Optional{Pattern: sub})
			p.acceptPunct(".")
		case p.acceptKeyword("MINUS"):
			flushBGP()
			sub, err := p.parseGroupGraphPattern()
			if err != nil {
				return nil, err
			}
			g.Patterns = append(g.Patterns, &Minus{Pattern: sub})
			p.acceptPunct(".")
		case p.acceptKeyword("BIND"):
			flushBGP()
			if err := p.expectPunct("("); err != nil {
				return nil, err
			}
			expr, err := p.parseExpression()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("AS"); err != nil {
				return nil, err
			}
			if p.cur().kind != tokVar {
				return nil, p.errf("expected variable after AS")
			}
			v := p.next().text
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			g.Patterns = append(g.Patterns, &Bind{Expr: expr, Var: v})
			p.acceptPunct(".")
		case p.acceptKeyword("VALUES"):
			flushBGP()
			id, err := p.parseInlineData()
			if err != nil {
				return nil, err
			}
			g.Patterns = append(g.Patterns, id)
			p.acceptPunct(".")
		case p.isPunct("{"):
			flushBGP()
			// "{ SELECT ..." opens a subquery rather than a nested group.
			if t := p.peek(1); t.kind == tokKeyword && t.text == "SELECT" {
				sq, err := p.parseSubSelect()
				if err != nil {
					return nil, err
				}
				g.Patterns = append(g.Patterns, sq)
				p.acceptPunct(".")
				continue
			}
			sub, err := p.parseGroupGraphPattern()
			if err != nil {
				return nil, err
			}
			// UNION chains.
			for p.acceptKeyword("UNION") {
				right, err := p.parseGroupGraphPattern()
				if err != nil {
					return nil, err
				}
				sub = &Group{Patterns: []Pattern{&Union{Left: sub, Right: right}}}
			}
			g.Patterns = append(g.Patterns, sub)
			p.acceptPunct(".")
		default:
			tps, err := p.parseTriplesSameSubject()
			if err != nil {
				return nil, err
			}
			if bgp == nil {
				bgp = &BGP{}
			}
			bgp.Triples = append(bgp.Triples, tps...)
			if !p.acceptPunct(".") && !p.isPunct("}") {
				return nil, p.errf("expected '.' or '}' after triple pattern, found %s", p.cur())
			}
		}
	}
}

// parseSubSelect parses "{ SELECT ... }". Aggregates inside the subquery
// are tracked locally so outer aggregates keep their own keys.
func (p *qparser) parseSubSelect() (*SubSelect, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	outerAggs := p.aggs
	p.aggs = nil
	q := &Query{Kind: KindSelect, Limit: -1}
	if err := p.parseSelectClause(q); err != nil {
		return nil, err
	}
	p.acceptKeyword("WHERE")
	w, err := p.parseGroupGraphPattern()
	if err != nil {
		return nil, err
	}
	q.Where = w
	if err := p.parseSolutionModifiers(q); err != nil {
		return nil, err
	}
	if err := p.expectPunct("}"); err != nil {
		return nil, err
	}
	for i, agg := range p.aggs {
		agg.key = fmt.Sprintf(" subagg%d_%d", len(outerAggs), i)
	}
	p.aggs = outerAggs
	q.Namespaces = p.ns
	return &SubSelect{Query: q}, nil
}

// parseConstraint parses a FILTER constraint: parenthesized expression,
// builtin call, or (NOT) EXISTS.
func (p *qparser) parseConstraint() (Expression, error) {
	switch {
	case p.acceptKeyword("NOT"):
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		g, err := p.parseGroupGraphPattern()
		if err != nil {
			return nil, err
		}
		return &ExistsExpr{Negated: true, Pattern: g}, nil
	case p.acceptKeyword("EXISTS"):
		g, err := p.parseGroupGraphPattern()
		if err != nil {
			return nil, err
		}
		return &ExistsExpr{Pattern: g}, nil
	case p.isPunct("("):
		p.next()
		expr, err := p.parseExpression()
		if err != nil {
			return nil, err
		}
		return expr, p.expectPunct(")")
	default:
		// Builtin call form: FILTER regex(...)
		return p.parsePrimaryExpression()
	}
}

func (p *qparser) parseInlineData() (*InlineData, error) {
	id := &InlineData{}
	single := false
	if p.cur().kind == tokVar {
		id.Vars = []string{p.next().text}
		single = true
	} else {
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		for p.cur().kind == tokVar {
			id.Vars = append(id.Vars, p.next().text)
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	for !p.acceptPunct("}") {
		var row []TermOrNil
		if single {
			cell, err := p.parseDataCell()
			if err != nil {
				return nil, err
			}
			row = []TermOrNil{cell}
		} else {
			if err := p.expectPunct("("); err != nil {
				return nil, err
			}
			for !p.acceptPunct(")") {
				cell, err := p.parseDataCell()
				if err != nil {
					return nil, err
				}
				row = append(row, cell)
			}
		}
		if len(row) != len(id.Vars) {
			return nil, p.errf("VALUES row arity %d != %d vars", len(row), len(id.Vars))
		}
		id.Rows = append(id.Rows, row)
	}
	return id, nil
}

func (p *qparser) parseDataCell() (TermOrNil, error) {
	if p.acceptKeyword("UNDEF") {
		return TermOrNil{}, nil
	}
	t, err := p.parseGraphTerm()
	if err != nil {
		return TermOrNil{}, err
	}
	return TermOrNil{Term: t, Defined: true}, nil
}

// parseTriplesSameSubject parses "subject predicateObjectList".
func (p *qparser) parseTriplesSameSubject() ([]TriplePattern, error) {
	subj, err := p.parseVarOrTerm()
	if err != nil {
		return nil, err
	}
	return p.parsePredicateObjectList(subj)
}

func (p *qparser) parsePredicateObjectList(subj TermOrVar) ([]TriplePattern, error) {
	var out []TriplePattern
	for {
		var pred TermOrVar
		var path *Path
		if p.cur().kind == tokVar {
			pred = V(p.next().text)
		} else {
			pp, err := p.parsePath()
			if err != nil {
				return nil, err
			}
			if pp.Kind == PathIRI {
				pred = T(pp.IRI)
			} else {
				path = pp
			}
		}
		// Object list.
		for {
			obj, err := p.parseVarOrTerm()
			if err != nil {
				return nil, err
			}
			tp := TriplePattern{S: subj, P: pred, O: obj, Path: path}
			if path != nil {
				// Path endpoints stay in the template.
				tp.S, tp.O = p.pinPos(subj), p.pinPos(obj)
			}
			out = append(out, tp)
			if !p.acceptPunct(",") {
				break
			}
		}
		if !p.acceptPunct(";") {
			return out, nil
		}
		// Tolerate trailing ';'.
		if p.isPunct(".") || p.isPunct("}") {
			return out, nil
		}
	}
}

// parsePath parses a SPARQL 1.1 property path expression.
func (p *qparser) parsePath() (*Path, error) {
	return p.parsePathAlternative()
}

func (p *qparser) parsePathAlternative() (*Path, error) {
	left, err := p.parsePathSequence()
	if err != nil {
		return nil, err
	}
	for p.acceptPunct("|") {
		right, err := p.parsePathSequence()
		if err != nil {
			return nil, err
		}
		left = &Path{Kind: PathAlt, Kids: []*Path{left, right}}
	}
	return left, nil
}

func (p *qparser) parsePathSequence() (*Path, error) {
	left, err := p.parsePathEltOrInverse()
	if err != nil {
		return nil, err
	}
	for p.acceptPunct("/") {
		right, err := p.parsePathEltOrInverse()
		if err != nil {
			return nil, err
		}
		left = &Path{Kind: PathSeq, Kids: []*Path{left, right}}
	}
	return left, nil
}

func (p *qparser) parsePathEltOrInverse() (*Path, error) {
	if p.acceptPunct("^") {
		elt, err := p.parsePathElt()
		if err != nil {
			return nil, err
		}
		return &Path{Kind: PathInverse, Kids: []*Path{elt}}, nil
	}
	return p.parsePathElt()
}

func (p *qparser) parsePathElt() (*Path, error) {
	prim, err := p.parsePathPrimary()
	if err != nil {
		return nil, err
	}
	switch {
	case p.acceptPunct("*"):
		return &Path{Kind: PathZeroOrMore, Kids: []*Path{prim}}, nil
	case p.acceptPunct("+"):
		return &Path{Kind: PathOneOrMore, Kids: []*Path{prim}}, nil
	case p.acceptPunct("?"):
		return &Path{Kind: PathZeroOrOne, Kids: []*Path{prim}}, nil
	}
	return prim, nil
}

func (p *qparser) parsePathPrimary() (*Path, error) {
	switch {
	case p.isPunct("("):
		p.next()
		inner, err := p.parsePath()
		if err != nil {
			return nil, err
		}
		return inner, p.expectPunct(")")
	case p.isKeyword("A"):
		p.next()
		return &Path{Kind: PathIRI, IRI: rdf.TypeIRI}, nil
	case p.cur().kind == tokIRIRef:
		return &Path{Kind: PathIRI, IRI: p.pin(p.next())}, nil
	case p.cur().kind == tokPName:
		t, err := p.parseTermToken(p.next())
		if err != nil {
			return nil, err
		}
		return &Path{Kind: PathIRI, IRI: t}, nil
	default:
		return nil, p.errf("expected property path, found %s", p.cur())
	}
}

// parseVarOrTerm parses a subject/object position.
func (p *qparser) parseVarOrTerm() (TermOrVar, error) {
	t := p.cur()
	switch t.kind {
	case tokVar:
		p.next()
		return V(t.text), nil
	case tokAnon:
		p.next()
		p.bnodeSeq++
		return V(fmt.Sprintf(" bnode%d", p.bnodeSeq)), nil
	case tokIRIRef, tokString, tokNumber, tokBool:
		return p.constPos(p.next()), nil
	default:
		term, err := p.parseGraphTerm()
		if err != nil {
			return TermOrVar{}, err
		}
		return T(term), nil
	}
}

// parseGraphTerm parses a concrete RDF term in a query.
func (p *qparser) parseGraphTerm() (rdf.Term, error) {
	t := p.next()
	switch t.kind {
	case tokIRIRef, tokString, tokNumber, tokBool:
		return p.pin(t), nil
	case tokPName:
		return p.parseTermToken(t)
	case tokPunct:
		if t.text == "-" || t.text == "+" {
			n := p.next()
			if n.kind != tokNumber {
				return rdf.Term{}, p.lx.errAt(n.end, "expected number after sign")
			}
			if t.text == "-" {
				return rdf.NewTypedLiteral("-"+n.text, p.pin(n).Datatype), nil
			}
			return p.pin(n), nil
		}
	}
	return rdf.Term{}, p.lx.errAt(t.end, fmt.Sprintf("expected RDF term, found %q", t.text))
}

// parseTermToken resolves a tokPName to an IRI term, against the text's
// PREFIX declarations read so far and the standard prefixes.
func (p *qparser) parseTermToken(t token) (rdf.Term, error) {
	iri, err := p.lx.expand(t)
	if err != nil {
		return rdf.Term{}, err
	}
	return rdf.NewIRI(iri), nil
}

// ---- solution modifiers ----

func (p *qparser) parseSolutionModifiers(q *Query) error {
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return err
		}
		for {
			switch {
			case p.cur().kind == tokVar:
				q.GroupBy = append(q.GroupBy, &VarExpr{Name: p.next().text})
			case p.isPunct("("):
				p.next()
				e, err := p.parseExpression()
				if err != nil {
					return err
				}
				if err := p.expectPunct(")"); err != nil {
					return err
				}
				q.GroupBy = append(q.GroupBy, e)
			default:
				if len(q.GroupBy) == 0 {
					return p.errf("GROUP BY needs at least one key")
				}
				goto having
			}
		}
	}
having:
	if p.acceptKeyword("HAVING") {
		for p.isPunct("(") {
			p.next()
			e, err := p.parseExpression()
			if err != nil {
				return err
			}
			if err := p.expectPunct(")"); err != nil {
				return err
			}
			q.Having = append(q.Having, e)
		}
		if len(q.Having) == 0 {
			return p.errf("HAVING needs a constraint")
		}
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return err
		}
		for {
			switch {
			case p.isKeyword("ASC") || p.isKeyword("DESC"):
				desc := p.next().text == "DESC"
				if err := p.expectPunct("("); err != nil {
					return err
				}
				e, err := p.parseExpression()
				if err != nil {
					return err
				}
				if err := p.expectPunct(")"); err != nil {
					return err
				}
				q.OrderBy = append(q.OrderBy, OrderCondition{Expr: e, Descending: desc})
			case p.cur().kind == tokVar:
				q.OrderBy = append(q.OrderBy, OrderCondition{Expr: &VarExpr{Name: p.next().text}})
			case p.isPunct("("):
				p.next()
				e, err := p.parseExpression()
				if err != nil {
					return err
				}
				if err := p.expectPunct(")"); err != nil {
					return err
				}
				q.OrderBy = append(q.OrderBy, OrderCondition{Expr: e})
			default:
				if len(q.OrderBy) == 0 {
					return p.errf("ORDER BY needs a condition")
				}
				goto limits
			}
		}
	}
limits:
	for {
		switch {
		case p.acceptKeyword("LIMIT"):
			t := p.next()
			if t.kind != tokNumber {
				return p.errf("LIMIT expects a number")
			}
			n, err := strconv.Atoi(t.text)
			if err != nil {
				return p.errf("bad LIMIT %q", t.text)
			}
			q.Limit = n
		case p.acceptKeyword("OFFSET"):
			t := p.next()
			if t.kind != tokNumber {
				return p.errf("OFFSET expects a number")
			}
			n, err := strconv.Atoi(t.text)
			if err != nil {
				return p.errf("bad OFFSET %q", t.text)
			}
			q.Offset = n
		default:
			return nil
		}
	}
}

// ---- expression parsing (precedence climbing) ----

func (p *qparser) parseExpression() (Expression, error) {
	return p.parseOr()
}

func (p *qparser) parseOr() (Expression, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptPunct("||") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "||", Left: left, Right: right}
	}
	return left, nil
}

func (p *qparser) parseAnd() (Expression, error) {
	left, err := p.parseRelational()
	if err != nil {
		return nil, err
	}
	for p.acceptPunct("&&") {
		right, err := p.parseRelational()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "&&", Left: left, Right: right}
	}
	return left, nil
}

func (p *qparser) parseRelational() (Expression, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for _, op := range []string{"=", "!=", "<=", ">=", "<", ">"} {
		if p.acceptPunct(op) {
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &BinaryExpr{Op: op, Left: left, Right: right}, nil
		}
	}
	if p.acceptKeyword("IN") {
		list, err := p.parseExprList()
		if err != nil {
			return nil, err
		}
		return &InExpr{Expr: left, List: list}, nil
	}
	if t := p.peek(1); p.isKeyword("NOT") && t.kind == tokKeyword && t.text == "IN" {
		p.next()
		p.next()
		list, err := p.parseExprList()
		if err != nil {
			return nil, err
		}
		return &InExpr{Negated: true, Expr: left, List: list}, nil
	}
	return left, nil
}

func (p *qparser) parseExprList() ([]Expression, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var list []Expression
	for !p.acceptPunct(")") {
		if len(list) > 0 {
			if err := p.expectPunct(","); err != nil {
				return nil, err
			}
		}
		e, err := p.parseExpression()
		if err != nil {
			return nil, err
		}
		list = append(list, e)
	}
	return list, nil
}

func (p *qparser) parseAdditive() (Expression, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptPunct("+"):
			right, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{Op: "+", Left: left, Right: right}
		case p.acceptPunct("-"):
			right, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{Op: "-", Left: left, Right: right}
		default:
			return left, nil
		}
	}
}

func (p *qparser) parseMultiplicative() (Expression, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptPunct("*"):
			right, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{Op: "*", Left: left, Right: right}
		case p.acceptPunct("/"):
			right, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{Op: "/", Left: left, Right: right}
		default:
			return left, nil
		}
	}
}

func (p *qparser) parseUnary() (Expression, error) {
	switch {
	case p.acceptPunct("!"):
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "!", Expr: e}, nil
	case p.acceptPunct("-"):
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "-", Expr: e}, nil
	case p.acceptPunct("+"):
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "+", Expr: e}, nil
	}
	return p.parsePrimaryExpression()
}

// aggregateNames lists the aggregate functions handled by GROUP BY.
var aggregateNames = map[string]bool{
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
	"SAMPLE": true, "GROUP_CONCAT": true,
}

func (p *qparser) parsePrimaryExpression() (Expression, error) {
	t := p.cur()
	switch t.kind {
	case tokPunct:
		if t.text == "(" {
			p.next()
			e, err := p.parseExpression()
			if err != nil {
				return nil, err
			}
			return e, p.expectPunct(")")
		}
	case tokVar:
		p.next()
		return &VarExpr{Name: t.text}, nil
	case tokNumber, tokBool, tokString, tokIRIRef:
		return p.constExpr(p.next()), nil
	case tokKeyword:
		switch t.text {
		case "NOT":
			p.next()
			if err := p.expectKeyword("EXISTS"); err != nil {
				return nil, err
			}
			g, err := p.parseGroupGraphPattern()
			if err != nil {
				return nil, err
			}
			return &ExistsExpr{Negated: true, Pattern: g}, nil
		case "EXISTS":
			p.next()
			g, err := p.parseGroupGraphPattern()
			if err != nil {
				return nil, err
			}
			return &ExistsExpr{Pattern: g}, nil
		}
	case tokPName:
		upper := strings.ToUpper(t.text)
		if !strings.Contains(t.text, ":") {
			if aggregateNames[upper] {
				return p.parseAggregate(upper)
			}
			if n := p.peek(1); n.kind == tokPunct && n.text == "(" {
				return p.parseFunctionCall(upper)
			}
			return nil, p.errf("unexpected bare word %q in expression", t.text)
		}
		p.next()
		term, err := p.parseTermToken(t)
		if err != nil {
			return nil, err
		}
		return &ConstExpr{Term: term}, nil
	}
	return nil, p.errf("unexpected %s in expression", p.cur())
}

func (p *qparser) parseFunctionCall(name string) (Expression, error) {
	p.next() // function name
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var args []Expression
	for !p.acceptPunct(")") {
		if len(args) > 0 {
			if err := p.expectPunct(","); err != nil {
				return nil, err
			}
		}
		e, err := p.parseExpression()
		if err != nil {
			return nil, err
		}
		args = append(args, e)
	}
	return &FuncExpr{Name: name, Args: args}, nil
}

func (p *qparser) parseAggregate(name string) (Expression, error) {
	p.next() // aggregate name
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	agg := &AggExpr{Name: name}
	if p.acceptKeyword("DISTINCT") {
		agg.Distinct = true
	}
	if p.acceptPunct("*") {
		if name != "COUNT" {
			return nil, p.errf("only COUNT accepts *")
		}
	} else {
		e, err := p.parseExpression()
		if err != nil {
			return nil, err
		}
		agg.Arg = e
	}
	if name == "GROUP_CONCAT" {
		agg.Sep = " "
		if p.acceptPunct(";") {
			sepTok := p.next() // SEPARATOR keyword arrives as a pname
			if !strings.EqualFold(sepTok.text, "SEPARATOR") {
				return nil, p.errf("expected SEPARATOR, found %s", sepTok)
			}
			if err := p.expectPunct("="); err != nil {
				return nil, err
			}
			s := p.next()
			if s.kind != tokString || p.lx.params[s.param] != rdf.NewLiteral(s.text) {
				return nil, p.errf("SEPARATOR expects a string")
			}
			agg.Sep = p.pin(s).Value
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	p.aggSeq++
	p.aggs = append(p.aggs, agg)
	return agg, nil
}
