package sparql

// Random graph and query generators for the reference-equivalence harness
// and the fuzz seed corpora. Queries are generated as source text (so the
// parser is part of the tested pipeline) over a small term universe that
// forces real joins: a handful of subjects, predicates, classes, and
// literals, plus constants the graph does NOT contain (to exercise the
// absent-constant planning paths).
//
// Numeric literals are integers only: float aggregation folds values in
// engine row order, and while the multiset of values is identical across
// engines, float addition is not associative — integer sums are exact and
// order-independent, which keeps SUM/AVG comparisons meaningful.

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/rdf"
	"repro/internal/store"
)

type gen struct {
	rng *rand.Rand
	// graph-term pools, as SPARQL source fragments
	subjects []string
	preds    []string
	objects  []string
	// vars in play
	varSeq int
}

func newGen(rng *rand.Rand) *gen {
	g := &gen{rng: rng}
	for i := 0; i < 8; i++ {
		g.subjects = append(g.subjects, fmt.Sprintf("<http://ex/s%d>", i))
	}
	for i := 0; i < 5; i++ {
		g.preds = append(g.preds, fmt.Sprintf("<http://ex/p%d>", i))
	}
	g.objects = append(g.objects, g.subjects...)
	for i := 0; i < 4; i++ {
		g.objects = append(g.objects, fmt.Sprintf("<http://ex/c%d>", i))
	}
	for i := 0; i < 6; i++ {
		g.objects = append(g.objects, fmt.Sprintf("%d", i))
	}
	for _, s := range []string{`"a"`, `"b"`, `"c"`, `"a"@en`, `"b"@de`} {
		g.objects = append(g.objects, s)
	}
	return g
}

func (g *gen) pick(pool []string) string { return pool[g.rng.Intn(len(pool))] }

// genGraph builds a random graph over the generator's term universe, with
// enough edge reuse that joins, fused type patterns, and path closures all
// have work to do.
func (g *gen) genGraph() *store.Graph {
	out := store.New()
	n := 150 + g.rng.Intn(150)
	var ttl strings.Builder
	for i := 0; i < n; i++ {
		s := g.pick(g.subjects)
		p := g.pick(g.preds)
		o := g.pick(g.objects)
		if g.rng.Intn(5) == 0 {
			// rdf:type edges feed the fused intersection runs.
			p = "<" + rdf.TypeIRI.Value + ">"
			o = fmt.Sprintf("<http://ex/c%d>", g.rng.Intn(4))
		}
		fmt.Fprintf(&ttl, "%s %s %s .\n", s, p, o)
	}
	// A chain so p0+ / p0* closures have depth.
	for i := 0; i+1 < len(g.subjects); i++ {
		fmt.Fprintf(&ttl, "%s <http://ex/p0> %s .\n", g.subjects[i], g.subjects[i+1])
	}
	mustParseTurtleInto(out, ttl.String())
	return out
}

// mutate applies one random add or remove to the graph.
func (g *gen) mutate(gr *store.Graph) {
	term := func(src string) rdf.Term {
		src = strings.TrimSuffix(strings.TrimPrefix(src, "<"), ">")
		return rdf.NewIRI(src)
	}
	s := term(g.pick(g.subjects))
	p := term(g.pick(g.preds))
	o := term(g.pick(g.subjects))
	if g.rng.Intn(2) == 0 {
		gr.Add(s, p, o)
	} else {
		gr.Remove(s, p, o)
	}
}

func (g *gen) freshVar() string {
	g.varSeq++
	return fmt.Sprintf("?v%d", g.varSeq)
}

// someVar returns a variable already in play most of the time, minting a
// fresh one otherwise (shared variables are what make joins join).
func (g *gen) someVar() string {
	if g.varSeq > 0 && g.rng.Intn(3) != 0 {
		return fmt.Sprintf("?v%d", 1+g.rng.Intn(g.varSeq))
	}
	return g.freshVar()
}

// genTerm returns a term position: mostly graph terms, sometimes a
// constant the graph cannot contain.
func (g *gen) genTerm(pool []string) string {
	if g.rng.Intn(20) == 0 {
		return "<http://ex/absent>"
	}
	return g.pick(pool)
}

func (g *gen) genTriple() string {
	s := g.someVar()
	if g.rng.Intn(4) == 0 {
		s = g.genTerm(g.subjects)
	}
	o := g.freshVar()
	if g.rng.Intn(2) == 0 {
		o = g.someVar()
	}
	if g.rng.Intn(5) == 0 {
		o = g.genTerm(g.objects)
	}
	if g.rng.Intn(6) == 0 {
		return fmt.Sprintf("%s %s %s .", s, g.genPath(2), o)
	}
	p := g.genTerm(g.preds)
	if g.rng.Intn(8) == 0 {
		p = g.someVar()
	}
	if g.rng.Intn(7) == 0 {
		// a-typed pattern: feeds fused runs when repeated
		return fmt.Sprintf("%s a <http://ex/c%d> .", s, g.rng.Intn(4))
	}
	return fmt.Sprintf("%s %s %s .", s, p, o)
}

func (g *gen) genPath(depth int) string {
	if depth == 0 || g.rng.Intn(3) == 0 {
		return g.pick(g.preds)
	}
	switch g.rng.Intn(6) {
	case 0:
		return fmt.Sprintf("(%s/%s)", g.genPath(depth-1), g.genPath(depth-1))
	case 1:
		return fmt.Sprintf("(%s|%s)", g.genPath(depth-1), g.genPath(depth-1))
	case 2:
		return fmt.Sprintf("^(%s)", g.genPath(depth-1))
	case 3:
		return fmt.Sprintf("(%s)*", g.genPath(depth-1))
	case 4:
		return fmt.Sprintf("(%s)+", g.genPath(depth-1))
	default:
		return fmt.Sprintf("(%s)?", g.genPath(depth-1))
	}
}

func (g *gen) genFilter() string {
	v := g.someVar()
	switch g.rng.Intn(8) {
	case 0:
		return fmt.Sprintf("FILTER(BOUND(%s))", v)
	case 1:
		return fmt.Sprintf("FILTER(%s %s %s)", v, g.pick([]string{"<", ">", "<=", ">=", "=", "!="}), g.pick(g.objects))
	case 2:
		return fmt.Sprintf("FILTER(%s = %s)", v, g.someVar())
	case 3:
		return fmt.Sprintf("FILTER EXISTS { %s }", g.genTriple())
	case 4:
		return fmt.Sprintf("FILTER NOT EXISTS { %s }", g.genTriple())
	case 5:
		return fmt.Sprintf("FILTER(REGEX(STR(%s), %q))", v, g.pick([]string{"a", "s[0-3]", "c"}))
	case 6:
		return fmt.Sprintf("FILTER(ISIRI(%s) || ISLITERAL(%s))", v, g.someVar())
	default:
		return fmt.Sprintf("FILTER(%s IN (%s, %s))", v, g.pick(g.objects), g.pick(g.objects))
	}
}

func (g *gen) genBind() string {
	target := g.freshVar()
	v := g.someVar()
	switch g.rng.Intn(4) {
	case 0:
		return fmt.Sprintf("BIND((1 + 2) AS %s)", target)
	case 1:
		return fmt.Sprintf("BIND(STR(%s) AS %s)", v, target)
	case 2:
		return fmt.Sprintf("BIND(IF(BOUND(%s), 1, 0) AS %s)", v, target)
	default:
		return fmt.Sprintf("BIND(UCASE(STR(%s)) AS %s)", v, target)
	}
}

func (g *gen) genValues() string {
	v1 := g.someVar()
	var rows []string
	for i := 0; i < 1+g.rng.Intn(3); i++ {
		cell := g.pick(g.objects)
		if g.rng.Intn(5) == 0 {
			cell = `"novel-value"`
		}
		if g.rng.Intn(6) == 0 {
			cell = "UNDEF"
		}
		rows = append(rows, "("+cell+")")
	}
	return fmt.Sprintf("VALUES (%s) { %s }", v1, strings.Join(rows, " "))
}

// genGroupBody emits the inside of a group graph pattern.
func (g *gen) genGroupBody(depth int) string {
	var parts []string
	for i := 0; i < 1+g.rng.Intn(3); i++ {
		parts = append(parts, g.genTriple())
	}
	if depth > 0 {
		switch g.rng.Intn(6) {
		case 0:
			parts = append(parts, fmt.Sprintf("OPTIONAL { %s }", g.genGroupBody(depth-1)))
		case 1:
			parts = append(parts, fmt.Sprintf("{ %s } UNION { %s }", g.genGroupBody(depth-1), g.genGroupBody(depth-1)))
		case 2:
			parts = append(parts, fmt.Sprintf("MINUS { %s }", g.genGroupBody(depth-1)))
		case 3:
			parts = append(parts, g.genBind())
		case 4:
			parts = append(parts, g.genValues())
		}
	}
	for g.rng.Intn(3) == 0 {
		parts = append(parts, g.genFilter())
	}
	return strings.Join(parts, " ")
}

// genQuery emits a full SELECT or ASK query over the generator's universe.
func (g *gen) genQuery() string {
	g.varSeq = 0
	body := g.genGroupBody(2)
	if g.rng.Intn(10) == 0 {
		return fmt.Sprintf("ASK { %s }", body)
	}
	if g.rng.Intn(6) == 0 && g.varSeq >= 2 {
		// Grouped + aggregated.
		key := fmt.Sprintf("?v%d", 1+g.rng.Intn(g.varSeq))
		arg := fmt.Sprintf("?v%d", 1+g.rng.Intn(g.varSeq))
		agg := g.pick([]string{"COUNT", "SUM", "MIN", "MAX", "SAMPLE"})
		distinct := ""
		if g.rng.Intn(3) == 0 {
			distinct = "DISTINCT "
		}
		q := fmt.Sprintf("SELECT %s (%s(%s%s) AS ?agg) WHERE { %s } GROUP BY %s", key, agg, distinct, arg, body, key)
		if g.rng.Intn(3) == 0 {
			q += fmt.Sprintf(" HAVING(COUNT(%s) >= 1)", arg)
		}
		return q
	}
	// Plain projection.
	proj := "*"
	if g.varSeq > 0 && g.rng.Intn(3) != 0 {
		n := 1 + g.rng.Intn(min(3, g.varSeq))
		seen := map[int]bool{}
		var vars []string
		for len(vars) < n {
			i := 1 + g.rng.Intn(g.varSeq)
			if !seen[i] {
				seen[i] = true
				vars = append(vars, fmt.Sprintf("?v%d", i))
			}
		}
		if g.rng.Intn(5) == 0 {
			vars = append(vars, fmt.Sprintf("(STR(%s) AS ?alias)", vars[0]))
		}
		proj = strings.Join(vars, " ")
	}
	distinct := ""
	if g.rng.Intn(4) == 0 {
		distinct = "DISTINCT "
	}
	q := fmt.Sprintf("SELECT %s%s WHERE { %s }", distinct, proj, body)
	if g.rng.Intn(8) == 0 && g.varSeq > 0 {
		q += fmt.Sprintf(" ORDER BY ?v%d", 1+g.rng.Intn(g.varSeq))
	}
	return q
}
