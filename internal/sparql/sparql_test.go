package sparql

import (
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/turtle"
)

func testGraph(t *testing.T, src string) *store.Graph {
	t.Helper()
	g, err := turtle.Parse(src)
	if err != nil {
		t.Fatalf("fixture parse: %v", err)
	}
	return g
}

func run(t *testing.T, g *store.Graph, query string) *Result {
	t.Helper()
	res, err := Run(g, query)
	if err != nil {
		t.Fatalf("query failed: %v\n%s", err, query)
	}
	return res
}

const fixture = `
@prefix ex: <http://e/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
ex:alice a ex:Person ; ex:age 30 ; ex:name "Alice" ; ex:likes ex:pizza , ex:sushi .
ex:bob a ex:Person ; ex:age 25 ; ex:name "Bob" ; ex:likes ex:pizza .
ex:carol a ex:Person ; ex:age 35 ; ex:name "Carol" .
ex:pizza a ex:Food ; ex:cuisine "italian" .
ex:sushi a ex:Food ; ex:cuisine "japanese" ; ex:contains ex:rawFish .
`

func TestSelectBasic(t *testing.T) {
	g := testGraph(t, fixture)
	res := run(t, g, `PREFIX ex: <http://e/> SELECT ?p WHERE { ?p a ex:Person }`)
	if res.Len() != 3 {
		t.Errorf("rows = %d, want 3", res.Len())
	}
	if len(res.Vars) != 1 || res.Vars[0] != "p" {
		t.Errorf("vars = %v", res.Vars)
	}
}

func TestSelectStar(t *testing.T) {
	g := testGraph(t, fixture)
	res := run(t, g, `PREFIX ex: <http://e/> SELECT * WHERE { ?p ex:likes ?food }`)
	if res.Len() != 3 {
		t.Errorf("rows = %d, want 3", res.Len())
	}
	if len(res.Vars) != 2 || res.Vars[0] != "p" || res.Vars[1] != "food" {
		t.Errorf("star vars = %v, want [p food] in appearance order", res.Vars)
	}
}

func TestJoin(t *testing.T) {
	g := testGraph(t, fixture)
	res := run(t, g, `PREFIX ex: <http://e/>
SELECT ?name ?cuisine WHERE {
  ?p ex:likes ?f .
  ?p ex:name ?name .
  ?f ex:cuisine ?cuisine .
}`)
	if res.Len() != 3 {
		t.Fatalf("rows = %d, want 3 (alice×2, bob×1)", res.Len())
	}
	if !res.HasRow(map[string]rdf.Term{"name": rdf.NewLiteral("Alice"), "cuisine": rdf.NewLiteral("japanese")}) {
		t.Error("missing alice/japanese row")
	}
}

func TestSharedVariableInPattern(t *testing.T) {
	g := testGraph(t, `
@prefix ex: <http://e/> .
ex:a ex:knows ex:a .
ex:a ex:knows ex:b .
`)
	res := run(t, g, `PREFIX ex: <http://e/> SELECT ?x WHERE { ?x ex:knows ?x }`)
	if res.Len() != 1 || res.Get(0, "x") != rdf.NewIRI("http://e/a") {
		t.Errorf("self-knows: %v", res.Solutions)
	}
}

func TestFilterComparisons(t *testing.T) {
	g := testGraph(t, fixture)
	res := run(t, g, `PREFIX ex: <http://e/>
SELECT ?p WHERE { ?p ex:age ?a . FILTER(?a > 26) }`)
	if res.Len() != 2 {
		t.Errorf("age>26 rows = %d, want 2", res.Len())
	}
	res = run(t, g, `PREFIX ex: <http://e/>
SELECT ?p WHERE { ?p ex:age ?a . FILTER(?a >= 25 && ?a < 31) }`)
	if res.Len() != 2 {
		t.Errorf("range rows = %d, want 2", res.Len())
	}
	res = run(t, g, `PREFIX ex: <http://e/>
SELECT ?p WHERE { ?p ex:name ?n . FILTER(?n = "Bob" || ?n = "Carol") }`)
	if res.Len() != 2 {
		t.Errorf("or rows = %d, want 2", res.Len())
	}
	res = run(t, g, `PREFIX ex: <http://e/>
SELECT ?p WHERE { ?p ex:age ?a . FILTER(?a != 30) }`)
	if res.Len() != 2 {
		t.Errorf("neq rows = %d, want 2", res.Len())
	}
}

func TestFilterBooleanObject(t *testing.T) {
	g := testGraph(t, `
@prefix ex: <http://e/> .
ex:a ex:flag true . ex:b ex:flag false .
`)
	res := run(t, g, `PREFIX ex: <http://e/> SELECT ?s WHERE { ?s ex:flag false }`)
	if res.Len() != 1 || res.Get(0, "s") != rdf.NewIRI("http://e/b") {
		t.Errorf("boolean object match: %v", res.Solutions)
	}
	// The paper's Listing 1 spells booleans capitalized ("False"); SPARQL
	// keywords are case-insensitive in our lexer via keyword uppercasing.
	res = run(t, g, `PREFIX ex: <http://e/> SELECT ?s WHERE { ?s ex:flag False }`)
	if res.Len() != 1 {
		t.Errorf("capitalized False literal: rows = %d, want 1", res.Len())
	}
}

func TestFilterNotExists(t *testing.T) {
	g := testGraph(t, fixture)
	res := run(t, g, `PREFIX ex: <http://e/>
SELECT ?p WHERE { ?p a ex:Person . FILTER NOT EXISTS { ?p ex:likes ?f } }`)
	if res.Len() != 1 || res.Get(0, "p") != rdf.NewIRI("http://e/carol") {
		t.Errorf("NOT EXISTS: %v", res.Solutions)
	}
}

func TestFilterExists(t *testing.T) {
	g := testGraph(t, fixture)
	res := run(t, g, `PREFIX ex: <http://e/>
SELECT ?p WHERE { ?p a ex:Person . FILTER EXISTS { ?p ex:likes ex:sushi } }`)
	if res.Len() != 1 || res.Get(0, "p") != rdf.NewIRI("http://e/alice") {
		t.Errorf("EXISTS: %v", res.Solutions)
	}
}

// TestFilterExistsConstants probes one single-pattern EXISTS from every
// row, with constants the graph holds and one it has never seen; the
// constants' IDs are looked up once per execution and reused row after row.
func TestFilterExistsConstants(t *testing.T) {
	g := testGraph(t, fixture)
	for _, c := range []struct {
		filter string
		want   int
	}{
		{`FILTER EXISTS { ?p ex:likes ex:pizza }`, 2},
		{`FILTER NOT EXISTS { ?p ex:likes ex:pizza }`, 1},
		{`FILTER EXISTS { ?p ex:likes ex:nothing }`, 0},
		{`FILTER NOT EXISTS { ?p ex:likes ex:nothing }`, 3},
		{`FILTER NOT EXISTS { ?p <http://e/unseen> ?x }`, 3},
		{`FILTER EXISTS { ex:sushi ex:contains ex:rawFish }`, 3},
	} {
		q := `PREFIX ex: <http://e/> SELECT ?p WHERE { ?p a ex:Person . ` + c.filter + ` }`
		if res := run(t, g, q); res.Len() != c.want {
			t.Errorf("%s: %d rows, want %d", c.filter, res.Len(), c.want)
		}
	}
}

func TestOptional(t *testing.T) {
	g := testGraph(t, fixture)
	res := run(t, g, `PREFIX ex: <http://e/>
SELECT ?p ?f WHERE { ?p a ex:Person . OPTIONAL { ?p ex:likes ?f } }`)
	if res.Len() != 4 {
		t.Fatalf("rows = %d, want 4 (2 alice + 1 bob + 1 carol-unbound)", res.Len())
	}
	carolRow := false
	for _, sol := range res.Solutions {
		if sol["p"] == rdf.NewIRI("http://e/carol") {
			if _, bound := sol["f"]; !bound {
				carolRow = true
			}
		}
	}
	if !carolRow {
		t.Error("carol should appear with unbound ?f")
	}
}

func TestOptionalWithBound(t *testing.T) {
	g := testGraph(t, fixture)
	res := run(t, g, `PREFIX ex: <http://e/>
SELECT ?p ?f WHERE { ?p a ex:Person . OPTIONAL { ?p ex:likes ?f . FILTER(?f = ex:sushi) } }`)
	// Alice matches sushi; bob and carol keep unbound f.
	if res.Len() != 3 {
		t.Errorf("rows = %d, want 3", res.Len())
	}
}

func TestUnion(t *testing.T) {
	g := testGraph(t, fixture)
	res := run(t, g, `PREFIX ex: <http://e/>
SELECT ?x WHERE { { ?x ex:cuisine "italian" } UNION { ?x ex:contains ex:rawFish } }`)
	if res.Len() != 2 {
		t.Errorf("union rows = %d, want 2", res.Len())
	}
}

func TestMinus(t *testing.T) {
	g := testGraph(t, fixture)
	res := run(t, g, `PREFIX ex: <http://e/>
SELECT ?p WHERE { ?p a ex:Person . MINUS { ?p ex:likes ex:pizza } }`)
	if res.Len() != 1 || res.Get(0, "p") != rdf.NewIRI("http://e/carol") {
		t.Errorf("minus: %v", res.Solutions)
	}
}

func TestBind(t *testing.T) {
	g := testGraph(t, fixture)
	res := run(t, g, `PREFIX ex: <http://e/>
SELECT ?p ?next WHERE { ?p ex:age ?a . BIND(?a + 1 AS ?next) }`)
	if res.Len() != 3 {
		t.Fatalf("rows = %d", res.Len())
	}
	found := false
	for _, sol := range res.Solutions {
		if v, ok := sol["next"].Int(); ok && v == 31 {
			found = true
		}
	}
	if !found {
		t.Error("BIND arithmetic missing 31")
	}
}

func TestBindConstantLikePaperListing2(t *testing.T) {
	// Listing 2 opens with BIND(feo:WhyEat... as ?question).
	g := testGraph(t, fixture)
	res := run(t, g, `PREFIX ex: <http://e/>
SELECT ?question WHERE { BIND (ex:q1 as ?question) . ?question ?p ?o . }`)
	if res.Len() != 0 {
		t.Errorf("bound constant with no triples should yield 0 rows, got %d", res.Len())
	}
	g.Add(rdf.NewIRI("http://e/q1"), rdf.NewIRI("http://e/p"), rdf.NewIRI("http://e/o"))
	res = run(t, g, `PREFIX ex: <http://e/>
SELECT ?question WHERE { BIND (ex:q1 as ?question) . ?question ?p ?o . }`)
	if res.Len() != 1 || res.Get(0, "question") != rdf.NewIRI("http://e/q1") {
		t.Errorf("BIND constant: %v", res.Solutions)
	}
}

func TestValues(t *testing.T) {
	g := testGraph(t, fixture)
	res := run(t, g, `PREFIX ex: <http://e/>
SELECT ?p ?a WHERE { VALUES ?p { ex:alice ex:bob } ?p ex:age ?a }`)
	if res.Len() != 2 {
		t.Errorf("values rows = %d, want 2", res.Len())
	}
	res = run(t, g, `PREFIX ex: <http://e/>
SELECT ?p ?f WHERE { VALUES (?p ?f) { (ex:alice ex:pizza) (ex:bob UNDEF) } ?p ex:likes ?f }`)
	if res.Len() != 2 {
		t.Errorf("multi-var values rows = %d, want 2", res.Len())
	}
}

func TestDistinct(t *testing.T) {
	g := testGraph(t, fixture)
	res := run(t, g, `PREFIX ex: <http://e/> SELECT DISTINCT ?f WHERE { ?p ex:likes ?f }`)
	if res.Len() != 2 {
		t.Errorf("distinct rows = %d, want 2", res.Len())
	}
	res = run(t, g, `PREFIX ex: <http://e/> SELECT ?f WHERE { ?p ex:likes ?f }`)
	if res.Len() != 3 {
		t.Errorf("non-distinct rows = %d, want 3", res.Len())
	}
}

func TestOrderLimitOffset(t *testing.T) {
	g := testGraph(t, fixture)
	res := run(t, g, `PREFIX ex: <http://e/>
SELECT ?p ?a WHERE { ?p ex:age ?a } ORDER BY ?a`)
	if res.Len() != 3 || res.Get(0, "p") != rdf.NewIRI("http://e/bob") {
		t.Errorf("order asc: %v", res.Solutions)
	}
	res = run(t, g, `PREFIX ex: <http://e/>
SELECT ?p ?a WHERE { ?p ex:age ?a } ORDER BY DESC(?a) LIMIT 1`)
	if res.Len() != 1 || res.Get(0, "p") != rdf.NewIRI("http://e/carol") {
		t.Errorf("order desc limit: %v", res.Solutions)
	}
	res = run(t, g, `PREFIX ex: <http://e/>
SELECT ?p ?a WHERE { ?p ex:age ?a } ORDER BY ?a OFFSET 1 LIMIT 1`)
	if res.Len() != 1 || res.Get(0, "p") != rdf.NewIRI("http://e/alice") {
		t.Errorf("offset+limit: %v", res.Solutions)
	}
}

func TestAggregates(t *testing.T) {
	g := testGraph(t, fixture)
	res := run(t, g, `PREFIX ex: <http://e/>
SELECT (COUNT(?p) AS ?n) (AVG(?a) AS ?avg) (MIN(?a) AS ?lo) (MAX(?a) AS ?hi) (SUM(?a) AS ?sum)
WHERE { ?p ex:age ?a }`)
	if res.Len() != 1 {
		t.Fatalf("agg rows = %d", res.Len())
	}
	if n, _ := res.Get(0, "n").Int(); n != 3 {
		t.Errorf("count = %v", res.Get(0, "n"))
	}
	if v, _ := res.Get(0, "avg").Float(); v != 30 {
		t.Errorf("avg = %v", res.Get(0, "avg"))
	}
	if v, _ := res.Get(0, "lo").Int(); v != 25 {
		t.Errorf("min = %v", res.Get(0, "lo"))
	}
	if v, _ := res.Get(0, "hi").Int(); v != 35 {
		t.Errorf("max = %v", res.Get(0, "hi"))
	}
	if v, _ := res.Get(0, "sum").Int(); v != 90 {
		t.Errorf("sum = %v", res.Get(0, "sum"))
	}
}

func TestGroupByHaving(t *testing.T) {
	g := testGraph(t, fixture)
	res := run(t, g, `PREFIX ex: <http://e/>
SELECT ?f (COUNT(?p) AS ?n) WHERE { ?p ex:likes ?f } GROUP BY ?f`)
	if res.Len() != 2 {
		t.Fatalf("group rows = %d", res.Len())
	}
	if !res.HasRow(map[string]rdf.Term{"f": rdf.NewIRI("http://e/pizza"), "n": rdf.NewInt(2)}) {
		t.Errorf("pizza count wrong: %v", res.Solutions)
	}
	res = run(t, g, `PREFIX ex: <http://e/>
SELECT ?f (COUNT(?p) AS ?n) WHERE { ?p ex:likes ?f } GROUP BY ?f HAVING (COUNT(?p) > 1)`)
	if res.Len() != 1 || res.Get(0, "f") != rdf.NewIRI("http://e/pizza") {
		t.Errorf("having: %v", res.Solutions)
	}
}

func TestCountDistinct(t *testing.T) {
	g := testGraph(t, fixture)
	res := run(t, g, `PREFIX ex: <http://e/>
SELECT (COUNT(DISTINCT ?f) AS ?n) WHERE { ?p ex:likes ?f }`)
	if n, _ := res.Get(0, "n").Int(); n != 2 {
		t.Errorf("count distinct = %v", res.Get(0, "n"))
	}
}

func TestBuiltinFunctions(t *testing.T) {
	g := testGraph(t, fixture)
	cases := []struct {
		name, query string
		wantRows    int
	}{
		{"contains", `PREFIX ex: <http://e/> SELECT ?p WHERE { ?p ex:name ?n . FILTER(CONTAINS(?n, "li")) }`, 1},
		{"strstarts", `PREFIX ex: <http://e/> SELECT ?p WHERE { ?p ex:name ?n . FILTER(STRSTARTS(?n, "B")) }`, 1},
		{"regex", `PREFIX ex: <http://e/> SELECT ?p WHERE { ?p ex:name ?n . FILTER(REGEX(?n, "^[AB]")) }`, 2},
		{"regex-i", `PREFIX ex: <http://e/> SELECT ?p WHERE { ?p ex:name ?n . FILTER(REGEX(?n, "alice", "i")) }`, 1},
		{"strlen", `PREFIX ex: <http://e/> SELECT ?p WHERE { ?p ex:name ?n . FILTER(STRLEN(?n) = 5) }`, 2},
		{"ucase", `PREFIX ex: <http://e/> SELECT ?p WHERE { ?p ex:name ?n . FILTER(UCASE(?n) = "BOB") }`, 1},
		{"isIRI", `PREFIX ex: <http://e/> SELECT ?o WHERE { ex:alice ex:likes ?o . FILTER(ISIRI(?o)) }`, 2},
		{"isLiteral", `PREFIX ex: <http://e/> SELECT ?o WHERE { ex:alice ?p ?o . FILTER(ISLITERAL(?o)) }`, 2},
		{"bound", `PREFIX ex: <http://e/> SELECT ?p WHERE { ?p a ex:Person . OPTIONAL { ?p ex:likes ?f } FILTER(!BOUND(?f)) }`, 1},
		{"in", `PREFIX ex: <http://e/> SELECT ?p WHERE { ?p ex:name ?n . FILTER(?n IN ("Alice", "Bob")) }`, 2},
		{"not in", `PREFIX ex: <http://e/> SELECT ?p WHERE { ?p ex:name ?n . FILTER(?n NOT IN ("Alice", "Bob")) }`, 1},
		{"datatype", `PREFIX ex: <http://e/> PREFIX xsd: <http://www.w3.org/2001/XMLSchema#> SELECT ?p WHERE { ?p ex:age ?a . FILTER(DATATYPE(?a) = xsd:integer) }`, 3},
		{"sameterm", `PREFIX ex: <http://e/> SELECT ?p WHERE { ?p ex:likes ?f . FILTER(SAMETERM(?f, ex:sushi)) }`, 1},
		{"isnumeric", `PREFIX ex: <http://e/> SELECT ?o WHERE { ex:alice ?p ?o . FILTER(ISNUMERIC(?o)) }`, 1},
		{"coalesce", `PREFIX ex: <http://e/> SELECT ?p WHERE { ?p a ex:Person . OPTIONAL { ?p ex:likes ?f } FILTER(COALESCE(?f, ex:none) = ex:none) }`, 1},
		{"if", `PREFIX ex: <http://e/> SELECT ?p WHERE { ?p ex:age ?a . FILTER(IF(?a > 28, true, false)) }`, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := run(t, g, tc.query)
			if res.Len() != tc.wantRows {
				t.Errorf("rows = %d, want %d\n%s", res.Len(), tc.wantRows, tc.query)
			}
		})
	}
}

func TestStrManipulationInBind(t *testing.T) {
	g := testGraph(t, fixture)
	res := run(t, g, `PREFIX ex: <http://e/>
SELECT ?up WHERE { ex:alice ex:name ?n . BIND(CONCAT(UCASE(?n), "!") AS ?up) }`)
	if res.Get(0, "up") != rdf.NewLiteral("ALICE!") {
		t.Errorf("concat/ucase = %v", res.Get(0, "up"))
	}
}

func TestPropertyPaths(t *testing.T) {
	g := testGraph(t, `
@prefix ex: <http://e/> .
ex:a ex:sub ex:b . ex:b ex:sub ex:c . ex:c ex:sub ex:d .
ex:x ex:p ex:y . ex:y ex:q ex:z .
`)
	// OneOrMore forward.
	res := run(t, g, `PREFIX ex: <http://e/> SELECT ?o WHERE { ex:a ex:sub+ ?o }`)
	if res.Len() != 3 {
		t.Errorf("a sub+ ?o rows = %d, want 3", res.Len())
	}
	// OneOrMore backward (paper Listing 2 shape: ?x (p+) <bound>).
	res = run(t, g, `PREFIX ex: <http://e/> SELECT ?s WHERE { ?s (ex:sub+) ex:d }`)
	if res.Len() != 3 {
		t.Errorf("?s sub+ d rows = %d, want 3", res.Len())
	}
	// ZeroOrMore includes the start.
	res = run(t, g, `PREFIX ex: <http://e/> SELECT ?o WHERE { ex:a ex:sub* ?o }`)
	if res.Len() != 4 {
		t.Errorf("a sub* ?o rows = %d, want 4", res.Len())
	}
	// Sequence.
	res = run(t, g, `PREFIX ex: <http://e/> SELECT ?o WHERE { ex:x ex:p/ex:q ?o }`)
	if res.Len() != 1 || res.Get(0, "o") != rdf.NewIRI("http://e/z") {
		t.Errorf("seq path: %v", res.Solutions)
	}
	// Inverse.
	res = run(t, g, `PREFIX ex: <http://e/> SELECT ?s WHERE { ex:y ^ex:p ?s }`)
	if res.Len() != 1 || res.Get(0, "s") != rdf.NewIRI("http://e/x") {
		t.Errorf("inverse path: %v", res.Solutions)
	}
	// Alternative.
	res = run(t, g, `PREFIX ex: <http://e/> SELECT ?o WHERE { ex:x ex:p|ex:q ?o }`)
	if res.Len() != 1 {
		t.Errorf("alt path rows = %d", res.Len())
	}
	// ZeroOrOne.
	res = run(t, g, `PREFIX ex: <http://e/> SELECT ?o WHERE { ex:a ex:sub? ?o }`)
	if res.Len() != 2 {
		t.Errorf("zeroOrOne rows = %d, want 2 (a itself + b)", res.Len())
	}
	// Both ends bound.
	res = run(t, g, `PREFIX ex: <http://e/> SELECT * WHERE { ex:a ex:sub+ ex:d }`)
	if res.Len() != 1 {
		t.Errorf("bound-bound path rows = %d, want 1", res.Len())
	}
	// Both ends unbound.
	res = run(t, g, `PREFIX ex: <http://e/> SELECT ?s ?o WHERE { ?s ex:sub+ ?o }`)
	if res.Len() != 6 {
		t.Errorf("unbound path rows = %d, want 6", res.Len())
	}
}

func TestPathCycleTermination(t *testing.T) {
	g := testGraph(t, `
@prefix ex: <http://e/> .
ex:a ex:next ex:b . ex:b ex:next ex:a .
`)
	res := run(t, g, `PREFIX ex: <http://e/> SELECT ?o WHERE { ex:a ex:next+ ?o }`)
	if res.Len() != 2 {
		t.Errorf("cyclic path rows = %d, want 2 (b and a)", res.Len())
	}
}

func TestAsk(t *testing.T) {
	g := testGraph(t, fixture)
	res := run(t, g, `PREFIX ex: <http://e/> ASK { ex:alice ex:likes ex:sushi }`)
	if !res.Boolean {
		t.Error("ASK should be true")
	}
	res = run(t, g, `PREFIX ex: <http://e/> ASK { ex:bob ex:likes ex:sushi }`)
	if res.Boolean {
		t.Error("ASK should be false")
	}
}

func TestConstruct(t *testing.T) {
	g := testGraph(t, fixture)
	res := run(t, g, `PREFIX ex: <http://e/>
CONSTRUCT { ?f ex:likedBy ?p } WHERE { ?p ex:likes ?f }`)
	if res.Graph == nil || res.Graph.Len() != 3 {
		t.Fatalf("construct graph size = %v", res.Graph)
	}
	if !res.Graph.Has(rdf.NewIRI("http://e/pizza"), rdf.NewIRI("http://e/likedBy"), rdf.NewIRI("http://e/bob")) {
		t.Error("constructed triple missing")
	}
}

func TestDescribe(t *testing.T) {
	g := testGraph(t, fixture)
	res := run(t, g, `PREFIX ex: <http://e/> DESCRIBE ex:pizza`)
	if res.Graph == nil {
		t.Fatal("describe graph nil")
	}
	// pizza: 2 outgoing (a Food, cuisine) + 2 incoming likes.
	if res.Graph.Len() != 4 {
		t.Errorf("describe size = %d, want 4: %v", res.Graph.Len(), res.Graph.Triples())
	}
}

// TestConstructDescribeModifiers holds the graph forms to their solution
// modifiers (SPARQL 1.1 §16.2): LIMIT, OFFSET and ORDER BY choose the
// solutions the template instantiates or the described variables bind.
func TestConstructDescribeModifiers(t *testing.T) {
	g := testGraph(t, fixture)
	ex := func(s string) rdf.Term { return rdf.NewIRI("http://e/" + s) }
	age := func(p string) rdf.Triple { return rdf.NewTriple(ex(p), ex("older"), ex("x")) }
	for _, tc := range []struct {
		query string
		want  []rdf.Triple
	}{
		{`CONSTRUCT { ?p ex:older ex:x } WHERE { ?p ex:age ?a } ORDER BY ?a LIMIT 2`, []rdf.Triple{age("bob"), age("alice")}},
		{`CONSTRUCT { ?p ex:older ex:x } WHERE { ?p ex:age ?a } ORDER BY DESC(?a) LIMIT 1`, []rdf.Triple{age("carol")}},
		{`CONSTRUCT { ?p ex:older ex:x } WHERE { ?p ex:age ?a } ORDER BY ?a OFFSET 2`, []rdf.Triple{age("carol")}},
		{`CONSTRUCT { ?p ex:older ex:x } WHERE { ?p ex:age ?a } LIMIT 0`, nil},
		{`DESCRIBE ?f WHERE { ?f a ex:Food } ORDER BY ?f LIMIT 1`, []rdf.Triple{ // pizza, not sushi
			rdf.NewTriple(ex("pizza"), rdf.TypeIRI, ex("Food")),
			rdf.NewTriple(ex("pizza"), ex("cuisine"), rdf.NewLiteral("italian")),
			rdf.NewTriple(ex("alice"), ex("likes"), ex("pizza")),
			rdf.NewTriple(ex("bob"), ex("likes"), ex("pizza")),
		}},
	} {
		res := run(t, g, "PREFIX ex: <http://e/> "+tc.query)
		got := res.Graph.Triples()
		if len(got) != len(tc.want) {
			t.Errorf("%s: %d triples %v, want %v", tc.query, len(got), got, tc.want)
			continue
		}
		for _, tr := range tc.want {
			if !res.Graph.Has(tr.S, tr.P, tr.O) {
				t.Errorf("%s: missing %v in %v", tc.query, tr, got)
			}
		}
	}
}

func TestSubSelectStyleNestedGroup(t *testing.T) {
	g := testGraph(t, fixture)
	res := run(t, g, `PREFIX ex: <http://e/>
SELECT ?p WHERE { { ?p a ex:Person . } ?p ex:likes ex:pizza . }`)
	if res.Len() != 2 {
		t.Errorf("nested group rows = %d, want 2", res.Len())
	}
}

func TestTableRendering(t *testing.T) {
	g := testGraph(t, fixture)
	res := run(t, g, `PREFIX ex: <http://e/> SELECT ?p ?a WHERE { ?p ex:age ?a } ORDER BY ?a`)
	table := res.Table()
	if !strings.Contains(table, "?p") || !strings.Contains(table, "?a") {
		t.Errorf("table missing headers:\n%s", table)
	}
	if !strings.Contains(table, "25") {
		t.Errorf("table missing data:\n%s", table)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"empty", ``},
		{"no where", `SELECT ?x`},
		{"unterminated group", `SELECT ?x WHERE { ?x ?p ?o`},
		{"unbound prefix", `SELECT ?x WHERE { ?x nope:p ?o }`},
		{"bad filter", `SELECT ?x WHERE { ?x ?p ?o FILTER() }`},
		{"bad limit", `SELECT ?x WHERE { ?x ?p ?o } LIMIT x`},
		{"trailing", `SELECT ?x WHERE { ?x ?p ?o } garbage:x`},
		{"count star sum", `SELECT (SUM(*) AS ?n) WHERE { ?x ?p ?o }`},
		{"missing as", `SELECT (COUNT(?x) ?n) WHERE { ?x ?p ?o }`},
		{"prefixed name declared", `PREFIX ex:foo <http://e/> SELECT ?x WHERE { ?x ?p ?o }`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseQuery(tc.src); err == nil {
				t.Errorf("expected parse error for %q", tc.src)
			}
		})
	}
}

// TestPaperListing1Shape parses the exact syntactic shape of the paper's
// Listing 1 (whitespace-normalized) to prove the engine accepts it.
func TestPaperListing1Shape(t *testing.T) {
	q := `
PREFIX feo: <https://purl.org/heals/feo#>
PREFIX eo: <https://purl.org/heals/eo#>
PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
SELECT DISTINCT ?characteristic ?classes
WHERE{
  ?WhyEatCauliflowerPotatoCurry feo:hasParameter ?parameter .
  ?parameter feo:hasCharacteristic ?characteristic .
  ?characteristic feo:isInternal False .
  ?systemChar a feo:SystemCharacteristic .
  ?userChar a feo:UserCharacteristic .
  Filter ( ?characteristic = ?systemChar || ?characteristic = ?userChar ) .
  ?characteristic a ?classes .
  ?classes rdfs:subClassOf feo:Characteristic .
  Filter Not Exists{ ?classes rdfs:subClassOf eo:knowledge } .
}`
	if _, err := ParseQuery(q); err != nil {
		t.Fatalf("Listing 1 shape must parse: %v", err)
	}
}

// TestPaperListing2Shape parses the shape of Listing 2 with property paths
// and BIND.
func TestPaperListing2Shape(t *testing.T) {
	q := `
PREFIX feo: <https://purl.org/heals/feo#>
PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
Select DISTINCT ?factType ?factA ?foilType ?foilB
Where{
  BIND (feo:WhyEatButternutSquashSoupOverBroccoliCheddarSoup as ?question) .
  ?question feo:hasPrimaryParameter ?parameterA .
  ?question feo:hasSecondaryParameter ?parameterB .
  ?parameterA feo:hasCharacteristic ?factA .
  ?factA a <https://purl.org/heals/eo#Fact> .
  ?factA a ?factType .
  ?factType (rdfs:subClassOf+) feo:Characteristic .
  Filter Not Exists{ ?factType rdfs:subClassOf <https://purl.org/heals/eo#knowledge> } .
  Filter Not Exists{ ?s rdfs:subClassOf ?factType } .
  ?parameterB feo:hasCharacteristic ?foilB .
  ?foilB a <https://purl.org/heals/eo#Foil> .
  ?foilB a ?foilType .
  ?foilType (rdfs:subClassOf+) feo:Characteristic .
  Filter Not Exists{ ?foilType rdfs:subClassOf <https://purl.org/heals/eo#knowledge> } .
  Filter Not Exists{ ?t rdfs:subClassOf ?foilType } .
}`
	if _, err := ParseQuery(q); err != nil {
		t.Fatalf("Listing 2 shape must parse: %v", err)
	}
}

// TestPaperListing3Shape parses the shape of Listing 3 with OPTIONAL and a
// variable predicate.
func TestPaperListing3Shape(t *testing.T) {
	q := `
PREFIX feo: <https://purl.org/heals/feo#>
PREFIX food: <http://purl.org/heals/food/>
PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
SELECT Distinct ?property ?baseFood ?inheritedFood
WHERE{
  feo:WhatIfIWasPregnant feo:hasParameter ?parameter .
  ?parameter ?property ?baseFood .
  ?property rdfs:subPropertyOf feo:isCharacteristicOf .
  ?baseFood a food:Food .
  OPTIONAL { ?baseFood feo:isIngredientOf ?inheritedFood . }
}`
	if _, err := ParseQuery(q); err != nil {
		t.Fatalf("Listing 3 shape must parse: %v", err)
	}
}

func TestVariablePredicate(t *testing.T) {
	g := testGraph(t, fixture)
	res := run(t, g, `PREFIX ex: <http://e/>
SELECT ?pr ?o WHERE { ex:sushi ?pr ?o }`)
	if res.Len() != 3 {
		t.Errorf("variable predicate rows = %d, want 3", res.Len())
	}
}

func TestAnonBlankAsVariable(t *testing.T) {
	g := testGraph(t, fixture)
	res := run(t, g, `PREFIX ex: <http://e/> SELECT ?p WHERE { ?p ex:likes [] }`)
	if res.Len() != 3 {
		t.Errorf("anon object rows = %d, want 3", res.Len())
	}
}

func TestLangLiteralsInQuery(t *testing.T) {
	g := testGraph(t, `
@prefix ex: <http://e/> .
ex:a ex:label "hello"@en , "bonjour"@fr .
`)
	res := run(t, g, `PREFIX ex: <http://e/> SELECT ?l WHERE { ex:a ex:label ?l . FILTER(LANG(?l) = "fr") }`)
	if res.Len() != 1 || res.Get(0, "l") != rdf.NewLangLiteral("bonjour", "fr") {
		t.Errorf("lang filter: %v", res.Solutions)
	}
	res = run(t, g, `PREFIX ex: <http://e/> SELECT ?l WHERE { ex:a ex:label "hello"@en }`)
	if res.Len() != 1 {
		t.Errorf("lang literal match rows = %d", res.Len())
	}
}

func TestTypedLiteralMatch(t *testing.T) {
	g := testGraph(t, fixture)
	res := run(t, g, `PREFIX ex: <http://e/> PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
SELECT ?p WHERE { ?p ex:age "30"^^xsd:integer }`)
	if res.Len() != 1 || res.Get(0, "p") != rdf.NewIRI("http://e/alice") {
		t.Errorf("typed literal: %v", res.Solutions)
	}
}

func TestGroupConcat(t *testing.T) {
	g := testGraph(t, fixture)
	res := run(t, g, `PREFIX ex: <http://e/>
SELECT (GROUP_CONCAT(?n ; SEPARATOR = ", ") AS ?all) WHERE { ?p ex:name ?n }`)
	want := "Alice, Bob, Carol"
	if res.Get(0, "all").Value != want {
		t.Errorf("group_concat = %q, want %q", res.Get(0, "all").Value, want)
	}
}

func TestSample(t *testing.T) {
	g := testGraph(t, fixture)
	res := run(t, g, `PREFIX ex: <http://e/>
SELECT (SAMPLE(?n) AS ?one) WHERE { ?p ex:name ?n }`)
	if res.Len() != 1 || !res.Get(0, "one").IsLiteral() {
		t.Errorf("sample: %v", res.Solutions)
	}
}

func TestSubquery(t *testing.T) {
	g := testGraph(t, fixture)
	// Inner aggregation, outer join: foods liked by more than one person,
	// with the names of their likers.
	res := run(t, g, `PREFIX ex: <http://e/>
SELECT ?name ?f WHERE {
  { SELECT ?f (COUNT(?p) AS ?n) WHERE { ?p ex:likes ?f } GROUP BY ?f }
  FILTER(?n > 1) .
  ?who ex:likes ?f .
  ?who ex:name ?name .
}`)
	if res.Len() != 2 {
		t.Fatalf("rows = %d, want 2 (alice+bob like pizza):\n%s", res.Len(), res.Table())
	}
	for _, sol := range res.Solutions {
		if sol["f"] != rdf.NewIRI("http://e/pizza") {
			t.Errorf("only pizza has >1 liker: %v", sol)
		}
	}
}

func TestSubqueryLimit(t *testing.T) {
	g := testGraph(t, fixture)
	// The subquery's LIMIT applies inside, before the outer join.
	res := run(t, g, `PREFIX ex: <http://e/>
SELECT ?p ?a WHERE {
  { SELECT ?p WHERE { ?p ex:age ?x } ORDER BY DESC(?x) LIMIT 1 }
  ?p ex:age ?a .
}`)
	if res.Len() != 1 || res.Get(0, "p") != rdf.NewIRI("http://e/carol") {
		t.Errorf("subquery limit: %v", res.Solutions)
	}
}

func TestSubqueryProjectionScoping(t *testing.T) {
	g := testGraph(t, fixture)
	// ?x is internal to the subquery; only ?p escapes.
	res := run(t, g, `PREFIX ex: <http://e/>
SELECT ?p ?x WHERE {
  { SELECT ?p WHERE { ?p ex:age ?x } }
}`)
	if res.Len() != 3 {
		t.Fatalf("rows = %d", res.Len())
	}
	for _, sol := range res.Solutions {
		if _, leaked := sol["x"]; leaked {
			t.Error("?x must not escape the subquery projection")
		}
	}
}

// TestScanQueryTerms reads query terms through internal/rdf's scanners,
// the ones the Turtle parser uses: every ECHAR and UCHAR escape parses and
// renders to a fixed point, and an IRI spelled with a \u escape in a
// query names the IRI a document loaded.
func TestScanQueryTerms(t *testing.T) {
	for _, src := range []string{
		`SELECT * WHERE { ?s ?p "a\fb" }`,
		`SELECT * WHERE { ?s ?p "a\bb" }`,
		`SELECT * WHERE { ?s ?p "\U0001F600" }`,
		`SELECT * WHERE { ?s ?p ?o . FILTER(?o<?s||?o>?s) }`,
		`PREFIX : <http://e/> SELECT * WHERE { :s :p ?o }`,
		`PREFIX ex: <http://e/> SELECT * WHERE { ?s ex:a\.b%2F:c ?o }`,
	} {
		q, err := ParseQuery(src)
		if err != nil {
			t.Errorf("ParseQuery(%q): %v", src, err)
			continue
		}
		r1 := q.String()
		q2, err := ParseQuery(r1)
		if err != nil || q2.String() != r1 {
			t.Errorf("%q renders to %q, which is not a fixed point (%v)", src, r1, err)
		}
	}
	for _, src := range []string{
		`SELECT * WHERE { ?s ?p <http://e/a\u003Eb> }`,
		`SELECT * WHERE { ?s ?p <http://e/a\u007Bb> }`,
		`SELECT * WHERE { ?s ?p <http://e/a\b> }`,
		`PREFIX ex: <http://e/> SELECT * WHERE { ?s ?p ex:a\>b }`,
		`SELECT * WHERE { ?s ?p "x"@1en }`,
		`SELECT * WHERE { <http://e/\UFFFFFFFF> ?p ?o }`,
		`SELECT * WHERE { ?s ?p <http://e/\U80000000> }`,
		`SELECT * WHERE { ?s ?p "\U00110000" }`,
	} {
		if _, err := ParseQuery(src); err == nil {
			t.Errorf("ParseQuery(%q) accepted", src)
		}
	}
	g := testGraph(t, `<http://e/caf\u00E9> <http://e/p> "a\fb\bc\U0001F600" .`)
	res := run(t, g, `SELECT ?o WHERE { <http://e/caf\u00E9> <http://e/p> ?o }`)
	if len(res.Solutions) != 1 || res.Solutions[0]["o"] != rdf.NewLiteral("a\fb\bc😀") {
		t.Errorf("escaped IRI lookup = %v", res.Solutions)
	}
	if !run(t, g, `ASK { <http://e/café> <http://e/p> "a\fb\bc\U0001F600" }`).Boolean {
		t.Error("the raw IRI and the escaped literal do not match the loaded triple")
	}
	// A variable name ends before '-': "?a-1" is ?a minus 1.
	res = run(t, g, `SELECT ?x WHERE { BIND(5 AS ?a) BIND(?a-1 AS ?x) }`)
	if len(res.Solutions) != 1 || res.Solutions[0]["x"] != rdf.NewTypedLiteral("4", rdf.XSDInteger) {
		t.Errorf("?a-1 = %v, want 4", res.Solutions)
	}
}
