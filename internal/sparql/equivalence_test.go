package sparql

// The randomized reference-equivalence harness: the headline guard for the
// ID-row refactor. Random graphs and random queries (BGP joins, UNION,
// OPTIONAL, MINUS, FILTER/EXISTS, property paths, BIND, VALUES, DISTINCT,
// aggregates) run through both the naive term-level reference evaluator
// (reference_test.go) and the production engine — with cold and cached
// plans, and across interleaved graph mutations — asserting
// solution-multiset equality every time.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/turtle"
)

func mustParseTurtleInto(g *store.Graph, ttl string) {
	if err := turtle.ParseInto(g, ttl); err != nil {
		panic(fmt.Sprintf("generated turtle failed to parse: %v\n%s", err, ttl))
	}
}

// canonicalRows renders a solution multiset order-insensitively.
func canonicalRows(res *Result) []string {
	rows := make([]string, 0, len(res.Solutions))
	for _, sol := range res.Solutions {
		parts := make([]string, 0, len(sol))
		for v, t := range sol {
			parts = append(parts, v+"="+t.String())
		}
		sort.Strings(parts)
		rows = append(rows, strings.Join(parts, "|"))
	}
	sort.Strings(rows)
	return rows
}

// operatorCorpus is one query per evaluator code path, over the fixture
// graph.
var operatorCorpus = []struct{ name, query string }{
	{"bgp-join", `PREFIX ex: <http://e/> SELECT ?p ?f WHERE { ?p a ex:Person . ?p ex:likes ?f }`},
	{"bgp-3way", `PREFIX ex: <http://e/> SELECT ?p ?f ?c WHERE { ?p a ex:Person . ?p ex:likes ?f . ?f ex:cuisine ?c }`},
	{"shared-var", `PREFIX ex: <http://e/> SELECT ?x WHERE { ?x ex:likes ?x }`},
	{"filter-cmp", `PREFIX ex: <http://e/> SELECT ?p WHERE { ?p ex:age ?a . FILTER(?a >= 30) }`},
	{"filter-regex", `PREFIX ex: <http://e/> SELECT ?p WHERE { ?p ex:name ?n . FILTER(REGEX(?n, "^[AB]")) }`},
	{"not-exists", `PREFIX ex: <http://e/> SELECT ?p WHERE { ?p a ex:Person . FILTER NOT EXISTS { ?p ex:likes ?f } }`},
	{"exists", `PREFIX ex: <http://e/> SELECT ?p WHERE { ?p a ex:Person . FILTER EXISTS { ?p ex:likes ex:pizza } }`},
	{"optional", `PREFIX ex: <http://e/> SELECT ?p ?f WHERE { ?p a ex:Person . OPTIONAL { ?p ex:likes ?f } }`},
	{"union", `PREFIX ex: <http://e/> SELECT ?x WHERE { { ?x a ex:Person } UNION { ?x a ex:Food } }`},
	{"minus", `PREFIX ex: <http://e/> SELECT ?p WHERE { ?p a ex:Person . MINUS { ?p ex:likes ex:sushi } }`},
	{"bind", `PREFIX ex: <http://e/> SELECT ?p ?n2 WHERE { ?p ex:age ?a . BIND(?a * 2 AS ?n2) }`},
	{"values", `PREFIX ex: <http://e/> SELECT ?p ?f WHERE { ?p ex:likes ?f . VALUES ?f { ex:pizza ex:sushi } }`},
	{"distinct", `PREFIX ex: <http://e/> SELECT DISTINCT ?f WHERE { ?p ex:likes ?f }`},
	{"order-limit", `PREFIX ex: <http://e/> SELECT ?p ?a WHERE { ?p ex:age ?a } ORDER BY DESC(?a) LIMIT 2`},
	{"aggregate", `PREFIX ex: <http://e/> SELECT ?f (COUNT(?p) AS ?n) WHERE { ?p ex:likes ?f } GROUP BY ?f`},
	{"having", `PREFIX ex: <http://e/> SELECT ?f (COUNT(?p) AS ?n) WHERE { ?p ex:likes ?f } GROUP BY ?f HAVING(COUNT(?p) > 1)`},
	{"path-seq", `PREFIX ex: <http://e/> SELECT ?p ?i WHERE { ?p ex:likes/ex:contains ?i }`},
	{"path-alt-plus", `PREFIX ex: <http://e/> SELECT ?x WHERE { ex:alice (ex:likes|ex:contains)+ ?x }`},
	{"path-inverse", `PREFIX ex: <http://e/> SELECT ?p WHERE { ex:pizza ^ex:likes ?p }`},
	{"path-star-unbound", `PREFIX ex: <http://e/> SELECT ?a ?b WHERE { ?a ex:likes* ?b }`},
	{"path-zero-or-one", `PREFIX ex: <http://e/> SELECT ?x WHERE { ex:alice ex:likes? ?x }`},
	// Closures over composite steps, one per endpoint shape.
	{"path-seq-plus", `PREFIX ex: <http://e/> SELECT ?x WHERE { ex:alice (ex:likes/ex:contains)+ ?x }`},
	{"path-alt-star-backward", `PREFIX ex: <http://e/> SELECT ?x WHERE { ?x (^ex:likes|ex:contains)* ex:alice }`},
	{"path-opt-plus-bound", `PREFIX ex: <http://e/> SELECT ?a ?b WHERE { VALUES (?a ?b) { (ex:alice ex:sushi) (ex:bob ex:sushi) (ex:carol ex:carol) } ?a (ex:likes?)+ ?b }`},
	{"path-plus-plus-unbound", `PREFIX ex: <http://e/> SELECT ?a ?b WHERE { ?a (ex:likes+)+ ?b }`},
	{"path-opt-plus-self", `PREFIX ex: <http://e/> SELECT ?x WHERE { ?x (ex:likes?)+ ?x }`},
	{"path-absent-start", `PREFIX ex: <http://e/> SELECT ?x WHERE { <http://absent> ex:likes* ?x }`},
	{"path-absent-reflexive", `PREFIX ex: <http://e/> SELECT ?f WHERE { ?f a ex:Food . <http://absent> (ex:likes/ex:contains)* <http://absent> }`},
	{"var-predicate", `PREFIX ex: <http://e/> SELECT ?pred WHERE { ex:alice ?pred ?o }`},
	{"subselect", `PREFIX ex: <http://e/> SELECT ?p ?f WHERE { ?p a ex:Person . { SELECT ?f WHERE { ?f a ex:Food } } }`},
}

// buildWideGraph returns a synthetic graph with row sets in the thousands:
// a two-level star (fan wide children, each with grand grandchildren) plus
// typed, numbered leaves.
func buildWideGraph(fan, grand int) *store.Graph {
	g := store.New()
	next := rdf.NewIRI("http://w/next")
	val := rdf.NewIRI("http://w/val")
	kind := rdf.NewIRI("http://w/Node")
	root := rdf.NewIRI("http://w/root")
	for i := 0; i < fan; i++ {
		child := rdf.NewIRI(fmt.Sprintf("http://w/c%d", i))
		g.Add(root, next, child)
		g.Add(child, rdf.TypeIRI, kind)
		g.Add(child, val, rdf.NewInt(int64(i)))
		for j := 0; j < grand; j++ {
			gc := rdf.NewIRI(fmt.Sprintf("http://w/c%d_%d", i, j))
			g.Add(child, next, gc)
			g.Add(gc, val, rdf.NewInt(int64(i*grand+j)))
		}
	}
	return g
}

// wideCorpus is the operator coverage over buildWideGraph.
var wideCorpus = []struct{ name, query string }{
	{"join", `SELECT ?a ?b ?v WHERE { ?a <http://w/next> ?b . ?b <http://w/val> ?v }`},
	{"filter", `SELECT ?c WHERE { ?c <http://w/val> ?v . FILTER(?v >= 150 && ?v < 1000) }`},
	{"not-exists", `SELECT ?c WHERE { ?c a <http://w/Node> . FILTER NOT EXISTS { ?x <http://w/next> ?c } }`},
	{"optional", `SELECT ?c ?g WHERE { ?c a <http://w/Node> . OPTIONAL { ?c <http://w/next> ?g } }`},
	{"path-plus", `SELECT ?x WHERE { <http://w/root> <http://w/next>+ ?x }`},
	{"path-unbound", `SELECT ?a ?b WHERE { ?a <http://w/next>+ ?b . ?a a <http://w/Node> }`},
	{"aggregate", `SELECT ?a (COUNT(?b) AS ?n) WHERE { ?a <http://w/next> ?b } GROUP BY ?a`},
}

// assertSameResult compares the reference and production results as
// solution multisets (plus variable lists and ASK booleans).
func assertSameResult(t *testing.T, label, query string, want, got *Result) {
	t.Helper()
	if want.Kind == KindAsk {
		if got.Boolean != want.Boolean {
			t.Fatalf("%s: ASK mismatch: reference %v, production %v\nquery: %s",
				label, want.Boolean, got.Boolean, query)
		}
		return
	}
	if fmt.Sprint(want.Vars) != fmt.Sprint(got.Vars) {
		t.Fatalf("%s: vars mismatch: reference %v, production %v\nquery: %s",
			label, want.Vars, got.Vars, query)
	}
	wantRows, gotRows := canonicalRows(want), canonicalRows(got)
	if len(wantRows) != len(gotRows) {
		t.Fatalf("%s: row count mismatch: reference %d, production %d\nquery: %s\nreference: %v\nproduction: %v",
			label, len(wantRows), len(gotRows), query, wantRows, gotRows)
	}
	for i := range wantRows {
		if wantRows[i] != gotRows[i] {
			t.Fatalf("%s: row %d mismatch:\nreference:  %s\nproduction: %s\nquery: %s",
				label, i, wantRows[i], gotRows[i], query)
		}
	}
}

// TestReferenceEquivalenceCorpus runs the fixed operator corpora through
// the reference evaluator as a deterministic sanity layer under the
// randomized harness: the fixture graph, and a wide graph whose
// intermediate row sets run to thousands of rows.
func TestReferenceEquivalenceCorpus(t *testing.T) {
	check := func(g *store.Graph, name, query string) {
		t.Run(name, func(t *testing.T) {
			q, err := ParseQuery(query)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			want := refExecute(g, q)
			got, err := Execute(g, q)
			if err != nil {
				t.Fatalf("execute: %v", err)
			}
			assertSameResult(t, name, query, want, got)
		})
	}
	g := testGraph(t, fixture)
	for _, tc := range operatorCorpus {
		if tc.name == "order-limit" {
			continue // LIMIT without a total order: row choice is unspecified
		}
		check(g, tc.name, tc.query)
	}
	wide := buildWideGraph(60, 3)
	for _, tc := range wideCorpus {
		check(wide, "wide/"+tc.name, tc.query)
	}
}

// TestRandomizedReferenceEquivalence is the randomized harness. Every
// (graph, query) pair is checked with a cold plan cache and again with a
// warm one, then the graph is mutated and a random subset re-checked
// against a fresh reference run (so a stale cached plan or bitmap set
// would be caught immediately).
func TestRandomizedReferenceEquivalence(t *testing.T) {
	const seeds = 18
	const queriesPerSeed = 7
	const refRowBudget = 60_000

	for seed := 0; seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(seed)))
			gen := newGen(rng)
			g := gen.genGraph()
			queries := make([]*Query, 0, queriesPerSeed)
			sources := make([]string, 0, queriesPerSeed)
			wants := make([]*Result, 0, queriesPerSeed)
			for attempts := 0; len(queries) < queriesPerSeed && attempts < 10*queriesPerSeed; attempts++ {
				src := gen.genQuery()
				q, err := ParseQuery(src)
				if err != nil {
					t.Fatalf("generated query failed to parse: %v\n%s", err, src)
				}
				// Cartesian shapes a nested-loop engine cannot finish are
				// skipped, not silently truncated.
				want, ok := refExecuteBudget(g, q, refRowBudget)
				if !ok {
					continue
				}
				queries = append(queries, q)
				sources = append(sources, src)
				wants = append(wants, want)
			}
			if len(queries) < queriesPerSeed {
				t.Fatalf("generator produced too many over-budget queries (kept %d)", len(queries))
			}
			for qi, q := range queries {
				want := wants[qi]
				ResetPlanCache()
				cold, err := Execute(g, q)
				if err != nil {
					t.Fatalf("execute (cold): %v\n%s", err, sources[qi])
				}
				warm, err := Execute(g, q)
				if err != nil {
					t.Fatalf("execute (warm): %v\n%s", err, sources[qi])
				}
				assertSameResult(t, fmt.Sprintf("q%d cold", qi), sources[qi], want, cold)
				assertSameResult(t, fmt.Sprintf("q%d warm", qi), sources[qi], want, warm)
			}
			// Interleaved mutations: each mutation bumps Graph.Version, so
			// the now-stale cached plans must never serve the new graph.
			for m := 0; m < 5; m++ {
				gen.mutate(g)
				qi := rng.Intn(len(queries))
				want, ok := refExecuteBudget(g, queries[qi], refRowBudget)
				if !ok {
					continue // a mutation can push a query over budget
				}
				got, err := Execute(g, queries[qi])
				if err != nil {
					t.Fatalf("execute after mutation %d: %v\n%s", m, err, sources[qi])
				}
				assertSameResult(t, fmt.Sprintf("q%d after-mutation=%d", qi, m), sources[qi], want, got)
			}
		})
	}
}
