package sparql_test

// Native fuzz targets for the query parser/renderer pair. The seed corpus
// is the paper's listing queries (verbatim, CQ1-CQ3) plus one query per
// operator family the engine supports. The invariant is stronger than
// "does not panic": any input the parser accepts must render
// ((*Query).String()) to source the parser accepts again, and the second
// render must be byte-identical to the first — the renderer's fixed-point
// property, which pins the parser and renderer against each other. And
// the shape cache must not alias: after a variant with other constants
// filed the input's template, looking the input up renders exactly as
// its fresh parse.
//
// CI runs `go test -fuzz=FuzzParseQuery -fuzztime=30s` as a smoke pass
// (see .github/workflows/ci.yml); longer local runs just work.

import (
	"testing"

	"repro/internal/paper"
	"repro/internal/sparql"
)

var querySeeds = []string{
	paper.Listing1Query,
	paper.Listing2Query,
	paper.Listing3Query,
	`SELECT * WHERE { ?s ?p ?o }`,
	`SELECT DISTINCT ?s (COUNT(?o) AS ?n) WHERE { ?s <http://e/p> ?o } GROUP BY ?s HAVING(COUNT(?o) > 1) ORDER BY DESC(?n) LIMIT 5 OFFSET 1`,
	`SELECT ?x WHERE { { ?x a <http://e/A> } UNION { ?x a <http://e/B> } MINUS { ?x <http://e/dead> true } }`,
	`SELECT ?x ?y WHERE { ?x (<http://e/p>/<http://e/q>)+ ?y . OPTIONAL { ?y ^<http://e/r> ?z } }`,
	`SELECT ?x WHERE { ?x <http://e/p> ?v . FILTER(?v >= 3 && REGEX(STR(?x), "^http")) FILTER NOT EXISTS { ?x <http://e/q> ?v } }`,
	`SELECT ?x WHERE { VALUES (?x ?v) { (<http://e/a> 1) (UNDEF "two"@en) } BIND(?v + 1 AS ?w) }`,
	`SELECT ?s WHERE { ?s <http://e/p> "lit"^^<http://www.w3.org/2001/XMLSchema#integer> . { SELECT ?s WHERE { ?s a <http://e/C> } } }`,
	`ASK { ?s <http://e/p> [] }`,
	`CONSTRUCT { ?s <http://e/flip> ?o } WHERE { ?o <http://e/flop> ?s }`,
	`DESCRIBE <http://e/thing> ?x WHERE { ?x a <http://e/C> }`,
	`PREFIX ex: <http://e/> SELECT (GROUP_CONCAT(DISTINCT ?n; SEPARATOR=", ") AS ?all) WHERE { ?s ex:name ?n }`,
	`SELECT ?x WHERE { ?x <http://e/p> ?y . FILTER(?y IN (1, 2, "three")) }`,
	// Term syntax shared with Turtle: every ECHAR and UCHAR escape, IRI
	// escapes, the empty prefix, local-name escapes, and '<' as an
	// operator where no IRIREF can start.
	`SELECT * WHERE { ?s ?p "a\fb" , "a\bb" , "\U0001F600" }`,
	`SELECT * WHERE { <http://e/caf\u00E9> ?p <http://e/a\u003Eb> }`,
	`PREFIX : <http://e/> SELECT * WHERE { :s :a\.b%2F:c ?o . FILTER(?o<?s||?o>=1.e5) }`,
	// UCHAR values that are not Unicode scalar values are rejected.
	`SELECT * WHERE { <http://e/\UFFFFFFFF> ?p <http://e/\U80000000> }`,
	`SELECT * WHERE { ?s ?p "\U00110000\uD800" }`,
}

func FuzzParseQuery(f *testing.F) {
	for _, seed := range querySeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := sparql.ParseQuery(src) // must never panic
		if err != nil {
			return
		}
		r1 := q.String()
		q2, err := sparql.ParseQuery(r1)
		if err != nil {
			t.Fatalf("rendered query failed to reparse: %v\ninput:  %q\nrender: %s", err, src, r1)
		}
		if r2 := q2.String(); r1 != r2 {
			t.Fatalf("render is not a fixed point:\nfirst:  %s\nsecond: %s\ninput:  %q", r1, r2, src)
		}
		variant := sparql.MutateConstants(src)
		sparql.ShapeRender(variant) // files the shape; the variant may not parse
		cached, err := sparql.ShapeRender(src)
		if err != nil {
			t.Fatalf("cached lookup failed: %v\ninput:   %q\nvariant: %q", err, src, variant)
		}
		if cached != r1 {
			t.Fatalf("cached template renders differently:\ncached: %s\nfresh:  %s\ninput:   %q\nvariant: %q", cached, r1, src, variant)
		}
	})
}
