package turtle_test

// Native fuzz target for the Turtle parser/writer pair, seeded with
// documents shaped like the paper's ontology exports (prefixed IRIs,
// rdf:type abbreviation, predicate and object lists, anonymous blank
// nodes, language tags, typed literals, escapes). The invariant: any
// document the parser accepts must serialize (Write) to a document the
// parser accepts again, and the two graphs must be isomorphic (blank
// labels may differ; structure must not).
//
// CI runs `go test -fuzz=FuzzParseTurtle -fuzztime=30s` as a smoke pass.

import (
	"strings"
	"testing"

	"repro/internal/store"
	"repro/internal/turtle"
)

var turtleSeeds = []string{
	`<http://e/s> <http://e/p> <http://e/o> .`,
	"@prefix ex: <http://e/> .\nex:s a ex:Class ; ex:p \"v\" , \"w\"@en , \"3\"^^<http://www.w3.org/2001/XMLSchema#integer> .",
	"@prefix ex: <http://e/> .\nex:s ex:p [ ex:q ex:o ; ex:r \"nested\" ] .",
	"@prefix ex: <http://e/> .\n_:b1 ex:p _:b2 .\n_:b2 ex:p _:b1 .",
	"@prefix ex: <http://e/> .\nex:s ex:num 3.5 ; ex:neg -2 ; ex:flag true .",
	`<http://e/s> <http://e/p> "esc \" quote \\ back \n line" .`,
	"@prefix : <http://e/> .\n:s :p :o .",
	"@base <http://base/> .\n<rel> <p> <o> .",
	"# a comment\n<http://e/s> <http://e/p> \"after comment\" . # trailing",
	// Term syntax: IRI escapes that decode to excluded characters and a
	// local-name escape outside PN_LOCAL_ESC are rejected, an exponent
	// needs digits, and the escapes that read back verbatim round-trip.
	`<http://e/s> <http://e/p> <http://e/a\u003Eb> .`,
	"@prefix ex: <http://e/> .\nex:s ex:p ex:a\\>b .",
	"@prefix ex: <http://e/> .\nex:s ex:p 1e .",
	"@prefix ex: <http://e/> .\nex:s ex:p ex:a\\.b%2F:c , 1.e5 , <http://e/caf\\u00E9> .",
	`<http://e/s> <http://e/p> "a\fb\bc\U0001F600"@en-GB .`,
	// UCHAR values that are not Unicode scalar values are rejected.
	`<http://e/\UFFFFFFFF> <http://e/p> <http://e/\U80000000> .`,
	`<http://e/s> <http://e/p> "\U00110000\uD800" .`,
	// A dotted prefix in predicate position is a prefixed name, not the
	// keyword 'a'.
	"@prefix a.b: <http://e/> .\n<http://e/s> a.b:c <http://e/o> .",
}

func FuzzParseTurtle(f *testing.F) {
	for _, seed := range turtleSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		g, err := turtle.Parse(src) // must never panic
		if err != nil {
			return
		}
		var out strings.Builder
		if err := turtle.Write(&out, g); err != nil {
			t.Fatalf("write failed on parsed graph: %v\ninput: %q", err, src)
		}
		g2, err := turtle.Parse(out.String())
		if err != nil {
			t.Fatalf("serialized graph failed to reparse: %v\ninput: %q\nwritten:\n%s", err, src, out.String())
		}
		if !store.Isomorphic(g, g2) {
			t.Fatalf("parse→write→reparse is not isomorphic (%d vs %d triples)\ninput: %q\nwritten:\n%s",
				g.Len(), g2.Len(), src, out.String())
		}
	})
}
