package turtle

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
)

func mustParse(t *testing.T, src string) *store.Graph {
	t.Helper()
	g, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse failed: %v\ninput:\n%s", err, src)
	}
	return g
}

func TestParseSimpleTriple(t *testing.T) {
	g := mustParse(t, `<http://e/s> <http://e/p> <http://e/o> .`)
	if g.Len() != 1 {
		t.Fatalf("Len = %d", g.Len())
	}
	if !g.Has(rdf.NewIRI("http://e/s"), rdf.NewIRI("http://e/p"), rdf.NewIRI("http://e/o")) {
		t.Error("triple missing")
	}
}

func TestParsePrefixAndQName(t *testing.T) {
	g := mustParse(t, `
@prefix ex: <http://e/> .
ex:s ex:p ex:o .
`)
	if !g.Has(rdf.NewIRI("http://e/s"), rdf.NewIRI("http://e/p"), rdf.NewIRI("http://e/o")) {
		t.Error("prefixed triple missing")
	}
}

func TestParseSparqlStylePrefix(t *testing.T) {
	g := mustParse(t, `
PREFIX ex: <http://e/>
ex:s ex:p ex:o .
`)
	if g.Len() != 1 {
		t.Errorf("Len = %d", g.Len())
	}
}

func TestParseAKeyword(t *testing.T) {
	g := mustParse(t, `
@prefix ex: <http://e/> .
ex:apple a ex:Fruit .
`)
	if !g.IsA(rdf.NewIRI("http://e/apple"), rdf.NewIRI("http://e/Fruit")) {
		t.Error("'a' keyword not expanded to rdf:type")
	}
}

func TestParsePredicateObjectLists(t *testing.T) {
	g := mustParse(t, `
@prefix ex: <http://e/> .
ex:s ex:p ex:o1 , ex:o2 ;
     ex:q ex:o3 .
`)
	if g.Len() != 3 {
		t.Fatalf("Len = %d, want 3", g.Len())
	}
	if len(g.Objects(rdf.NewIRI("http://e/s"), rdf.NewIRI("http://e/p"))) != 2 {
		t.Error("object list not parsed")
	}
}

func TestParseTrailingSemicolon(t *testing.T) {
	g := mustParse(t, `
@prefix ex: <http://e/> .
ex:s ex:p ex:o ; .
`)
	if g.Len() != 1 {
		t.Errorf("Len = %d", g.Len())
	}
}

func TestParseLiterals(t *testing.T) {
	g := mustParse(t, `
@prefix ex: <http://e/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
ex:s ex:plain "hello" ;
     ex:lang "bonjour"@fr ;
     ex:typed "5"^^xsd:integer ;
     ex:typedIRI "x"^^<http://e/dt> ;
     ex:int 42 ;
     ex:neg -7 ;
     ex:dec 3.14 ;
     ex:dbl 1.0e3 ;
     ex:t true ;
     ex:f false ;
     ex:esc "tab\there\nand \"quotes\"" ;
     ex:uni "é" .
`)
	s := rdf.NewIRI("http://e/s")
	ex := func(l string) rdf.Term { return rdf.NewIRI("http://e/" + l) }
	checks := []struct {
		pred string
		want rdf.Term
	}{
		{"plain", rdf.NewLiteral("hello")},
		{"lang", rdf.NewLangLiteral("bonjour", "fr")},
		{"typed", rdf.NewTypedLiteral("5", rdf.XSDInteger)},
		{"typedIRI", rdf.NewTypedLiteral("x", "http://e/dt")},
		{"int", rdf.NewTypedLiteral("42", rdf.XSDInteger)},
		{"neg", rdf.NewTypedLiteral("-7", rdf.XSDInteger)},
		{"dec", rdf.NewTypedLiteral("3.14", rdf.XSDDecimal)},
		{"dbl", rdf.NewTypedLiteral("1.0e3", rdf.XSDDouble)},
		{"t", rdf.NewBool(true)},
		{"f", rdf.NewBool(false)},
		{"esc", rdf.NewLiteral("tab\there\nand \"quotes\"")},
		{"uni", rdf.NewLiteral("é")},
	}
	for _, c := range checks {
		if !g.Has(s, ex(c.pred), c.want) {
			t.Errorf("missing %s -> %v; have %v", c.pred, c.want, g.Objects(s, ex(c.pred)))
		}
	}
}

func TestParseLongStrings(t *testing.T) {
	g := mustParse(t, `
@prefix ex: <http://e/> .
ex:s ex:p """line1
line2 "inner" quotes""" .
`)
	want := rdf.NewLiteral("line1\nline2 \"inner\" quotes")
	if !g.Has(rdf.NewIRI("http://e/s"), rdf.NewIRI("http://e/p"), want) {
		t.Errorf("long string mismatch: %v", g.Triples())
	}
}

func TestParseBlankNodes(t *testing.T) {
	g := mustParse(t, `
@prefix ex: <http://e/> .
_:b1 ex:p ex:o .
ex:s ex:q _:b1 .
`)
	b := rdf.NewBlank("b1")
	if !g.Has(b, rdf.NewIRI("http://e/p"), rdf.NewIRI("http://e/o")) {
		t.Error("labeled blank subject missing")
	}
	if !g.Has(rdf.NewIRI("http://e/s"), rdf.NewIRI("http://e/q"), b) {
		t.Error("labeled blank object missing")
	}
}

func TestParseAnonymousBlankNode(t *testing.T) {
	g := mustParse(t, `
@prefix ex: <http://e/> .
ex:s ex:p [ ex:q ex:o ; ex:r "v" ] .
`)
	if g.Len() != 3 {
		t.Fatalf("Len = %d, want 3", g.Len())
	}
	objs := g.Objects(rdf.NewIRI("http://e/s"), rdf.NewIRI("http://e/p"))
	if len(objs) != 1 || !objs[0].IsBlank() {
		t.Fatalf("expected blank object, got %v", objs)
	}
	if !g.Has(objs[0], rdf.NewIRI("http://e/q"), rdf.NewIRI("http://e/o")) {
		t.Error("nested property missing")
	}
}

func TestParseBlankSubjectPropertyList(t *testing.T) {
	g := mustParse(t, `
@prefix ex: <http://e/> .
[ ex:p ex:o ] ex:q ex:r .
[ ex:only ex:inner ] .
`)
	if g.Len() != 3 {
		t.Errorf("Len = %d, want 3", g.Len())
	}
}

func TestParseCollection(t *testing.T) {
	g := mustParse(t, `
@prefix ex: <http://e/> .
ex:s ex:p ( ex:a ex:b ex:c ) .
ex:s ex:empty ( ) .
`)
	head := g.FirstObject(rdf.NewIRI("http://e/s"), rdf.NewIRI("http://e/p"))
	members, ok := g.ReadList(head)
	if !ok || len(members) != 3 {
		t.Fatalf("collection = %v ok=%v", members, ok)
	}
	if members[0] != rdf.NewIRI("http://e/a") || members[2] != rdf.NewIRI("http://e/c") {
		t.Errorf("collection order wrong: %v", members)
	}
	if g.FirstObject(rdf.NewIRI("http://e/s"), rdf.NewIRI("http://e/empty")) != rdf.NilIRI {
		t.Error("empty collection should be rdf:nil")
	}
}

func TestParseBaseResolution(t *testing.T) {
	g := mustParse(t, `
@base <http://example.org/onto> .
<#s> <#p> <#o> .
`)
	if !g.Has(rdf.NewIRI("http://example.org/onto#s"),
		rdf.NewIRI("http://example.org/onto#p"),
		rdf.NewIRI("http://example.org/onto#o")) {
		t.Errorf("base resolution failed: %v", g.Triples())
	}
}

func TestParseComments(t *testing.T) {
	g := mustParse(t, `
# leading comment
@prefix ex: <http://e/> . # trailing
ex:s ex:p ex:o . # done
# end
`)
	if g.Len() != 1 {
		t.Errorf("Len = %d", g.Len())
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"unterminated iri", `<http://e/s <http://e/p> <http://e/o> .`},
		{"unbound prefix", `ex:s ex:p ex:o .`},
		{"missing dot", `<http://e/s> <http://e/p> <http://e/o>`},
		{"unterminated string", `<http://e/s> <http://e/p> "abc .`},
		{"bad escape", `<http://e/s> <http://e/p> "a\xb" .`},
		{"newline in short string", "<http://e/s> <http://e/p> \"a\nb\" ."},
		{"literal subject", `"lit" <http://e/p> <http://e/o> .`},
		{"empty blank label", `_: <http://e/p> <http://e/o> .`},
		{"unknown directive", `@foo <http://e/> .`},
		{"unterminated collection", `<http://e/s> <http://e/p> ( <http://e/a> .`},
		{"bad hex escape", `<http://e/s> <http://e/p> "\uZZZZ" .`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Parse(tc.src); err == nil {
				t.Errorf("expected error for %q", tc.src)
			} else if _, ok := err.(*ParseError); !ok {
				t.Errorf("error should be *ParseError, got %T", err)
			}
		})
	}
}

func TestParseErrorPosition(t *testing.T) {
	_, err := Parse("<http://e/s> <http://e/p>\n@@@ .")
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("want ParseError, got %v", err)
	}
	if pe.Line != 2 {
		t.Errorf("error line = %d, want 2", pe.Line)
	}
	if !strings.Contains(pe.Error(), "line 2") {
		t.Errorf("Error() should mention line: %s", pe.Error())
	}
}

func TestWriteRoundTripFixed(t *testing.T) {
	src := `
@prefix ex: <http://e/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
ex:s a ex:Class ;
    ex:p "lit", "fr"@fr, 5, 2.5, true ;
    ex:q <http://other/iri> .
_:b ex:inner ex:s .
`
	g := mustParse(t, src)
	var sb strings.Builder
	if err := Write(&sb, g); err != nil {
		t.Fatal(err)
	}
	g2, err := Parse(sb.String())
	if err != nil {
		t.Fatalf("reparse failed: %v\noutput:\n%s", err, sb.String())
	}
	if !store.Isomorphic(g, g2) {
		t.Errorf("round trip not isomorphic.\noriginal:\n%v\nreparsed:\n%v", g.Triples(), g2.Triples())
	}
}

func TestWriteNTriples(t *testing.T) {
	g := store.New()
	g.Add(rdf.NewIRI("http://e/s"), rdf.NewIRI("http://e/p"), rdf.NewLiteral("o"))
	var sb strings.Builder
	if err := WriteNTriples(&sb, g); err != nil {
		t.Fatal(err)
	}
	want := "<http://e/s> <http://e/p> \"o\" .\n"
	if sb.String() != want {
		t.Errorf("NTriples = %q, want %q", sb.String(), want)
	}
	// N-Triples output must be parseable by the Turtle parser.
	g2, err := Parse(sb.String())
	if err != nil || !store.Isomorphic(g, g2) {
		t.Errorf("NTriples round trip failed: %v", err)
	}
}

// Property test: random graphs round-trip through Turtle serialization
// modulo blank node renaming.
func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	iris := []rdf.Term{
		rdf.NewIRI("http://e/a"), rdf.NewIRI("http://e/b"),
		rdf.NewIRI("http://e/c"), rdf.NewIRI(rdf.FEONS + "X"),
	}
	randTerm := func(allowLit, allowBlank bool) rdf.Term {
		switch rng.Intn(5) {
		case 0:
			if allowBlank {
				return rdf.NewBlank("n" + string(rune('a'+rng.Intn(3))))
			}
			return iris[rng.Intn(len(iris))]
		case 1:
			if allowLit {
				switch rng.Intn(4) {
				case 0:
					return rdf.NewLiteral("v" + string(rune('a'+rng.Intn(5))))
				case 1:
					return rdf.NewInt(int64(rng.Intn(100)))
				case 2:
					return rdf.NewLangLiteral("x", "en")
				default:
					return rdf.NewBool(rng.Intn(2) == 0)
				}
			}
			return iris[rng.Intn(len(iris))]
		default:
			return iris[rng.Intn(len(iris))]
		}
	}
	for trial := 0; trial < 100; trial++ {
		g := store.New()
		for i := 0; i < 1+rng.Intn(15); i++ {
			g.Add(randTerm(false, true), iris[rng.Intn(len(iris))], randTerm(true, true))
		}
		var sb strings.Builder
		if err := Write(&sb, g); err != nil {
			t.Fatalf("trial %d: write: %v", trial, err)
		}
		g2, err := Parse(sb.String())
		if err != nil {
			t.Fatalf("trial %d: reparse: %v\n%s", trial, err, sb.String())
		}
		if !store.Isomorphic(g, g2) {
			t.Fatalf("trial %d: not isomorphic\noriginal: %v\nreparsed: %v\nserialized:\n%s",
				trial, g.Triples(), g2.Triples(), sb.String())
		}
	}
}

func TestParseIntoPreservesExisting(t *testing.T) {
	g := store.New()
	g.Add(rdf.NewIRI("http://e/pre"), rdf.NewIRI("http://e/p"), rdf.NewIRI("http://e/o"))
	if err := ParseInto(g, `<http://e/s> <http://e/p> <http://e/o> .`); err != nil {
		t.Fatal(err)
	}
	if g.Len() != 2 {
		t.Errorf("Len = %d, want 2", g.Len())
	}
}

func TestParseDecimalPoint(t *testing.T) {
	// A '.' that terminates a statement must not be eaten by a number.
	g := mustParse(t, `<http://e/s> <http://e/p> 5 .`)
	if !g.Has(rdf.NewIRI("http://e/s"), rdf.NewIRI("http://e/p"), rdf.NewInt(5)) {
		t.Errorf("integer-then-dot parse failed: %v", g.Triples())
	}
}

func TestParseQNameWithDots(t *testing.T) {
	g := mustParse(t, `
@prefix ex: <http://e/> .
ex:a.b ex:p ex:o .
`)
	if !g.Has(rdf.NewIRI("http://e/a.b"), rdf.NewIRI("http://e/p"), rdf.NewIRI("http://e/o")) {
		t.Errorf("dotted local name failed: %v", g.Triples())
	}
}

// TestScanTurtleTerms pins the term syntax the parser reads through
// internal/rdf: no IRI holds a character IRIREF excludes, raw or decoded,
// local names take only the grammar's escapes, and an exponent needs
// digits.
func TestScanTurtleTerms(t *testing.T) {
	const prologue = "@prefix ex: <http://e/> .\n"
	for _, src := range []string{
		`<http://e/s> <http://e/p> <http://e/a\u003Eb> .`,
		`<http://e/s> <http://e/p> <http://e/a\u0020b> .`,
		`<http://e/s> <http://e/p> <http://e/a{b}> .`,
		`<http://e/\UFFFFFFFF> <http://e/p> <http://e/o> .`,
		`<http://e/s> <http://e/p> <http://e/\U80000000> .`,
		`<http://e/s> <http://e/p> "\uD800" .`,
		prologue + `ex:s ex:p ex:a\>b .`,
		prologue + `ex:s ex:p ex:a%zz .`,
		prologue + `ex:s ex:p 1e .`,
		prologue + `ex:s ex:p "x"@1a .`,
		"@prefix e x: <http://e/> .",
		"@prefix ex:a <http://e/> .",
		"@prefixex: <http://e/> .",
	} {
		if g, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) accepted %v", src, g.Triples())
		} else if _, ok := err.(*ParseError); !ok {
			t.Errorf("Parse(%q): error %T, want *ParseError", src, err)
		}
	}
	s, p := rdf.NewIRI("http://e/s"), rdf.NewIRI("http://e/p")
	for src, want := range map[string]rdf.Term{
		prologue + `ex:s ex:p <http://e/caf\u00E9> .`: rdf.NewIRI("http://e/café"),
		prologue + `ex:s ex:p ex:a\.b\,c .`:           rdf.NewIRI("http://e/a.b,c"),
		prologue + `ex:s ex:p ex:a%2Fb:c .`:           rdf.NewIRI("http://e/a%2Fb:c"),
		prologue + `ex:s ex:p 1.e5 .`:                 rdf.NewTypedLiteral("1.e5", rdf.XSDDouble),
		prologue + `ex:s ex:p "a\fb\U0001F600" .`:     rdf.NewLiteral("a\fb😀"),
		prologue + `ex:s ex:p "x"@en-GB .`:            rdf.NewLangLiteral("x", "en-gb"),
		prologue + `ex:s ex:p true.`:                  rdf.NewBool(true),
		"@prefix: <http://e/> .\n:s :p :o .":          rdf.NewIRI("http://e/o"),
	} {
		g := mustParse(t, src)
		if g.Len() != 1 || !g.Has(s, p, want) {
			t.Errorf("Parse(%q) = %v, want the object %v", src, g.Triples(), want)
		}
		var out strings.Builder
		if err := Write(&out, g); err != nil {
			t.Fatal(err)
		}
		if g2, err := Parse(out.String()); err != nil || !store.Isomorphic(g, g2) {
			t.Errorf("%q does not round-trip: %v\n%s", src, err, out.String())
		}
	}
	// A dotted prefix reads as a prefixed name, not as the keyword 'a'
	// (or true/false) followed by a stray '.', as in a query.
	for _, src := range []string{
		"@prefix a.b: <http://e/> . <http://e/s> a.b:c <http://e/o> .",
		"PREFIX true.b: <http://e/> <http://e/s> true.b:c <http://e/o> .",
	} {
		g := mustParse(t, src)
		if !g.Has(s, rdf.NewIRI("http://e/c"), rdf.NewIRI("http://e/o")) {
			t.Errorf("Parse(%q) = %v, want the predicate <http://e/c>", src, g.Triples())
		}
	}
}
