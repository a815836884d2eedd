package sparql

// Edge-case coverage for results.go and expr.go — the package's least
// covered files before PR 4: HasRow on absent vs explicitly-unbound
// variables, ORDER BY over mixed term kinds, aggregates over empty
// groups, the builtin function library, and the numeric/EBV coercion
// corners.

import (
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
)

func edgeGraph(t *testing.T) *store.Graph {
	t.Helper()
	return testGraph(t, `
@prefix ex: <http://e/> .
ex:a ex:p "text" ; ex:n 3 ; ex:tag "hi"@en .
ex:b ex:p ex:iriVal ; ex:n 7 .
ex:c ex:p 2.5 .
`)
}

func TestHasRowUnboundSemantics(t *testing.T) {
	res := &Result{
		Kind: KindSelect,
		Vars: []string{"x", "y"},
		Solutions: []Solution{
			{"x": rdf.NewLiteral("bound")},                 // y absent
			{"x": rdf.NewLiteral("zero"), "y": rdf.Term{}}, // y explicitly zero
		},
	}
	zero := rdf.Term{}
	// A zero Term in want matches BOTH spellings of "unbound".
	if !res.HasRow(map[string]rdf.Term{"x": rdf.NewLiteral("bound"), "y": zero}) {
		t.Error("want-unbound must match a row where the var is absent")
	}
	if !res.HasRow(map[string]rdf.Term{"x": rdf.NewLiteral("zero"), "y": zero}) {
		t.Error("want-unbound must match a row with an explicit zero binding")
	}
	// A bound want must not match either unbound spelling.
	if res.HasRow(map[string]rdf.Term{"y": rdf.NewLiteral("v")}) {
		t.Error("bound want must not match unbound rows")
	}
	// Probing a variable the result never mentions behaves like unbound.
	if !res.HasRow(map[string]rdf.Term{"nosuch": zero}) {
		t.Error("want-unbound on an unknown var should match")
	}
	if res.HasRow(map[string]rdf.Term{"nosuch": rdf.NewLiteral("v")}) {
		t.Error("bound want on an unknown var must not match")
	}
}

func TestOrderByMixedTermKinds(t *testing.T) {
	g := edgeGraph(t)
	// ?v ranges over a string, an IRI, a decimal, a lang literal — no
	// single comparison domain. ORDER BY must stay total (falling back to
	// the global term order) and never panic or drop rows.
	res, err := Run(g, `SELECT ?s ?v WHERE { ?s <http://e/p> ?v } ORDER BY ?v ?s`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 {
		t.Fatalf("want 3 rows, got %d", res.Len())
	}
	// Unbound sorts first: the OPTIONAL row with no ?v must lead.
	res, err = Run(g, `SELECT ?s ?v ?n WHERE { ?s <http://e/n> ?n . OPTIONAL { ?s <http://e/nosuch> ?v } } ORDER BY ?v DESC(?n)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("want 2 rows, got %d", res.Len())
	}
	if n := res.Get(0, "n"); n != rdf.NewInt(7) {
		t.Errorf("DESC tiebreak: first row n = %v, want 7", n)
	}
}

func TestAggregatesOverEmptyGroups(t *testing.T) {
	g := edgeGraph(t)
	// No rows at all: the implicit group still yields one result row with
	// COUNT 0 and SUM 0; MIN/MAX/SAMPLE stay unbound.
	res, err := Run(g, `SELECT (COUNT(?x) AS ?c) (SUM(?x) AS ?s) (MIN(?x) AS ?lo) (MAX(?x) AS ?hi) (SAMPLE(?x) AS ?any)
		WHERE { ?x <http://e/nosuch> ?y }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("empty input must form one group, got %d rows", res.Len())
	}
	if got := res.Get(0, "c"); got != rdf.NewInt(0) {
		t.Errorf("COUNT over empty group = %v, want 0", got)
	}
	if got := res.Get(0, "s"); got != rdf.NewInt(0) {
		t.Errorf("SUM over empty group = %v, want 0", got)
	}
	zero := rdf.Term{}
	if !res.HasRow(map[string]rdf.Term{"lo": zero, "hi": zero, "any": zero}) {
		t.Errorf("MIN/MAX/SAMPLE over empty group must stay unbound; row: %v", res.Solutions[0])
	}
	// AVG over an empty group is 0 (engine convention), over values exact.
	res, err = Run(g, `SELECT (AVG(?v) AS ?a) WHERE { ?s <http://e/n> ?v }`)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := res.Get(0, "a").Float(); !ok || got != 5 {
		t.Errorf("AVG = %v, want 5", res.Get(0, "a"))
	}
	// GROUP_CONCAT with separator; aggregate over non-numeric values.
	res, err = Run(g, `SELECT (GROUP_CONCAT(?v; SEPARATOR="|") AS ?cat) WHERE { <http://e/a> <http://e/p> ?v }`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Get(0, "cat"); got.Value != "text" {
		t.Errorf("GROUP_CONCAT = %v", got)
	}
}

func TestResultSortColumnGetTable(t *testing.T) {
	g := edgeGraph(t)
	res, err := Run(g, `SELECT ?s ?n WHERE { ?s <http://e/n> ?n }`)
	if err != nil {
		t.Fatal(err)
	}
	res.Sort()
	if res.Len() != 2 || res.Get(0, "s") != rdf.NewIRI("http://e/a") {
		t.Errorf("Sort: first subject = %v", res.Get(0, "s"))
	}
	if res.Get(-1, "s") != (rdf.Term{}) || res.Get(99, "s") != (rdf.Term{}) {
		t.Error("Get out of range must return the zero term")
	}
	if col := res.Column("n"); len(col) != 2 {
		t.Errorf("Column: %v", col)
	}
	if col := res.Column("nosuch"); len(col) != 0 {
		t.Errorf("Column of unknown var: %v", col)
	}
	if tbl := res.Table(); !strings.Contains(tbl, "?s") || !strings.Contains(tbl, "----") {
		t.Errorf("Table output malformed:\n%s", tbl)
	}
	ask, err := Run(g, `ASK { <http://e/a> <http://e/n> 3 }`)
	if err != nil {
		t.Fatal(err)
	}
	if ask.Table() != "yes\n" {
		t.Errorf("ASK Table = %q", ask.Table())
	}
}

// TestBuiltinLibrary sweeps the builtin function corners through FILTER
// and BIND so both the dispatch and the row plumbing are exercised.
func TestBuiltinLibrary(t *testing.T) {
	g := edgeGraph(t)
	yes := []string{
		`ASK { FILTER(ABS(-3) = 3) }`,
		`ASK { FILTER(CEIL(2.1) = 3) }`,
		`ASK { FILTER(FLOOR(2.9) = 2) }`,
		`ASK { FILTER(ROUND(2.5) = 3) }`,
		`ASK { FILTER(STRLEN("héllo") = 5) }`,
		`ASK { FILTER(UCASE("ab") = "AB") }`,
		`ASK { FILTER(LCASE("AB") = "ab") }`,
		`ASK { FILTER(CONTAINS("abc", "b")) }`,
		`ASK { FILTER(STRSTARTS("abc", "ab")) }`,
		`ASK { FILTER(STRENDS("abc", "bc")) }`,
		`ASK { FILTER(STRBEFORE("a-b", "-") = "a") }`,
		`ASK { FILTER(STRAFTER("a-b", "-") = "b") }`,
		`ASK { FILTER(STRBEFORE("ab", "x") = "") }`,
		`ASK { FILTER(CONCAT("a", "b", "c") = "abc") }`,
		`ASK { FILTER(SUBSTR("abcde", 2, 3) = "bcd") }`,
		`ASK { FILTER(SUBSTR("abcde", 4) = "de") }`,
		`ASK { FILTER(REPLACE("banana", "na", "NA") = "baNANA") }`,
		`ASK { FILTER(REGEX("a\nb", "a.b", "s")) }`,
		`ASK { FILTER(REGEX("x\nab", "^ab", "m")) }`,
		`ASK { FILTER(REGEX("a.b", ".", "q") && !REGEX("ab", ".", "q")) }`,
		`ASK { FILTER(REGEX("ab", "a b", "x")) }`,
		`ASK { FILTER(REPLACE("AbA", "a", "z", "i") = "zbz") }`,
		`ASK { FILTER(SAMETERM(1, 1)) }`,
		`ASK { FILTER(ISNUMERIC(2.5)) }`,
		`ASK { FILTER(!ISNUMERIC("x")) }`,
		`ASK { FILTER(ISIRI(IRI("http://e/x"))) }`,
		`ASK { FILTER(DATATYPE("plain") = <http://www.w3.org/2001/XMLSchema#string>) }`,
		`ASK { ?s <http://e/tag> ?v . FILTER(LANG(?v) = "en") }`,
		`ASK { ?s <http://e/tag> ?v . FILTER(LANGMATCHES(LANG(?v), "*")) }`,
		`ASK { ?s <http://e/tag> ?v . FILTER(LANGMATCHES(LANG(?v), "EN")) }`,
		`ASK { FILTER(COALESCE(?unbound, 7) = 7) }`,
		`ASK { FILTER(IF(1 > 2, "a", "b") = "b") }`,
		`ASK { FILTER(1 IN (3, 2, 1)) }`,
		`ASK { FILTER(4 NOT IN (3, 2, 1)) }`,
		`ASK { FILTER(STR(<http://e/x>) = "http://e/x") }`,
		`ASK { FILTER((2 + 3) * 2 = 10) }`,
		`ASK { FILTER(7 / 2 = 3.5) }`,
		`ASK { FILTER(-(-2) = 2) }`,
		`ASK { FILTER("b" > "a") }`,
		`ASK { FILTER(false < true) }`,
		`ASK { FILTER(<http://e/a> < <http://e/b>) }`,
	}
	for _, src := range yes {
		res, err := Run(g, src)
		if err != nil {
			t.Errorf("%s: %v", src, err)
			continue
		}
		if !res.Boolean {
			t.Errorf("%s: want true", src)
		}
	}
	// Error semantics: an erroring filter drops rows instead of failing.
	no := []string{
		`ASK { FILTER(1 / 0 = 1) }`,                    // division by zero: error
		`ASK { FILTER("x" + 1 = 2) }`,                  // non-numeric arithmetic: error
		`ASK { FILTER(ABS("x") = 1) }`,                 // numeric fn on string: error
		`ASK { FILTER(?never) }`,                       // unbound EBV: error
		`ASK { FILTER(BOUND(?never)) }`,                // false
		`ASK { FILTER(LANG("plain") != "") }`,          // plain literal has no lang
		`ASK { FILTER(SUBSTR("abc", 0) = "abc") }`,     // start < 1: error
		`ASK { FILTER(REPLACE("a", "(", "x") = "a") }`, // bad regex: error
		`ASK { FILTER(REGEX("a", "a", "z")) }`,         // unknown regex flag: error
		`ASK { FILTER(<http://e/a> = 1) }`,             // IRI vs literal: not equal
	}
	for _, src := range no {
		res, err := Run(g, src)
		if err != nil {
			t.Errorf("%s: %v", src, err)
			continue
		}
		if res.Boolean {
			t.Errorf("%s: want false", src)
		}
	}
}

// TestEBVCoercion covers the effective-boolean-value table.
func TestEBVCoercion(t *testing.T) {
	cases := []struct {
		term rdf.Term
		want bool
		err  bool
	}{
		{rdf.TrueLiteral, true, false},
		{rdf.FalseLiteral, false, false},
		{rdf.NewInt(0), false, false},
		{rdf.NewInt(-1), true, false},
		{rdf.NewFloat(0), false, false},
		{rdf.NewLiteral(""), false, false},
		{rdf.NewLiteral("x"), true, false},
		{rdf.NewLangLiteral("x", "en"), true, false},
		{rdf.NewIRI("http://e/x"), false, true},
		{rdf.NewTypedLiteral("v", "http://e/custom"), false, true},
	}
	for _, tc := range cases {
		got, err := ebv(tc.term)
		if tc.err != (err != nil) {
			t.Errorf("ebv(%v): err = %v, want err=%v", tc.term, err, tc.err)
			continue
		}
		if err == nil && got != tc.want {
			t.Errorf("ebv(%v) = %v, want %v", tc.term, got, tc.want)
		}
	}
}
