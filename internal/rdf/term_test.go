package rdf

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestTermConstructors(t *testing.T) {
	tests := []struct {
		name string
		term Term
		kind TermKind
		val  string
	}{
		{"iri", NewIRI("http://example.org/a"), KindIRI, "http://example.org/a"},
		{"blank", NewBlank("b1"), KindBlank, "b1"},
		{"plain literal", NewLiteral("hello"), KindLiteral, "hello"},
		{"typed literal", NewTypedLiteral("5", XSDInteger), KindLiteral, "5"},
		{"lang literal", NewLangLiteral("hallo", "DE"), KindLiteral, "hallo"},
		{"bool true", NewBool(true), KindLiteral, "true"},
		{"bool false", NewBool(false), KindLiteral, "false"},
		{"int", NewInt(-42), KindLiteral, "-42"},
		{"float", NewFloat(2.5), KindLiteral, "2.5"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if tc.term.Kind != tc.kind {
				t.Errorf("kind = %v, want %v", tc.term.Kind, tc.kind)
			}
			if tc.term.Value != tc.val {
				t.Errorf("value = %q, want %q", tc.term.Value, tc.val)
			}
		})
	}
}

func TestLangLiteralNormalizesTag(t *testing.T) {
	lit := NewLangLiteral("x", "EN-us")
	if lit.Lang != "en-us" {
		t.Errorf("lang = %q, want lowercased %q", lit.Lang, "en-us")
	}
	if lit.Datatype != RDFLangString {
		t.Errorf("datatype = %q, want rdf:langString", lit.Datatype)
	}
}

func TestTermPredicates(t *testing.T) {
	iri, blank, lit := NewIRI("x"), NewBlank("b"), NewLiteral("l")
	var zero Term
	if !iri.IsIRI() || iri.IsBlank() || iri.IsLiteral() {
		t.Error("IRI predicates wrong")
	}
	if !blank.IsBlank() || blank.IsIRI() || blank.IsLiteral() {
		t.Error("blank predicates wrong")
	}
	if !lit.IsLiteral() || lit.IsIRI() || lit.IsBlank() {
		t.Error("literal predicates wrong")
	}
	if zero.IsValid() {
		t.Error("zero Term must be invalid")
	}
	if !iri.IsValid() || !blank.IsValid() || !lit.IsValid() {
		t.Error("constructed terms must be valid")
	}
}

func TestTermEquality(t *testing.T) {
	if NewIRI("a") != NewIRI("a") {
		t.Error("identical IRIs must compare equal")
	}
	if NewIRI("a") == NewLiteral("a") {
		t.Error("IRI and literal with same value must differ")
	}
	if NewTypedLiteral("1", XSDInteger) == NewTypedLiteral("1", XSDString) {
		t.Error("literals with different datatypes must differ")
	}
	if NewLangLiteral("a", "en") == NewLangLiteral("a", "fr") {
		t.Error("literals with different language tags must differ")
	}
}

func TestBoolAccessor(t *testing.T) {
	for _, tc := range []struct {
		term Term
		want bool
		ok   bool
	}{
		{NewBool(true), true, true},
		{NewBool(false), false, true},
		{NewTypedLiteral("1", XSDBoolean), true, true},
		{NewTypedLiteral("0", XSDBoolean), false, true},
		{NewTypedLiteral("yes", XSDBoolean), false, false},
		{NewLiteral("true"), false, false},
		{NewIRI("true"), false, false},
	} {
		got, ok := tc.term.Bool()
		if got != tc.want || ok != tc.ok {
			t.Errorf("%v.Bool() = (%v,%v), want (%v,%v)", tc.term, got, ok, tc.want, tc.ok)
		}
	}
}

func TestIntAndFloatAccessors(t *testing.T) {
	if v, ok := NewInt(7).Int(); !ok || v != 7 {
		t.Errorf("Int() = (%d,%v), want (7,true)", v, ok)
	}
	if _, ok := NewLiteral("7").Int(); ok {
		t.Error("string literal must not parse as Int")
	}
	if v, ok := NewFloat(1.5).Float(); !ok || v != 1.5 {
		t.Errorf("Float() = (%g,%v), want (1.5,true)", v, ok)
	}
	if v, ok := NewInt(3).Float(); !ok || v != 3 {
		t.Errorf("integer literal as Float = (%g,%v), want (3,true)", v, ok)
	}
	if v, ok := NewTypedLiteral("2.25", XSDDecimal).Float(); !ok || v != 2.25 {
		t.Errorf("decimal literal Float = (%g,%v)", v, ok)
	}
	if _, ok := NewTypedLiteral("abc", XSDInteger).Int(); ok {
		t.Error("malformed integer must not parse")
	}
}

func TestTermString(t *testing.T) {
	for _, tc := range []struct {
		term Term
		want string
	}{
		{NewIRI("http://e/a"), "<http://e/a>"},
		{NewBlank("x"), "_:x"},
		{NewLiteral("hi"), `"hi"`},
		{NewLangLiteral("hi", "en"), `"hi"@en`},
		{NewInt(5), `"5"^^<` + XSDInteger + `>`},
		{NewLiteral("a\"b\\c\nd"), `"a\"b\\c\nd"`},
		{Term{}, "<invalid>"},
	} {
		if got := tc.term.String(); got != tc.want {
			t.Errorf("String() = %s, want %s", got, tc.want)
		}
	}
}

func TestCompactUsesNamespaces(t *testing.T) {
	ns := StandardNamespaces()
	if got := NewIRI(FEONS + "Characteristic").Compact(ns); got != "feo:Characteristic" {
		t.Errorf("Compact = %q, want feo:Characteristic", got)
	}
	if got := NewIRI("http://unknown.example/x").Compact(ns); got != "<http://unknown.example/x>" {
		t.Errorf("Compact fallback = %q", got)
	}
	if got := NewInt(5).Compact(ns); got != `"5"^^xsd:integer` {
		t.Errorf("literal Compact = %q", got)
	}
}

func TestCompareTotalOrder(t *testing.T) {
	terms := []Term{
		NewLiteral("z"), NewIRI("a"), NewBlank("m"),
		NewInt(10), NewInt(2), NewIRI("b"), NewLiteral("a"),
	}
	sort.Slice(terms, func(i, j int) bool { return Compare(terms[i], terms[j]) < 0 })
	// Blank < IRI < literal; numerics by value.
	if !terms[0].IsBlank() {
		t.Errorf("first should be blank, got %v", terms[0])
	}
	if !terms[1].IsIRI() || terms[1].Value != "a" {
		t.Errorf("second should be IRI a, got %v", terms[1])
	}
	var i2, i10 int
	for i, tm := range terms {
		if v, ok := tm.Int(); ok {
			if v == 2 {
				i2 = i
			} else if v == 10 {
				i10 = i
			}
		}
	}
	if i2 > i10 {
		t.Error("numeric literals must order by value (2 before 10)")
	}
}

func TestCompareProperties(t *testing.T) {
	gen := func(v string, kind uint8) Term {
		switch kind % 3 {
		case 0:
			return NewIRI(v)
		case 1:
			return NewBlank(v)
		default:
			return NewLiteral(v)
		}
	}
	antisym := func(a, b string, k1, k2 uint8) bool {
		x, y := gen(a, k1), gen(b, k2)
		return Compare(x, y) == -Compare(y, x)
	}
	if err := quick.Check(antisym, nil); err != nil {
		t.Errorf("Compare not antisymmetric: %v", err)
	}
	reflexive := func(a string, k uint8) bool {
		x := gen(a, k)
		return Compare(x, x) == 0
	}
	if err := quick.Check(reflexive, nil); err != nil {
		t.Errorf("Compare not reflexive: %v", err)
	}
}

func TestQuoteLiteralEscapes(t *testing.T) {
	in := "line1\nline2\t\"quoted\"\\slash\rret"
	out := QuoteLiteral(in)
	for _, forbidden := range []string{"\n", "\t", "\r"} {
		if strings.Contains(out, forbidden) {
			t.Errorf("QuoteLiteral left raw %q in output %q", forbidden, out)
		}
	}
	if !strings.HasPrefix(out, `"`) || !strings.HasSuffix(out, `"`) {
		t.Errorf("QuoteLiteral output not quoted: %q", out)
	}
}

func TestTripleValid(t *testing.T) {
	s, p, o := NewIRI("s"), NewIRI("p"), NewLiteral("o")
	for _, tc := range []struct {
		name string
		tr   Triple
		want bool
	}{
		{"iri spo", NewTriple(s, p, o), true},
		{"blank subject", NewTriple(NewBlank("b"), p, o), true},
		{"literal subject", NewTriple(o, p, o), false},
		{"blank predicate", NewTriple(s, NewBlank("b"), o), false},
		{"literal predicate", NewTriple(s, o, o), false},
		{"invalid object", NewTriple(s, p, Term{}), false},
		{"blank object", NewTriple(s, p, NewBlank("b")), true},
	} {
		if got := tc.tr.Valid(); got != tc.want {
			t.Errorf("%s: Valid() = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestTripleString(t *testing.T) {
	tr := NewTriple(NewIRI("http://e/s"), NewIRI("http://e/p"), NewLiteral("o"))
	want := `<http://e/s> <http://e/p> "o" .`
	if got := tr.String(); got != want {
		t.Errorf("String() = %s, want %s", got, want)
	}
}

func TestIsNumericDatatype(t *testing.T) {
	for _, dt := range []string{XSDInteger, XSDDecimal, XSDFloat, XSDDouble, XSDInt, XSDLong} {
		if !IsNumericDatatype(dt) {
			t.Errorf("%s should be numeric", dt)
		}
	}
	for _, dt := range []string{XSDString, XSDBoolean, XSDDate, ""} {
		if IsNumericDatatype(dt) {
			t.Errorf("%s should not be numeric", dt)
		}
	}
}

// TestCompareNumericCycle is the three-term cycle an order that compares
// numerics by value but falls back to lexical order against other
// literals walks into: 2 < 10 by value, 10 < "15x" and "15x" < 2
// lexically.
func TestCompareNumericCycle(t *testing.T) {
	two, ten, other := NewInt(2), NewInt(10), NewLiteral("15x")
	if Compare(two, ten) >= 0 || Compare(ten, other) >= 0 || Compare(two, other) >= 0 {
		t.Errorf("want 2 < 10 < \"15x\": Compare(2,10)=%d Compare(10,15x)=%d Compare(2,15x)=%d",
			Compare(two, ten), Compare(ten, other), Compare(two, other))
	}
}

// TestCompareTransitive checks that Compare is a total order over a
// randomized mix of numeric, numeric-looking and other literals (plus
// IRIs and blank nodes): antisymmetric, and transitive over every triple
// of the sample, so a sort's result cannot depend on its input order.
func TestCompareTransitive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lex := []string{"2", "10", "15x", "-3", "1e2", "0", "-0", "07", "2.5", "NaN", "INF", "-INF", "abc", "", "9", "100"}
	dts := []string{XSDInteger, XSDDecimal, XSDDouble, XSDString, XSDInt, "http://e/dt"}
	terms := make([]Term, 40)
	for i := range terms {
		v := lex[rng.Intn(len(lex))]
		switch rng.Intn(6) {
		case 0:
			terms[i] = NewIRI("http://e/" + v)
		case 1:
			terms[i] = NewBlank("b" + v)
		case 2:
			terms[i] = NewLangLiteral(v, "en")
		default:
			terms[i] = NewTypedLiteral(v, dts[rng.Intn(len(dts))])
		}
	}
	for _, a := range terms {
		for _, b := range terms {
			if ab, ba := Compare(a, b), Compare(b, a); (ab < 0) != (ba > 0) || (ab == 0) != (a == b) {
				t.Fatalf("not antisymmetric: Compare(%v,%v)=%d, reversed %d", a, b, ab, ba)
			}
			for _, c := range terms {
				if Compare(a, b) < 0 && Compare(b, c) < 0 && Compare(a, c) >= 0 {
					t.Fatalf("not transitive: %v < %v < %v but Compare(a,c)=%d", a, b, c, Compare(a, c))
				}
			}
		}
	}
}

// refQuoteLiteral is the rune-at-a-time quoting AppendQuoted replaced,
// kept as its oracle (strings.Builder.WriteRune turns each invalid UTF-8
// byte into U+FFFD).
func refQuoteLiteral(lex string) string {
	var b strings.Builder
	b.WriteByte('"')
	for _, r := range lex {
		switch r {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteRune(r)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// nastyLexicals covers every byte class the quoting and CSV/TSV writers
// treat specially.
var nastyLexicals = []string{
	"", "plain", `"`, `\`, "\r", "\n", "\t", "\r\n", " lead", "\tlead", `\.`, ",", "a,b",
	`say "hi"`, "ünïcødé", "\xff", "ok\xffok", "\xe2\x82", "\xed\xa0\x80", "�", "trail ",
	"_:b1", "<iri>", "&amp;'<>", "\x00\x01", " nbsp", " sep",
}

func TestAppendQuotedMatchesReference(t *testing.T) {
	for _, s := range nastyLexicals {
		if got, want := string(AppendQuoted([]byte("pre"), s)), "pre"+refQuoteLiteral(s); got != want {
			t.Errorf("AppendQuoted(%q) = %q, want %q", s, got, want)
		}
	}
	if err := quick.Check(func(s string) bool { return QuoteLiteral(s) == refQuoteLiteral(s) }, nil); err != nil {
		t.Error(err)
	}
}

func TestTermAppendMatchesString(t *testing.T) {
	var terms []Term
	for _, s := range nastyLexicals {
		terms = append(terms, NewIRI("http://e/"+s), NewBlank("b"+s), NewLiteral(s),
			NewLangLiteral(s, "en-GB"), NewTypedLiteral(s, XSDInteger), NewTypedLiteral(s, XSDString),
			Term{Kind: KindLiteral, Value: s})
	}
	terms = append(terms, Term{})
	for _, tm := range terms {
		if got := string(tm.Append([]byte("x"))); got != "x"+tm.String() {
			t.Errorf("%#v.Append = %q, want %q", tm, got, "x"+tm.String())
		}
	}
}
