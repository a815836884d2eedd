package rdf

import (
	"testing"
	"unicode/utf8"
)

func TestScanIRIRef(t *testing.T) {
	cases := []struct {
		src, iri string
		end      int // -1: a syntax error after an IRIREF started; 0: none started
	}{
		{`<http://e/a> .`, "http://e/a", 12},
		{`<>`, "", 2},
		{`<http://e/caf\u00E9>`, "http://e/café", 20},
		{`<http://e/\U0001F600>`, "http://e/😀", 21},
		{`<http://e/é>`, "http://e/é", 13},
		{`<http://e/a\u003Eb>`, "", -1}, // decodes to '>'
		{`<http://e/a\u0020b>`, "", -1}, // decodes to a space
		{`<http://e/a\>b>`, "", -1},
		{`<http://e/a\u00>`, "", -1},
		{`<http://e/\UFFFFFFFF>`, "", -1}, // does not fit a signed 32-bit rune
		{`<http://e/\U80000000>`, "", -1},
		{`<http://e/\U00110000>`, "", -1}, // above U+10FFFF
		{`<http://e/\uD800>`, "", -1},     // a surrogate
		{`<http://e/\U0010FFFF>`, "http://e/\U0010FFFF", 21},
		{`<http://e/a b>`, "", 0},
		{`<http://e/a`, "", 0},
		{`<= ?x`, "", 0},
		{"<http://e/a\rb>", "", 0},
		{`<a{b}>`, "", 0},
		{`<a"b>`, "", 0},
		{`<a|b>`, "", 0},
	}
	for _, c := range cases {
		iri, end, err := ScanIRIRef(c.src, 0)
		switch {
		case c.end > 0 && (err != nil || iri != c.iri || end != c.end):
			t.Errorf("ScanIRIRef(%q) = %q, %d, %v; want %q, %d", c.src, iri, end, err, c.iri, c.end)
		case c.end == 0 && (err == nil || end != 0):
			t.Errorf("ScanIRIRef(%q) = %q, %d, %v; want no IRIREF", c.src, iri, end, err)
		case c.end < 0 && (err == nil || end == 0):
			t.Errorf("ScanIRIRef(%q) = %q, %d, %v; want a syntax error", c.src, iri, end, err)
		}
	}
}

func TestScanString(t *testing.T) {
	cases := []struct {
		src, s string
		end    int // -1: syntax error
	}{
		{`"abc" .`, "abc", 5},
		{`""`, "", 2},
		{`''`, "", 2},
		{`'it''s'`, "it", 4},
		{`"a\tb\nc\rd\be\ff\"g\'h\\i"`, "a\tb\nc\rd\be\ff\"g'h\\i", 27},
		{`"\u00E9\U0001F600"`, "é😀", 18},
		{`"""a "quoted" b"""`, `a "quoted" b`, 18},
		{"'''multi\nline'''", "multi\nline", 16},
		{`"""a""" .`, "a", 7},
		{`"a\xb"`, "", -1},
		{`"\uZZZZ"`, "", -1},
		{`"\u00"`, "", -1},
		{`"\UFFFFFFFF"`, "", -1},
		{`"\U80000000"`, "", -1},
		{`"\U00110000"`, "", -1},
		{`"\uDFFF"`, "", -1},
		{"\"a\nb\"", "", -1},
		{`"abc`, "", -1},
		{`"""abc""`, "", -1},
		{`"abc\`, "", -1},
	}
	for _, c := range cases {
		s, end, err := ScanString(c.src, 0)
		if c.end < 0 {
			if err == nil {
				t.Errorf("ScanString(%q) = %q, %d; want a syntax error", c.src, s, end)
			}
			continue
		}
		if err != nil || s != c.s || end != c.end {
			t.Errorf("ScanString(%q) = %q, %d, %v; want %q, %d", c.src, s, end, err, c.s, c.end)
		}
	}
}

func TestScanNumber(t *testing.T) {
	cases := []struct{ src, lex, dt string }{
		{"42 .", "42", XSDInteger},
		{"4.5", "4.5", XSDDecimal},
		{".5", ".5", XSDDecimal},
		{"1e5", "1e5", XSDDouble},
		{"1.5E-3", "1.5E-3", XSDDouble},
		{".5e+2", ".5e+2", XSDDouble},
		{"1.e5", "1.e5", XSDDouble},
		{"1e", "1", XSDInteger}, // an exponent without digits backtracks
		{"1e+x", "1", XSDInteger},
		{"1.", "1", XSDInteger},
		{"1.ex:a", "1", XSDInteger},
		{"3.5.6", "3.5", XSDDecimal},
		{".", "", ""},
		{"e5", "", ""},
		{"+1", "", ""},
	}
	for _, c := range cases {
		lex, dt, end := ScanNumber(c.src, 0)
		if lex != c.lex || dt != c.dt || end != len(c.lex) {
			t.Errorf("ScanNumber(%q) = %q, %q, %d; want %q, %q", c.src, lex, dt, end, c.lex, c.dt)
		}
	}
}

func TestScanLangTag(t *testing.T) {
	cases := []struct {
		src, tag string
		end      int // -1: syntax error
	}{
		{"@en .", "en", 3},
		{"@en-US", "en-US", 6},
		{"@de-CH-1901", "de-CH-1901", 11},
		{"@en-", "en", 3},
		{"@en--us", "en", 3},
		{"@1en", "", -1},
		{"@", "", -1},
	}
	for _, c := range cases {
		tag, end, err := ScanLangTag(c.src, 0)
		if c.end < 0 {
			if err == nil {
				t.Errorf("ScanLangTag(%q) = %q, %d; want a syntax error", c.src, tag, end)
			}
		} else if err != nil || tag != c.tag || end != c.end {
			t.Errorf("ScanLangTag(%q) = %q, %d, %v; want %q, %d", c.src, tag, end, err, c.tag, c.end)
		}
	}
}

func TestScanPName(t *testing.T) {
	cases := []struct {
		src, prefix, local string
		end                int // -1: syntax error; 0: no prefixed name
	}{
		{"ex:a .", "ex", "a", 4},
		{":a", "", "a", 2},
		{"ex: <x>", "ex", "", 3},
		{"ex:a.b", "ex", "a.b", 6},
		{"ex:a..b", "ex", "a..b", 7},
		{"ex:a. ", "ex", "a", 4},
		{"ex:a.", "ex", "a", 4},
		{"ex:.a", "ex", "", 3},
		{"ex:a:b", "ex", "a:b", 6},
		{"ex:0a", "ex", "0a", 5},
		{`ex:a\.b\,c`, "ex", "a.b,c", 10},
		{"ex:a%2Fb", "ex", "a%2Fb", 8},
		{"ex.v1:a", "ex.v1", "a", 7},
		{"ex:é", "ex", "é", 5},
		{`ex:a\>b`, "", "", -1},
		{`ex:a\`, "", "", -1},
		{"ex:a%zz", "", "", -1},
		{"ex:a%2", "", "", -1},
		{"ex", "", "", 0},
		{"ex.:a", "", "", 0},
		{"<ex:a>", "", "", 0},
	}
	for _, c := range cases {
		prefix, local, end, err := ScanPName(c.src, 0)
		switch {
		case c.end < 0:
			if err == nil {
				t.Errorf("ScanPName(%q) = %q, %q, %d; want a syntax error", c.src, prefix, local, end)
			}
		case err != nil || prefix != c.prefix || local != c.local || end != c.end:
			t.Errorf("ScanPName(%q) = %q, %q, %d, %v; want %q, %q, %d", c.src, prefix, local, end, err, c.prefix, c.local, c.end)
		}
	}
}

func TestScanNames(t *testing.T) {
	for _, c := range []struct {
		src        string
		chars, lab int
	}{
		{"abc def", 3, 3},
		{"a-b_c9 ", 6, 6},
		{"a.b.c.", 1, 5},
		{"a..b", 1, 4},
		{".a", 0, 0},
		{"é.x", 2, 4},
		{"?x", 0, 0},
	} {
		if got := ScanPNChars(c.src, 0); got != c.chars {
			t.Errorf("ScanPNChars(%q) = %d, want %d", c.src, got, c.chars)
		}
		if got := ScanLabel(c.src, 0); got != c.lab {
			t.Errorf("ScanLabel(%q) = %d, want %d", c.src, got, c.lab)
		}
	}
}

func TestScanSpaceAndPosition(t *testing.T) {
	src := " \t# comment <x>\r\n  ex:a # tail"
	if got := SkipSpace(src, 0); src[got:] != "ex:a # tail" {
		t.Errorf("SkipSpace stopped at %q", src[got:])
	}
	if got := SkipSpace(src, 23); got != len(src) {
		t.Errorf("SkipSpace over a final comment = %d, want %d", got, len(src))
	}
	for _, c := range []struct{ off, line, col int }{{0, 1, 1}, {3, 1, 4}, {17, 2, 1}, {19, 2, 3}, {len(src), 2, 14}} {
		if line, col := LineCol(src, c.off); line != c.line || col != c.col {
			t.Errorf("LineCol(%d) = %d:%d, want %d:%d", c.off, line, col, c.line, c.col)
		}
	}
}

// FuzzScan holds the string scanner against the quoting writers use: for
// every valid UTF-8 s, scanning AppendQuoted(s) yields s and ends just
// after the closing quote.
func FuzzScan(f *testing.F) {
	for _, s := range []string{"", "plain", `a"b`, `back\slash`, "\n\r\t", "\b\f", "é😀", "\x00\x7f", `\u0041`, `"""`} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if !utf8.ValidString(s) {
			return
		}
		q := string(AppendQuoted(nil, s))
		got, end, err := ScanString(q, 0)
		if err != nil || got != s || end != len(q) {
			t.Fatalf("ScanString(%q) = %q, %d, %v; want %q, %d", q, got, end, err, s, len(q))
		}
	})
}
