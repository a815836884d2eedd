// Package rdf implements the RDF 1.1 abstract data model: IRIs, literals,
// blank nodes, triples, and the standard RDF/RDFS/OWL/XSD vocabularies.
//
// Terms are small comparable value types so they can be used directly as map
// keys throughout the store, reasoner, and SPARQL engine. The package is the
// foundation of the FEO reproduction: every other subsystem (Turtle parsing,
// the triple store, the OWL RL reasoner, the SPARQL evaluator, and the
// explanation engine) exchanges data as rdf.Term and rdf.Triple values.
//
// # Binary encoding
//
// The graph snapshot, its closure section and the write-ahead log records
// (internal/store, internal/durable) spell terms and prefix tables in one
// byte encoding, written by Encoder and read by Decoder:
//
//	uvarint   encoding/binary's unsigned varint (1–10 bytes)
//	str       uvarint(len) then len bytes
//	term      kind byte (1 IRI, 2 blank node, 3 literal), str(value),
//	          and for a literal str(datatype) str(lang)
//	triple    term term term
//	prefixes  uvarint(n), n × { str(prefix) str(iri) } in prefix order,
//	          then str(base)
//
// A count precedes every collection, and the decoder rejects a count the
// bytes left cannot hold (Decoder.Count), so a corrupt length fails
// before it sizes an allocation. Formats built on these primitives say
// how their sections are laid out; they do not restate the primitives.
package rdf

import (
	"cmp"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// TermKind discriminates the three kinds of RDF terms plus the zero Term.
type TermKind uint8

// Term kinds. KindInvalid is the zero value and marks an absent term (for
// example, an unbound variable in a SPARQL solution).
const (
	KindInvalid TermKind = iota
	KindIRI
	KindBlank
	KindLiteral
)

// String returns a human-readable kind name.
func (k TermKind) String() string {
	switch k {
	case KindIRI:
		return "IRI"
	case KindBlank:
		return "BlankNode"
	case KindLiteral:
		return "Literal"
	default:
		return "Invalid"
	}
}

// Term is an RDF term: an IRI, a blank node, or a literal.
//
// The zero Term is invalid and usable as an "absent" sentinel. Term is
// comparable; two Terms are the same RDF term exactly when the struct values
// are equal (per RDF 1.1 term equality: literals compare by lexical form,
// datatype, and language tag).
type Term struct {
	// Kind discriminates how the remaining fields are interpreted.
	Kind TermKind
	// Value holds the IRI string, the blank node label (without "_:"), or
	// the literal lexical form.
	Value string
	// Datatype holds the datatype IRI for literals. Plain literals use
	// xsd:string per RDF 1.1; language-tagged literals use rdf:langString.
	Datatype string
	// Lang holds the language tag for language-tagged literals.
	Lang string
}

// NewIRI returns an IRI term.
func NewIRI(iri string) Term { return Term{Kind: KindIRI, Value: iri} }

// NewBlank returns a blank node term with the given label (no "_:" prefix).
func NewBlank(label string) Term { return Term{Kind: KindBlank, Value: label} }

// NewLiteral returns a plain string literal (datatype xsd:string).
func NewLiteral(lex string) Term {
	return Term{Kind: KindLiteral, Value: lex, Datatype: XSDString}
}

// NewTypedLiteral returns a literal with an explicit datatype IRI.
func NewTypedLiteral(lex, datatype string) Term {
	return Term{Kind: KindLiteral, Value: lex, Datatype: datatype}
}

// NewLangLiteral returns a language-tagged literal (datatype rdf:langString).
func NewLangLiteral(lex, lang string) Term {
	return Term{Kind: KindLiteral, Value: lex, Datatype: RDFLangString, Lang: strings.ToLower(lang)}
}

// NewBool returns an xsd:boolean literal.
func NewBool(b bool) Term {
	if b {
		return Term{Kind: KindLiteral, Value: "true", Datatype: XSDBoolean}
	}
	return Term{Kind: KindLiteral, Value: "false", Datatype: XSDBoolean}
}

// NewInt returns an xsd:integer literal.
func NewInt(i int64) Term {
	return Term{Kind: KindLiteral, Value: strconv.FormatInt(i, 10), Datatype: XSDInteger}
}

// NewFloat returns an xsd:double literal.
func NewFloat(f float64) Term {
	return Term{Kind: KindLiteral, Value: strconv.FormatFloat(f, 'g', -1, 64), Datatype: XSDDouble}
}

// IsIRI reports whether the term is an IRI.
func (t Term) IsIRI() bool { return t.Kind == KindIRI }

// IsBlank reports whether the term is a blank node.
func (t Term) IsBlank() bool { return t.Kind == KindBlank }

// IsLiteral reports whether the term is a literal.
func (t Term) IsLiteral() bool { return t.Kind == KindLiteral }

// IsValid reports whether the term is one of the three RDF term kinds.
func (t Term) IsValid() bool { return t.Kind != KindInvalid }

// IsResource reports whether the term is an IRI or a blank node — the kinds
// allowed in triple subject position and required by many OWL rule guards.
// The store's dictionary exposes the same test by ID (Graph.IsResourceID)
// so hot paths can check it without decoding the term.
func (t Term) IsResource() bool { return t.Kind == KindIRI || t.Kind == KindBlank }

// Bool interprets the term as an xsd:boolean literal.
func (t Term) Bool() (bool, bool) {
	if t.Kind != KindLiteral || t.Datatype != XSDBoolean {
		return false, false
	}
	switch t.Value {
	case "true", "1":
		return true, true
	case "false", "0":
		return false, true
	}
	return false, false
}

// Int interprets the term as an integer-valued literal.
func (t Term) Int() (int64, bool) {
	if t.Kind != KindLiteral || !isIntegerDatatype(t.Datatype) {
		return 0, false
	}
	i, err := strconv.ParseInt(t.Value, 10, 64)
	if err != nil {
		return 0, false
	}
	return i, true
}

// Float interprets the term as a numeric literal (integer, decimal, float,
// or double) and returns its value as float64.
func (t Term) Float() (float64, bool) {
	if t.Kind != KindLiteral || !IsNumericDatatype(t.Datatype) {
		return 0, false
	}
	f, err := strconv.ParseFloat(t.Value, 64)
	if err != nil {
		return 0, false
	}
	return f, true
}

// IsNumericDatatype reports whether dt is one of the XSD numeric datatypes
// the engine can compare and do arithmetic on.
func IsNumericDatatype(dt string) bool {
	switch dt {
	case XSDInteger, XSDDecimal, XSDFloat, XSDDouble, XSDInt, XSDLong,
		XSDShort, XSDByte, XSDNonNegativeInteger, XSDPositiveInteger,
		XSDNegativeInteger, XSDNonPositiveInteger, XSDUnsignedInt,
		XSDUnsignedLong:
		return true
	}
	return false
}

func isIntegerDatatype(dt string) bool {
	switch dt {
	case XSDInteger, XSDInt, XSDLong, XSDShort, XSDByte,
		XSDNonNegativeInteger, XSDPositiveInteger, XSDNegativeInteger,
		XSDNonPositiveInteger, XSDUnsignedInt, XSDUnsignedLong:
		return true
	}
	return false
}

// String renders the term in N-Triples-like concrete syntax. IRIs are wrapped
// in angle brackets, blank nodes are prefixed with "_:", and literals are
// quoted with their datatype or language tag.
func (t Term) String() string {
	switch t.Kind {
	case KindIRI:
		return "<" + t.Value + ">"
	case KindBlank:
		return "_:" + t.Value
	case KindLiteral:
		q := QuoteLiteral(t.Value)
		if t.Lang != "" {
			return q + "@" + t.Lang
		}
		if t.Datatype != "" && t.Datatype != XSDString {
			return q + "^^<" + t.Datatype + ">"
		}
		return q
	default:
		return "<invalid>"
	}
}

// Compact renders the term using the prefixes in ns, falling back to String.
// It is used for human-facing output (explanations, CLI tables, figures).
func (t Term) Compact(ns *Namespaces) string {
	switch t.Kind {
	case KindIRI:
		if ns != nil {
			if q, ok := ns.Shrink(t.Value); ok {
				return q
			}
		}
		return "<" + t.Value + ">"
	case KindLiteral:
		if t.Lang != "" {
			return QuoteLiteral(t.Value) + "@" + t.Lang
		}
		if t.Datatype != "" && t.Datatype != XSDString {
			dt := t.Datatype
			if ns != nil {
				if q, ok := ns.Shrink(dt); ok {
					dt = q
				} else {
					dt = "<" + dt + ">"
				}
			}
			return QuoteLiteral(t.Value) + "^^" + dt
		}
		return QuoteLiteral(t.Value)
	default:
		return t.String()
	}
}

// QuoteLiteral returns lex as a double-quoted Turtle/N-Triples string with
// the required escape sequences applied.
func QuoteLiteral(lex string) string {
	var buf [64]byte // short literals quote on the stack: one allocation, the string
	return string(AppendQuoted(buf[:0], lex))
}

// AppendQuoted appends QuoteLiteral(lex) to dst: the lexical form in
// double quotes with ", \, LF, CR and tab escaped, and each byte that is
// not valid UTF-8 replaced by U+FFFD.
func AppendQuoted(dst []byte, lex string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(lex); {
		b := lex[i]
		if b >= utf8.RuneSelf {
			r, size := utf8.DecodeRuneInString(lex[i:])
			if r == utf8.RuneError && size == 1 {
				dst = utf8.AppendRune(append(dst, lex[start:i]...), r)
				start = i + 1
			}
			i += size
			continue
		}
		var esc string
		switch b {
		case '"':
			esc = `\"`
		case '\\':
			esc = `\\`
		case '\n':
			esc = `\n`
		case '\r':
			esc = `\r`
		case '\t':
			esc = `\t`
		default:
			i++
			continue
		}
		dst = append(append(dst, lex[start:i]...), esc...)
		i++
		start = i
	}
	return append(append(dst, lex[start:]...), '"')
}

// Append appends t.String() to dst — the N-Triples form — without
// building the intermediate strings.
func (t Term) Append(dst []byte) []byte {
	switch t.Kind {
	case KindIRI:
		return append(append(append(dst, '<'), t.Value...), '>')
	case KindBlank:
		return append(append(dst, "_:"...), t.Value...)
	case KindLiteral:
		dst = AppendQuoted(dst, t.Value)
		if t.Lang != "" {
			return append(append(dst, '@'), t.Lang...)
		}
		if t.Datatype != "" && t.Datatype != XSDString {
			return append(append(append(dst, "^^<"...), t.Datatype...), '>')
		}
		return dst
	default:
		return append(dst, "<invalid>"...)
	}
}

// Compare imposes a total order on terms: invalid < blank < IRI < literal.
// Among literals, numerics (a numeric datatype whose lexical form parses)
// come first, ordered by value, then lexical form, then datatype; every
// other literal follows, ordered by lexical form, datatype, and language.
// Blank nodes and IRIs order by value. The order is transitive, so
// DISTINCT, ORDER BY's fallback and deterministic serialization sort the
// same term set the same way whatever order it arrives in.
func Compare(a, b Term) int {
	if a.Kind != b.Kind {
		return int(kindOrder(a.Kind)) - int(kindOrder(b.Kind))
	}
	if a.Kind == KindLiteral {
		fa, aNum := a.Float()
		fb, bNum := b.Float()
		switch {
		case aNum && bNum:
			if c := cmp.Compare(fa, fb); c != 0 {
				return c
			}
		case aNum:
			return -1
		case bNum:
			return 1
		}
	}
	if c := strings.Compare(a.Value, b.Value); c != 0 {
		return c
	}
	if c := strings.Compare(a.Datatype, b.Datatype); c != 0 {
		return c
	}
	return strings.Compare(a.Lang, b.Lang)
}

func kindOrder(k TermKind) uint8 {
	switch k {
	case KindBlank:
		return 1
	case KindIRI:
		return 2
	case KindLiteral:
		return 3
	default:
		return 0
	}
}

// Triple is an RDF triple. It is comparable and usable as a map key.
type Triple struct {
	S, P, O Term
}

// NewTriple returns the triple (s, p, o).
func NewTriple(s, p, o Term) Triple { return Triple{S: s, P: p, O: o} }

// String renders the triple in N-Triples syntax (terminated with " .").
func (t Triple) String() string {
	return fmt.Sprintf("%s %s %s .", t.S, t.P, t.O)
}

// Valid reports whether the triple is well-formed per RDF 1.1: the subject
// is an IRI or blank node, the predicate is an IRI, and the object is any
// valid term.
func (t Triple) Valid() bool {
	if !t.S.IsResource() {
		return false
	}
	if !t.P.IsIRI() {
		return false
	}
	return t.O.IsValid()
}
