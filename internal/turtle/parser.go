// Package turtle reads and writes the Turtle and N-Triples concrete RDF
// syntaxes. The parser keeps the Turtle grammar ontology documents use:
// prefix and base directives, the 'a' keyword, boolean literals, datatype
// and language-tag suffixes, anonymous and labeled blank nodes, property
// lists, collections, and predicate-object/object list punctuation. The
// terms themselves — IRIs, prefixed names, strings (short and long),
// numbers, language tags, white space and comments — are read by the
// scanners of internal/rdf, the ones the SPARQL lexer uses, so a term
// reads the same way in a document and in a query. Error positions are
// computed from the byte offset with rdf.LineCol.
//
// Every valid N-Triples document is also a valid Turtle document, so the
// same parser loads both.
package turtle

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"unicode/utf8"

	"repro/internal/rdf"
	"repro/internal/store"
)

// parseSeq distinguishes anonymous blank nodes across parser invocations:
// without it, _:gen1 from one document would collide with _:gen1 from
// another when both are loaded into the same graph.
var parseSeq atomic.Uint64

// ParseError reports a syntax error with line and column position.
type ParseError struct {
	Line, Col int
	Msg       string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("turtle: line %d col %d: %s", e.Line, e.Col, e.Msg)
}

// Parse parses a Turtle document and returns its triples in a fresh graph.
func Parse(input string) (*store.Graph, error) {
	g := store.New()
	if err := ParseInto(g, input); err != nil {
		return nil, err
	}
	return g, nil
}

// ParseInto parses a Turtle document and adds its triples to g. Prefix
// directives are recorded in g's namespace table. On error the graph may
// contain the triples parsed so far.
func ParseInto(g *store.Graph, input string) error {
	// Turtle documents are UTF-8 by definition; rejecting invalid bytes up
	// front keeps every downstream consumer (and the writer, whose string
	// escaping iterates runes) loss-free on anything this parser accepts.
	if !utf8.ValidString(input) {
		return &ParseError{Line: 1, Col: 1, Msg: "document is not valid UTF-8"}
	}
	p := &parser{
		src: input, g: g, b: g.Bulk(), ns: g.Namespaces(),
		bnodePrefix: fmt.Sprintf("d%d", parseSeq.Add(1)),
	}
	return p.parseDocument()
}

type parser struct {
	src         string
	pos         int
	g           *store.Graph
	b           *store.Bulk // bulk writer: repeated subjects/predicates intern once
	ns          *rdf.Namespaces
	bnodeSeq    int
	bnodePrefix string
}

func (p *parser) errAt(off int, msg string) error {
	line, col := rdf.LineCol(p.src, off)
	return &ParseError{Line: line, Col: col, Msg: msg}
}

func (p *parser) errf(format string, args ...any) error {
	return p.errAt(p.pos, fmt.Sprintf(format, args...))
}

// scanErr positions an error of the rdf term scanners in the document.
func (p *parser) scanErr(err error) error {
	var se *rdf.SyntaxError
	if errors.As(err, &se) {
		return p.errAt(se.Off, se.Msg)
	}
	return err
}

func (p *parser) eof() bool { return p.pos >= len(p.src) }

func (p *parser) peek() byte {
	if p.eof() {
		return 0
	}
	return p.src[p.pos]
}

func (p *parser) peekAt(off int) byte {
	if p.pos+off >= len(p.src) {
		return 0
	}
	return p.src[p.pos+off]
}

// skipWS skips white space and comments.
func (p *parser) skipWS() { p.pos = rdf.SkipSpace(p.src, p.pos) }

func (p *parser) expect(c byte) error {
	if p.eof() || p.peek() != c {
		return p.errf("expected %q, found %q", string(c), string(p.peek()))
	}
	p.pos++
	return nil
}

func (p *parser) parseDocument() error {
	for {
		p.skipWS()
		if p.eof() {
			return nil
		}
		var err error
		switch {
		case p.peek() == '@':
			err = p.parseAtDirective()
		case p.isWord("PREFIX", true):
			err = p.parseDirective("PREFIX", false)
		case p.isWord("BASE", true):
			err = p.parseDirective("BASE", false)
		default:
			err = p.parseTriples()
		}
		if err != nil {
			return err
		}
	}
}

// parseAtDirective parses the directive at the cursor's '@', a keyword
// shaped like a language tag.
func (p *parser) parseAtDirective() error {
	p.pos++ // '@'
	switch kw, _, _ := rdf.ScanLangTag(p.src, p.pos-1); kw {
	case "prefix", "base":
		return p.parseDirective(kw, true)
	}
	return p.errf("unknown directive after '@'")
}

// parseDirective parses a prefix or base directive after the keyword kw
// at the cursor; the '@' forms (dotted) end with '.'.
func (p *parser) parseDirective(kw string, dotted bool) error {
	p.pos += len(kw)
	p.skipWS()
	isPrefix := strings.EqualFold(kw, "prefix")
	var prefix string
	if isPrefix {
		name, local, end, err := rdf.ScanPName(p.src, p.pos)
		if err != nil {
			return p.scanErr(err)
		}
		if end == p.pos || local != "" {
			return p.errf("expected prefix name and ':'")
		}
		prefix, p.pos = name, end
		p.skipWS()
	}
	iri, err := p.parseIRIRef()
	if err != nil {
		return err
	}
	if isPrefix {
		p.ns.Bind(prefix, iri)
	} else {
		p.ns.SetBase(iri)
	}
	if dotted {
		p.skipWS()
		return p.expect('.')
	}
	return nil
}

// parseTriples parses: subject predicateObjectList '.' or a blank node
// property list optionally followed by a predicateObjectList.
func (p *parser) parseTriples() error {
	var subj rdf.Term
	var err error
	if p.peek() == '[' {
		subj, err = p.parseBlankNodePropertyList()
		if err != nil {
			return err
		}
		p.skipWS()
		if p.peek() == '.' {
			p.pos++
			return nil
		}
	} else {
		subj, err = p.parseSubject()
		if err != nil {
			return err
		}
	}
	if err := p.parsePredicateObjectList(subj); err != nil {
		return err
	}
	p.skipWS()
	return p.expect('.')
}

func (p *parser) parsePredicateObjectList(subj rdf.Term) error {
	for {
		p.skipWS()
		pred, err := p.parsePredicate()
		if err != nil {
			return err
		}
		if err := p.parseObjectList(subj, pred); err != nil {
			return err
		}
		p.skipWS()
		if p.peek() != ';' {
			return nil
		}
		p.pos++
		p.skipWS()
		// Allow trailing ';' before '.' or ']'.
		if c := p.peek(); c == '.' || c == ']' || c == ';' {
			for p.peek() == ';' {
				p.pos++
				p.skipWS()
			}
			return nil
		}
	}
}

func (p *parser) parseObjectList(subj, pred rdf.Term) error {
	for {
		p.skipWS()
		obj, err := p.parseObject()
		if err != nil {
			return err
		}
		if !p.b.Add(subj, pred, obj) && !p.g.Has(subj, pred, obj) {
			return p.errf("invalid triple %s %s %s", subj, pred, obj)
		}
		p.skipWS()
		if p.peek() != ',' {
			return nil
		}
		p.pos++
	}
}

func (p *parser) parseSubject() (rdf.Term, error) {
	p.skipWS()
	switch c := p.peek(); {
	case c == '_' && p.peekAt(1) == ':':
		return p.parseBlankLabel()
	case c == '(':
		return p.parseCollection()
	default:
		return p.parseIRI()
	}
}

func (p *parser) parsePredicate() (rdf.Term, error) {
	p.skipWS()
	if p.isWord("a", false) {
		p.pos++
		return rdf.TypeIRI, nil
	}
	return p.parseIRI()
}

func (p *parser) parseObject() (rdf.Term, error) {
	p.skipWS()
	switch c := p.peek(); {
	case c == '_' && p.peekAt(1) == ':':
		return p.parseBlankLabel()
	case c == '[':
		return p.parseBlankNodePropertyList()
	case c == '(':
		return p.parseCollection()
	case c == '"' || c == '\'':
		return p.parseLiteral()
	case c == '+' || c == '-' || c == '.' || ('0' <= c && c <= '9'):
		return p.parseNumericLiteral()
	case p.isWord("true", false):
		p.pos += len("true")
		return rdf.NewBool(true), nil
	case p.isWord("false", false):
		p.pos += len("false")
		return rdf.NewBool(false), nil
	default:
		return p.parseIRI()
	}
}

// isWord reports whether the keyword w starts at the cursor: the name
// there is exactly w (in any case when fold is set, as for the
// SPARQL-style directives) and does not go on into a prefixed name.
func (p *parser) isWord(w string, fold bool) bool {
	word := p.src[p.pos:rdf.ScanLabel(p.src, p.pos)]
	return (word == w || fold && strings.EqualFold(word, w)) && p.peekAt(len(w)) != ':'
}

func (p *parser) parseIRIRef() (string, error) {
	if p.peek() != '<' {
		return "", p.errf("expected IRI, found %q", string(p.peek()))
	}
	raw, end, err := rdf.ScanIRIRef(p.src, p.pos)
	if err != nil {
		return "", p.scanErr(err)
	}
	p.pos = end
	// The copy keeps stored terms from aliasing (and so pinning) the
	// document.
	iri := p.ns.Resolve(strings.Clone(raw))
	if iri == "" {
		// "<>" with no base in scope: an empty IRI denotes nothing and
		// would collide with the plain-literal encoding of datatypes
		// downstream.
		return "", p.errf("empty IRI reference")
	}
	return iri, nil
}

func (p *parser) parseBlankLabel() (rdf.Term, error) {
	p.pos += len("_:")
	start := p.pos
	p.pos = rdf.ScanLabel(p.src, start)
	if p.pos == start {
		return rdf.Term{}, p.errf("empty blank node label")
	}
	return rdf.NewBlank(p.src[start:p.pos]), nil
}

func (p *parser) freshBlank() rdf.Term {
	p.bnodeSeq++
	return rdf.NewBlank(fmt.Sprintf("%sgen%d", p.bnodePrefix, p.bnodeSeq))
}

func (p *parser) parseBlankNodePropertyList() (rdf.Term, error) {
	p.pos++ // '['
	node := p.freshBlank()
	p.skipWS()
	if p.peek() == ']' {
		p.pos++
		return node, nil
	}
	if err := p.parsePredicateObjectList(node); err != nil {
		return rdf.Term{}, err
	}
	p.skipWS()
	if err := p.expect(']'); err != nil {
		return rdf.Term{}, err
	}
	return node, nil
}

func (p *parser) parseCollection() (rdf.Term, error) {
	p.pos++ // '('
	var members []rdf.Term
	for {
		p.skipWS()
		if p.eof() {
			return rdf.Term{}, p.errf("unterminated collection")
		}
		if p.peek() == ')' {
			p.pos++
			break
		}
		obj, err := p.parseObject()
		if err != nil {
			return rdf.Term{}, err
		}
		members = append(members, obj)
	}
	if len(members) == 0 {
		return rdf.NilIRI, nil
	}
	head := p.freshBlank()
	cur := head
	for i, m := range members {
		p.b.Add(cur, rdf.FirstIRI, m)
		if i == len(members)-1 {
			p.b.Add(cur, rdf.RestIRI, rdf.NilIRI)
		} else {
			next := p.freshBlank()
			p.b.Add(cur, rdf.RestIRI, next)
			cur = next
		}
	}
	return head, nil
}

// parseIRI parses an IRI reference or a prefixed name.
func (p *parser) parseIRI() (rdf.Term, error) {
	if p.peek() != '<' {
		return p.parsePrefixedName()
	}
	iri, err := p.parseIRIRef()
	return rdf.NewIRI(iri), err
}

func (p *parser) parsePrefixedName() (rdf.Term, error) {
	prefix, local, end, err := rdf.ScanPName(p.src, p.pos)
	if err != nil {
		return rdf.Term{}, p.scanErr(err)
	}
	if end == p.pos {
		return rdf.Term{}, p.errf("expected prefixed name")
	}
	p.pos = end
	base, ok := p.ns.IRIFor(prefix)
	if !ok {
		return rdf.Term{}, p.errf("unbound prefix %q", prefix)
	}
	return rdf.NewIRI(base + local), nil
}

func (p *parser) parseLiteral() (rdf.Term, error) {
	raw, end, err := rdf.ScanString(p.src, p.pos)
	if err != nil {
		return rdf.Term{}, p.scanErr(err)
	}
	p.pos = end
	lex := strings.Clone(raw) // as in parseIRIRef
	switch {
	case p.peek() == '@':
		tag, end, err := rdf.ScanLangTag(p.src, p.pos)
		if err != nil {
			return rdf.Term{}, p.scanErr(err)
		}
		p.pos = end
		return rdf.NewLangLiteral(lex, tag), nil
	case p.peek() == '^' && p.peekAt(1) == '^':
		p.pos += 2
		dt, err := p.parseIRI()
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewTypedLiteral(lex, dt.Value), nil
	default:
		return rdf.NewLiteral(lex), nil
	}
}

func (p *parser) parseNumericLiteral() (rdf.Term, error) {
	start := p.pos
	if c := p.peek(); c == '+' || c == '-' {
		p.pos++
	}
	_, dt, end := rdf.ScanNumber(p.src, p.pos)
	if end == p.pos {
		return rdf.Term{}, p.errf("malformed numeric literal")
	}
	p.pos = end
	return rdf.NewTypedLiteral(p.src[start:end], dt), nil
}
