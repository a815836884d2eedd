package sparql

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"unicode/utf8"

	"repro/internal/rdf"
)

// tokenKind classifies lexer output.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokKeyword
	tokVar     // ?name or $name (normalized to name)
	tokIRIRef  // <...> (value without brackets)
	tokPName   // prefix:local or prefix: (kept verbatim)
	tokString  // quoted string (value unescaped)
	tokNumber  // numeric literal (verbatim)
	tokBool    // true / false
	tokPunct   // single/multi character punctuation
	tokLangTag // @en
	tokAnon    // []
)

type token struct {
	kind tokenKind
	text string
	// off and end delimit the token's source bytes; a string's end covers
	// the language tag or datatype folded into it. Errors about the token
	// are positioned at end (see errAt).
	off, end int
	// param indexes the lexer's parameter vector when the token is a
	// lifted constant, and is -1 otherwise.
	param int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// Error reports a SPARQL syntax or evaluation error with position.
type Error struct {
	Line, Col int
	Msg       string
}

func (e *Error) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("sparql: line %d col %d: %s", e.Line, e.Col, e.Msg)
	}
	return "sparql: " + e.Msg
}

// keywords maps each keyword to itself, so a lookup by a scratch buffer
// (see keyword) yields the interned name.
var keywords = func() map[string]string {
	m := make(map[string]string)
	for _, kw := range strings.Fields(`SELECT DISTINCT REDUCED WHERE FILTER OPTIONAL UNION MINUS
		BIND AS VALUES UNDEF ORDER BY ASC DESC LIMIT OFFSET GROUP HAVING
		ASK CONSTRUCT DESCRIBE PREFIX BASE NOT EXISTS IN A
		INSERT DELETE DATA CLEAR`) {
		m[kw] = kw
	}
	return m
}()

// standardNS resolves prefixed datatype names the query does not declare
// itself. Read-only after init.
var standardNS = rdf.StandardNamespaces()

// lexer is a position cursor over the query text: next yields one token
// at a time, so the parser and the fingerprint scan share one tokenizer
// and neither builds a token slice.
//
// The lexer also lifts constants: it resolves each into a term and
// appends it to the parameter vector a cached template reads them from.
// Every IRIREF, string and numeric or boolean literal is lifted except the
// IRIs of PREFIX and BASE declarations and the numbers after LIMIT and
// OFFSET; a string's language tag or datatype is folded into its term
// first. The parser compiles a lifted constant into the template wherever
// it cannot be a parameter and reports it as pinned (see qparser.pin), so
// its value joins the cache key.
type lexer struct {
	src string
	pos int
	err error
	// pending is a token read ahead while folding a literal's tail.
	pending    token
	hasPending bool
	// prev holds the kinds and texts of the last two tokens returned,
	// most recent first: the context lifting and declarations read.
	prev [2]struct {
		kind tokenKind
		text string
	}
	// ns collects the text's own PREFIX and BASE declarations, for
	// resolving IRIREFs and prefixed datatypes inside the lexer.
	ns rdf.Namespaces
	// params is the parameter vector: the lifted constants in text order.
	params []rdf.Term
}

// errAt reports msg at source offset off: line and column (in bytes)
// counted from 1.
func (l *lexer) errAt(off int, msg string) *Error {
	line, col := rdf.LineCol(l.src, off)
	return &Error{Line: line, Col: col, Msg: msg}
}

func (l *lexer) errf(format string, args ...any) error {
	return l.errAt(l.pos, fmt.Sprintf(format, args...))
}

// scanErr positions an error of the rdf term scanners in the text.
func (l *lexer) scanErr(err error) error {
	var se *rdf.SyntaxError
	if errors.As(err, &se) {
		return l.errAt(se.Off, se.Msg)
	}
	return err
}

// tok makes a token spanning src[off:l.pos].
func (l *lexer) tok(kind tokenKind, text string, off int) token {
	return token{kind: kind, text: text, off: off, end: l.pos, param: -1}
}

func (l *lexer) eof() bool { return l.pos >= len(l.src) }

func (l *lexer) peek() byte {
	if l.eof() {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) peekAt(off int) byte {
	if l.pos+off >= len(l.src) {
		return 0
	}
	return l.src[l.pos+off]
}

// next returns the next token, lifting it when it is a constant. After
// end of input or an error it keeps returning EOF (with the error the
// first time).
func (l *lexer) next() (token, error) {
	t, err := l.raw()
	if err != nil {
		return t, err
	}
	switch t.kind {
	case tokIRIRef:
		switch {
		case l.prevIs(0, tokKeyword, "BASE"):
			l.ns.SetBase(t.text)
		case l.prevIs(1, tokKeyword, "PREFIX") && l.prev[0].kind == tokPName:
			l.ns.Bind(strings.TrimSuffix(l.prev[0].text, ":"), t.text)
		default:
			l.lift(&t, rdf.NewIRI(l.ns.Resolve(t.text)))
		}
	case tokString:
		term, err := l.foldTail(&t)
		if err != nil {
			return l.fail(err)
		}
		l.lift(&t, term)
	case tokNumber:
		if !l.prevIs(0, tokKeyword, "LIMIT") && !l.prevIs(0, tokKeyword, "OFFSET") {
			_, dt, _ := rdf.ScanNumber(t.text, 0)
			l.lift(&t, rdf.NewTypedLiteral(t.text, dt))
		}
	case tokBool:
		l.lift(&t, rdf.NewBool(t.text == "true"))
	}
	l.prev[1] = l.prev[0]
	l.prev[0].kind, l.prev[0].text = t.kind, t.text
	return t, nil
}

func (l *lexer) prevIs(i int, kind tokenKind, text string) bool {
	return l.prev[i].kind == kind && l.prev[i].text == text
}

func (l *lexer) lift(t *token, term rdf.Term) {
	if l.params == nil {
		l.params = make([]rdf.Term, 0, 4)
	}
	t.param = len(l.params)
	l.params = append(l.params, term)
}

func (l *lexer) fail(err error) (token, error) {
	l.err = err
	return token{kind: tokEOF, off: l.pos, end: l.pos, param: -1}, err
}

// foldTail returns string token t's literal with the language tag or
// ^^datatype that follows it folded in (extending t's span), or the plain
// literal, keeping the token it read ahead.
func (l *lexer) foldTail(t *token) (rdf.Term, error) {
	n, err := l.raw()
	if err != nil {
		return rdf.Term{}, err
	}
	var term rdf.Term
	switch {
	case n.kind == tokLangTag:
		term = rdf.NewLangLiteral(t.text, n.text)
	case n.kind == tokPunct && n.text == "^":
		caret, err := l.raw()
		if err != nil {
			return rdf.Term{}, err
		}
		if caret.kind != tokPunct || caret.text != "^" {
			return rdf.Term{}, l.errAt(caret.end, fmt.Sprintf("expected %q, found %s", "^", caret))
		}
		if n, err = l.raw(); err != nil {
			return rdf.Term{}, err
		}
		switch n.kind {
		case tokIRIRef:
			term = rdf.NewTypedLiteral(t.text, l.ns.Resolve(n.text))
		case tokPName:
			iri, err := l.expand(n)
			if err != nil {
				return rdf.Term{}, err
			}
			term = rdf.NewTypedLiteral(t.text, iri)
		default:
			return rdf.Term{}, l.errAt(n.end, "expected datatype IRI")
		}
	default:
		l.pending, l.hasPending = n, true
		return rdf.NewLiteral(t.text), nil
	}
	t.end = n.end
	return term, nil
}

// expand resolves a prefixed name against the text's own declarations,
// then the standard prefixes — the mapping the parser builds.
func (l *lexer) expand(t token) (string, error) {
	if strings.HasPrefix(t.text, "_:") {
		// Blank nodes in queries are scoped variables.
		return "", l.errAt(t.end, "labeled blank nodes in queries are not supported; use a variable")
	}
	if !strings.Contains(t.text, ":") {
		return "", l.errAt(t.end, fmt.Sprintf("unexpected bare word %q", t.text))
	}
	if iri, ok := l.ns.Expand(t.text); ok {
		return iri, nil
	}
	if iri, ok := standardNS.Expand(t.text); ok {
		return iri, nil
	}
	return "", l.errAt(t.end, fmt.Sprintf("unbound prefix in %q", t.text))
}

// raw scans the next token without resolving or lifting it.
func (l *lexer) raw() (token, error) {
	if l.hasPending {
		l.hasPending = false
		return l.pending, nil
	}
	if l.err != nil {
		return token{kind: tokEOF, off: l.pos, end: l.pos, param: -1}, nil
	}
	l.pos = rdf.SkipSpace(l.src, l.pos)
	if l.eof() {
		return l.tok(tokEOF, "", l.pos), nil
	}
	t, err := l.scan(l.src[l.pos])
	if err != nil {
		return l.fail(err)
	}
	return t, nil
}

// scan lexes the token starting with c at the cursor.
func (l *lexer) scan(c byte) (token, error) {
	off := l.pos
	if _, _, end := rdf.ScanNumber(l.src, off); end > off {
		l.pos = end
		return l.tok(tokNumber, l.src[off:end], off), nil
	}
	switch {
	case c == '?' || c == '$':
		// '?' not followed by a name char is the zero-or-one path
		// modifier, not a variable.
		l.pos = rdf.ScanVarName(l.src, off+1)
		if l.pos == off+1 {
			return l.tok(tokPunct, "?", off), nil
		}
		return l.tok(tokVar, l.src[off+1:l.pos], off), nil
	case c == '<':
		iri, end, err := rdf.ScanIRIRef(l.src, off)
		if err == nil {
			l.pos = end
			return l.tok(tokIRIRef, iri, off), nil
		}
		if end != off {
			return token{}, l.scanErr(err)
		}
		// No IRIREF starts here: '<' is a comparison operator.
		l.pos++
		if l.peek() == '=' {
			l.pos++
			return l.tok(tokPunct, "<=", off), nil
		}
		return l.tok(tokPunct, "<", off), nil
	case c == '"' || c == '\'':
		s, end, err := rdf.ScanString(l.src, off)
		if err != nil {
			return token{}, l.scanErr(err)
		}
		l.pos = end
		return l.tok(tokString, s, off), nil
	case c == '@':
		tag, end, err := rdf.ScanLangTag(l.src, off)
		if err != nil {
			return token{}, l.scanErr(err)
		}
		l.pos = end
		return l.tok(tokLangTag, tag, off), nil
	case c == '+' || c == '-':
		// Sign is part of a numeric literal only directly before digits;
		// the parser decides arithmetic from context, so emit punct and
		// let numbers be unsigned at the lexer level.
		l.pos++
		return l.tok(tokPunct, string(c), off), nil
	case c == '[':
		// ANON blank node "[]" (possibly with inner white space) vs '['.
		if end := rdf.SkipSpace(l.src, off+1); end < len(l.src) && l.src[end] == ']' {
			l.pos = end + 1
			return l.tok(tokAnon, "[]", off), nil
		}
		l.pos++
		return l.tok(tokPunct, "[", off), nil
	case strings.IndexByte("{}().;,*/|^!=>&", c) >= 0:
		return l.lexPunct(), nil
	case c == '_' && l.peekAt(1) == ':':
		l.pos = rdf.ScanLabel(l.src, off+2)
		return l.tok(tokPName, l.src[off:l.pos], off), nil
	}
	return l.lexWord()
}

func (l *lexer) lexPunct() token {
	off := l.pos
	c := l.src[off]
	l.pos++
	text := l.src[off:l.pos]
	var next byte
	switch c {
	case '!', '>':
		next = '='
	case '&':
		next = '&'
	case '|':
		next = '|'
	}
	if next != 0 && l.peek() == next {
		l.pos++
		text = l.src[off:l.pos]
	}
	return l.tok(tokPunct, text, off)
}

// lexWord scans a prefixed name or a bare word: keyword, boolean or
// builtin function name.
func (l *lexer) lexWord() (token, error) {
	start := l.pos
	prefix, local, end, err := rdf.ScanPName(l.src, start)
	if err != nil {
		return token{}, l.scanErr(err)
	}
	if end > start {
		l.pos = end
		text := l.src[start:end]
		if len(prefix)+1+len(local) != len(text) {
			// The local name had backslash escapes: the token carries it
			// unescaped, as expand reads it.
			text = prefix + ":" + local
		}
		return l.tok(tokPName, text, start), nil
	}
	l.pos = rdf.ScanPNChars(l.src, start)
	if l.pos == start {
		return token{}, l.errf("unexpected character %q", string(l.src[start]))
	}
	word := l.src[start:l.pos]
	// Boolean literals are matched case-insensitively: the paper's
	// Listing 1 spells "False".
	for _, b := range [2]string{"true", "false"} {
		if asciiFold(word, b) {
			return l.tok(tokBool, b, start), nil
		}
	}
	if kw, ok := keyword(word); ok {
		return l.tok(tokKeyword, kw, start), nil
	}
	// Builtin function names and anything else: keep verbatim; the parser
	// resolves them (case-insensitively for functions).
	return l.tok(tokPName, word, start), nil
}

// asciiFold reports whether word is lower (all lower-case ASCII) in any
// case.
func asciiFold(word, lower string) bool {
	if len(word) != len(lower) {
		return false
	}
	for i := 0; i < len(word); i++ {
		if word[i]|0x20 != lower[i] {
			return false
		}
	}
	return true
}

// keyword returns the keyword word spells in any case, upper-casing it
// in a stack buffer rather than a fresh string.
func keyword(word string) (string, bool) {
	var buf [16]byte
	if len(word) > len(buf) {
		return "", false
	}
	for i := 0; i < len(word); i++ {
		c := word[i]
		if c >= utf8.RuneSelf {
			kw, ok := keywords[strings.ToUpper(word)]
			return kw, ok
		}
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	kw, ok := keywords[string(buf[:len(word)])]
	return kw, ok
}

// Fingerprint encoding: every token the key keeps is its kind byte, its
// text's length as a uvarint and the text; a lifted constant is the one
// byte liftedKey|kind. Tokens are self-delimiting and the stream ends with
// the EOF token, so two token streams share a key exactly when they are
// equal up to lifted values. A pinned-parameter suffix starts with
// pinnedKey, a byte no token starts with.
const (
	liftedKey = 0x80
	pinnedKey = 0xff
)

// fingerprint scans src once and appends its shape key to key: the token
// stream with every lifted constant replaced by a placeholder. params is
// the lifted constants in text order. Whitespace, comments, keyword case
// and $/? variable sigils do not reach the key.
func fingerprint(src string, key []byte) ([]byte, []rdf.Term, error) {
	l := lexer{src: src}
	for {
		t, err := l.next()
		if err != nil {
			return nil, nil, err
		}
		if t.param >= 0 {
			key = append(key, liftedKey|byte(t.kind))
			continue
		}
		key = append(key, byte(t.kind))
		key = binary.AppendUvarint(key, uint64(len(t.text)))
		key = append(key, t.text...)
		if t.kind == tokEOF {
			return key, l.params, nil
		}
	}
}

// appendPinned extends a shape key with the values of its pinned
// parameters.
func appendPinned(key []byte, pinned []int, params []rdf.Term) []byte {
	key = append(key, pinnedKey)
	for _, i := range pinned {
		t := params[i]
		key = append(key, byte(t.Kind))
		for _, s := range [3]string{t.Value, t.Datatype, t.Lang} {
			key = binary.AppendUvarint(key, uint64(len(s)))
			key = append(key, s...)
		}
	}
	return key
}
