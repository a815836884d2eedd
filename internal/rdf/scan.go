package rdf

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

// The term syntax Turtle documents and SPARQL queries share: whitespace
// and comments, IRIREF, quoted strings, numbers, language tags and
// prefixed names. Each scanner is a stateless function of (src, i) that
// returns what it read and the offset just past it, so the Turtle parser
// and the SPARQL lexer read every term the same way. A returned value is
// a substring of src unless decoding an escape changed it; a caller that
// stores it past src's lifetime copies it.

// SyntaxError is a term syntax error at byte offset Off of the scanned
// source. The parsers report it in their own error types, positioned
// with LineCol.
type SyntaxError struct {
	Off int
	Msg string
}

func (e *SyntaxError) Error() string { return fmt.Sprintf("rdf: offset %d: %s", e.Off, e.Msg) }

func syntaxErr(off int, format string, args ...any) error {
	return &SyntaxError{Off: off, Msg: fmt.Sprintf(format, args...)}
}

// LineCol returns the line and the byte column, both counted from 1, of
// offset off in src.
func LineCol(src string, off int) (line, col int) {
	return 1 + strings.Count(src[:off], "\n"), off - strings.LastIndexByte(src[:off], '\n')
}

// SkipSpace returns the offset of the first byte at or after i that is
// neither white space (space, tab, CR, LF) nor part of a '#' comment.
func SkipSpace(src string, i int) int {
	for i < len(src) {
		switch src[i] {
		case ' ', '\t', '\r', '\n':
			i++
		case '#':
			n := strings.IndexByte(src[i:], '\n')
			if n < 0 {
				return len(src)
			}
			i += n
		default:
			return i
		}
	}
	return i
}

// iriExcluded marks the ASCII characters IRIREF excludes: controls,
// space and <>"{}|^`\.
var iriExcluded = func() (t [utf8.RuneSelf]bool) {
	for c := 0; c <= ' '; c++ {
		t[c] = true
	}
	for _, c := range "<>\"{}|^`\\" {
		t[c] = true
	}
	return t
}()

// ScanIRIRef scans the IRIREF at src[i] == '<' and returns the IRI
// between the brackets with its \u and \U escapes decoded, and the offset
// after the '>'. No IRI it returns holds a character IRIREF excludes,
// raw or decoded. When a raw excluded byte or the end of src comes before
// the '>', end is i: no IRIREF starts here (SPARQL reads '<' as an
// operator then).
func ScanIRIRef(src string, i int) (iri string, end int, err error) {
	var buf []byte // the decoded IRI, once an escape appears
	run := i + 1   // start of the raw bytes not yet in buf
	for j := i + 1; j < len(src); {
		c := src[j]
		switch {
		case c == '>':
			if buf == nil {
				return src[run:j], j + 1, nil
			}
			return string(append(buf, src[run:j]...)), j + 1, nil
		case c == '\\':
			r, next, err := scanUChar(src, j)
			if err != nil {
				return "", next, err
			}
			if r < utf8.RuneSelf && iriExcluded[r] {
				return "", next, syntaxErr(j, "escape %s encodes %q, which IRIs exclude", src[j:next], r)
			}
			buf = utf8.AppendRune(append(buf, src[run:j]...), r)
			j, run = next, next
		case c < utf8.RuneSelf && iriExcluded[c]:
			return "", i, syntaxErr(j, "character %q in IRI", c)
		default:
			j++
		}
	}
	return "", i, syntaxErr(len(src), "unterminated IRI")
}

// ScanString scans the quoted string at src[i], short (one quote, " or ')
// or long (three of either), and returns its value with ECHAR and UCHAR
// escapes decoded, and the offset after the closing quote.
func ScanString(src string, i int) (s string, end int, err error) {
	q := src[i]
	j := i + 1
	long := j+1 < len(src) && src[j] == q && src[j+1] == q
	if long {
		j += 2
	}
	var buf []byte // the decoded value, once an escape appears
	run := j       // start of the raw bytes not yet in buf
	for j < len(src) {
		switch c := src[j]; {
		case c == q && (!long || j+2 < len(src) && src[j+1] == q && src[j+2] == q):
			end = j + 1
			if long {
				end = j + 3
			}
			if buf == nil {
				return src[run:j], end, nil
			}
			return string(append(buf, src[run:j]...)), end, nil
		case c == '\\':
			r, next, err := scanEscape(src, j)
			if err != nil {
				return "", next, err
			}
			buf = utf8.AppendRune(append(buf, src[run:j]...), r)
			j, run = next, next
		case !long && (c == '\n' || c == '\r'):
			return "", j, syntaxErr(j, "newline in short string")
		default:
			j++
		}
	}
	return "", j, syntaxErr(len(src), "unterminated string")
}

// scanEscape decodes the ECHAR (\t \b \n \r \f \" \' \\) or UCHAR at
// src[i] == '\\' and returns the rune and the offset after the escape.
func scanEscape(src string, i int) (rune, int, error) {
	const from, to = `tbnrf"'\`, "\t\b\n\r\f\"'\\"
	if i+1 < len(src) {
		if k := strings.IndexByte(from, src[i+1]); k >= 0 {
			return rune(to[k]), i + 2, nil
		}
	}
	return scanUChar(src, i)
}

// scanUChar decodes the UCHAR (\uXXXX or \UXXXXXXXX) at src[i] == '\\'
// and returns the rune and the offset after the escape. A value that is
// not a Unicode scalar value (a surrogate, or above U+10FFFF) is an
// error.
func scanUChar(src string, i int) (rune, int, error) {
	if i+1 >= len(src) {
		return 0, len(src), syntaxErr(len(src), "unterminated escape")
	}
	var n int
	switch src[i+1] {
	case 'u':
		n = 4
	case 'U':
		n = 8
	default:
		return 0, i + 2, syntaxErr(i, "invalid escape \\%c", src[i+1])
	}
	end := min(i+2+n, len(src))
	v, err := readHex(src, i+2, n)
	if err != nil {
		return 0, end, err
	}
	if v > utf8.MaxRune || 0xD800 <= v && v <= 0xDFFF {
		return 0, end, syntaxErr(i, "escape %s is not a Unicode scalar value", src[i:end])
	}
	return rune(v), end, nil
}

// readHex reads the n (at most 8) hex digits at src[i:] as a number.
func readHex(src string, i, n int) (uint32, error) {
	var v uint32
	for j := i; j < i+n; j++ {
		if j >= len(src) {
			return 0, syntaxErr(j, "unterminated hex escape")
		}
		c := src[j]
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, syntaxErr(j, "invalid hex digit %q", c)
		}
		v = v<<4 | uint32(c)
	}
	return v, nil
}

// ScanNumber scans the unsigned INTEGER, DECIMAL or DOUBLE at src[i:] and
// returns its lexical form and XSD datatype. end is i when no number
// starts at i. An exponent marker without digits is not part of the
// number: "1e" scans as the integer 1.
func ScanNumber(src string, i int) (lex, datatype string, end int) {
	j := digits(src, i)
	datatype = XSDInteger
	if j < len(src) && src[j] == '.' {
		if k := digits(src, j+1); k > j+1 {
			j, datatype = k, XSDDecimal
		} else if e := exponent(src, j+1); j > i && e > j+1 {
			return src[i:e], XSDDouble, e // "1.e5"
		}
	}
	if j == i {
		return "", "", i
	}
	if e := exponent(src, j); e > j {
		return src[i:e], XSDDouble, e
	}
	return src[i:j], datatype, j
}

func digits(src string, i int) int {
	for i < len(src) && '0' <= src[i] && src[i] <= '9' {
		i++
	}
	return i
}

// exponent returns the end of the EXPONENT at src[i:], or i if there is
// none.
func exponent(src string, i int) int {
	if i >= len(src) || src[i]|0x20 != 'e' {
		return i
	}
	j := i + 1
	if j < len(src) && (src[j] == '+' || src[j] == '-') {
		j++
	}
	if k := digits(src, j); k > j {
		return k
	}
	return i
}

// ScanLangTag scans the LANGTAG at src[i] == '@' — letters, then
// '-'-separated runs of letters and digits — and returns the tag without
// the '@'.
func ScanLangTag(src string, i int) (tag string, end int, err error) {
	j := i + 1
	for j < len(src) && isLetter(src[j]) {
		j++
	}
	if j == i+1 {
		return "", j, syntaxErr(j, "empty language tag")
	}
	for j+1 < len(src) && src[j] == '-' && isAlnum(src[j+1]) {
		j += 2
		for j < len(src) && isAlnum(src[j]) {
			j++
		}
	}
	return src[i+1 : j], j, nil
}

func isLetter(c byte) bool { return 'a' <= c|0x20 && c|0x20 <= 'z' }

func isAlnum(c byte) bool { return isLetter(c) || '0' <= c && c <= '9' }

// isPNChar reports whether c belongs to a PN_CHARS run: ASCII letters,
// digits, '_' and '-', and every byte of a non-ASCII character (the
// scanners take all of Unicode above U+007F where the grammar lists
// ranges).
func isPNChar(c byte) bool {
	return isAlnum(c) || c == '_' || c == '-' || c >= utf8.RuneSelf
}

// ScanPNChars returns the end of the PN_CHARS run at src[i:].
func ScanPNChars(src string, i int) int {
	for i < len(src) && isPNChar(src[i]) {
		i++
	}
	return i
}

// ScanVarName returns the end of the VARNAME at src[i:]: a PN_CHARS run
// without '-', which SPARQL reads as minus after a variable.
func ScanVarName(src string, i int) int {
	for i < len(src) && src[i] != '-' && isPNChar(src[i]) {
		i++
	}
	return i
}

// ScanLabel returns the end of the PN_CHARS run at src[i:] that may hold
// '.' between name bytes: a PN_PREFIX or the label of a blank node.
func ScanLabel(src string, i int) int {
	start := i
	for i < len(src) {
		switch {
		case isPNChar(src[i]):
			i++
		case src[i] == '.' && i > start:
			j := skipDots(src, i, isPNChar)
			if j == i {
				return i
			}
			i = j
		default:
			return i
		}
	}
	return i
}

// skipDots returns the end of the run of '.' at src[i:] when next
// accepts the byte after it, and i otherwise: a name may hold dots but
// not end with one.
func skipDots(src string, i int, next func(byte) bool) int {
	j := i
	for j < len(src) && src[j] == '.' {
		j++
	}
	if j < len(src) && next(src[j]) {
		return j
	}
	return i
}

// ScanPName scans the prefixed name at src[i:] — an optional PN_PREFIX,
// ':' and an optional PN_LOCAL — and returns the prefix and the local
// name with its backslash escapes removed (percent escapes stay as
// written). end is i when no prefixed name starts at i.
func ScanPName(src string, i int) (prefix, local string, end int, err error) {
	p := ScanLabel(src, i)
	if p >= len(src) || src[p] != ':' {
		return "", "", i, nil
	}
	local, end, err = scanLocal(src, p+1)
	return src[i:p], local, end, err
}

// localEscapes are the characters PN_LOCAL_ESC may escape.
const localEscapes = "_~.-!$&'()*+,;=/?#@%"

// startsLocal reports whether c may start a PN_LOCAL character: a
// PN_CHARS byte, ':', or a percent or backslash escape.
func startsLocal(c byte) bool { return isPNChar(c) || c == ':' || c == '%' || c == '\\' }

// scanLocal scans the PN_LOCAL at src[i:], possibly empty.
func scanLocal(src string, i int) (string, int, error) {
	var buf []byte // the unescaped name, once a backslash appears
	run := i       // start of the raw bytes not yet in buf
	j := i
	for j < len(src) {
		switch c := src[j]; {
		case isPNChar(c) || c == ':':
			j++
			continue
		case c == '%':
			if _, err := readHex(src, j+1, 2); err != nil {
				return "", j, syntaxErr(j, "'%%' in a local name needs two hex digits")
			}
			j += 3
			continue
		case c == '\\':
			if j+1 >= len(src) || strings.IndexByte(localEscapes, src[j+1]) < 0 {
				return "", j, syntaxErr(j, "invalid escape in local name")
			}
			buf = append(append(buf, src[run:j]...), src[j+1])
			j += 2
			run = j
			continue
		case c == '.' && j > i:
			if k := skipDots(src, j, startsLocal); k > j {
				j = k
				continue
			}
		}
		break
	}
	if buf == nil {
		return src[run:j], j, nil
	}
	return string(append(buf, src[run:j]...)), j, nil
}
