package rdf

import (
	"encoding/binary"
	"fmt"
)

// Encoder appends the binary encoding described in the package comment
// to Buf. It cannot fail.
type Encoder struct {
	Buf []byte
}

// Uvarint appends v as a uvarint.
func (e *Encoder) Uvarint(v uint64) { e.Buf = binary.AppendUvarint(e.Buf, v) }

// Byte appends b.
func (e *Encoder) Byte(b byte) { e.Buf = append(e.Buf, b) }

// Str appends s as uvarint(len) followed by its bytes.
func (e *Encoder) Str(s string) {
	e.Uvarint(uint64(len(s)))
	e.Buf = append(e.Buf, s...)
}

// Term appends t: its kind byte, its value, and for a literal its
// datatype and language tag.
func (e *Encoder) Term(t Term) {
	e.Byte(byte(t.Kind))
	e.Str(t.Value)
	if t.Kind == KindLiteral {
		e.Str(t.Datatype)
		e.Str(t.Lang)
	}
}

// Triple appends the three terms of t.
func (e *Encoder) Triple(t Triple) {
	e.Term(t.S)
	e.Term(t.P)
	e.Term(t.O)
}

// Namespaces appends the prefix table of ns: the count of bindings, each
// prefix and IRI in prefix order, then the base IRI. A nil ns appends
// the empty table.
func (e *Encoder) Namespaces(ns *Namespaces) {
	prefixes := ns.Prefixes() // sorted
	e.Uvarint(uint64(len(prefixes)))
	for _, p := range prefixes {
		iri, _ := ns.IRIFor(p)
		e.Str(p)
		e.Str(iri)
	}
	e.Str(ns.Base())
}

// Decoder reads the binary encoding described in the package comment
// from a byte slice. The first failure is kept; every later read returns
// a zero value, so a caller reads a whole structure and checks Err once.
// Decoded strings are copies: nothing a Decoder returns from Str, Term or
// Triple keeps the input alive.
type Decoder struct {
	buf []byte
	err error
}

// NewDecoder returns a Decoder over buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Err returns the first failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Fail records a failure unless one is already recorded.
func (d *Decoder) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// Rest returns the unread bytes.
func (d *Decoder) Rest() []byte { return d.buf }

// Uvarint reads a uvarint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.Fail("truncated uvarint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// Byte reads one byte.
func (d *Decoder) Byte() byte {
	if b := d.Next(1); b != nil {
		return b[0]
	}
	return 0
}

// Next reads the next n bytes. The result aliases the input.
func (d *Decoder) Next(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n > len(d.buf) {
		d.Fail("%d bytes needed, %d left", n, len(d.buf))
		return nil
	}
	b := d.buf[:n:n]
	d.buf = d.buf[n:]
	return b
}

// Bytes reads a length-prefixed byte string. The result aliases the
// input; Str is the copying form.
func (d *Decoder) Bytes() []byte {
	n := d.Uvarint()
	if d.err == nil && n > uint64(len(d.buf)) {
		d.Fail("string length %d exceeds the %d bytes left", n, len(d.buf))
	}
	return d.Next(int(n))
}

// Str reads a length-prefixed string.
func (d *Decoder) Str() string { return string(d.Bytes()) }

// Term reads a term. A kind byte other than IRI, blank node or literal
// is a failure.
func (d *Decoder) Term() Term {
	t := Term{Kind: TermKind(d.Byte())}
	switch t.Kind {
	case KindIRI, KindBlank:
		t.Value = d.Str()
	case KindLiteral:
		t.Value = d.Str()
		t.Datatype = d.Str()
		t.Lang = d.Str()
	default:
		d.Fail("invalid term kind %d", t.Kind)
	}
	return t
}

// Triple reads three terms.
func (d *Decoder) Triple() Triple { return Triple{S: d.Term(), P: d.Term(), O: d.Term()} }

// Count reads the length of a collection whose elements take at least
// min bytes each, and fails when the bytes left cannot hold that many:
// a corrupt count fails here instead of sizing an allocation.
func (d *Decoder) Count(min int, what string) int {
	v := d.Uvarint()
	if d.err == nil && v > uint64(len(d.buf)/min) {
		d.Fail("%s count %d exceeds the %d bytes left", what, v, len(d.buf))
	}
	if d.err != nil {
		return 0
	}
	return int(v)
}

// Namespaces reads a prefix table and binds it into ns.
func (d *Decoder) Namespaces(ns *Namespaces) {
	n := d.Count(2, "prefix")
	for i := 0; i < n && d.err == nil; i++ {
		prefix, iri := d.Str(), d.Str()
		if d.err == nil {
			ns.Bind(prefix, iri)
		}
	}
	if base := d.Str(); d.err == nil {
		ns.SetBase(base)
	}
}
