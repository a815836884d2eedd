package rdf

import (
	"bytes"
	"slices"
	"testing"
)

// TestCodecBytes pins the byte encoding the package comment states and
// decodes it back; every truncation of it fails.
func TestCodecBytes(t *testing.T) {
	ns := NewNamespaces()
	ns.Bind("z", "http://z/")
	ns.Bind("a", "http://a/")
	ns.SetBase("http://b/")
	tr := Triple{S: NewBlank("b"), P: NewIRI("p"), O: NewLangLiteral("é", "fr")}
	e := &Encoder{}
	e.Uvarint(300)
	e.Triple(tr)
	e.Namespaces(ns)
	want := []byte{
		0xac, 0x02, // 300
		2, 1, 'b', // blank node
		1, 1, 'p', // IRI
		3, 2, 0xc3, 0xa9, byte(len(RDFLangString)), // literal: value, datatype, lang
	}
	want = append(want, RDFLangString...)
	want = append(want, 2, 'f', 'r')
	want = append(want, 2, 1, 'a', 9, 'h', 't', 't', 'p', ':', '/', '/', 'a', '/',
		1, 'z', 9, 'h', 't', 't', 'p', ':', '/', '/', 'z', '/',
		9, 'h', 't', 't', 'p', ':', '/', '/', 'b', '/')
	if !bytes.Equal(e.Buf, want) {
		t.Fatalf("encoding\n got %v\nwant %v", e.Buf, want)
	}

	d := NewDecoder(e.Buf)
	got := NewNamespaces()
	v, back := d.Uvarint(), d.Triple()
	d.Namespaces(got)
	if err := d.Err(); err != nil || v != 300 || back != tr || len(d.Rest()) != 0 {
		t.Fatalf("decoded %d %v (%v, %d bytes left)", v, back, err, len(d.Rest()))
	}
	if !slices.Equal(got.Prefixes(), []string{"a", "z"}) || got.Base() != "http://b/" {
		t.Fatalf("prefix table %v base %q", got.Prefixes(), got.Base())
	}
	for cut := range len(e.Buf) {
		d := NewDecoder(e.Buf[:cut])
		d.Uvarint()
		d.Triple()
		d.Namespaces(NewNamespaces())
		if d.Err() == nil {
			t.Fatalf("truncation at %d of %d accepted", cut, len(e.Buf))
		}
	}
}

// TestDecoderRejects covers the failures a corrupt input must produce
// before any allocation it would size: a term kind outside the three, a
// string longer than the bytes left, and a count they cannot hold.
func TestDecoderRejects(t *testing.T) {
	for name, read := range map[string]func(*Decoder){
		"term kind":     func(d *Decoder) { d.Term() },
		"string length": func(d *Decoder) { d.Str() },
		"count":         func(d *Decoder) { d.Count(2, "pair") },
	} {
		// 4 is not a term kind; as a length or a count of pairs it
		// exceeds the three bytes that follow.
		d := NewDecoder([]byte{4, 'a', 'b', 'c'})
		read(d)
		if d.Err() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if d := NewDecoder([]byte{1, 'a'}); d.Count(1, "byte") != 1 || d.Err() != nil {
		t.Errorf("a count the input holds failed: %v", d.Err())
	}
}
