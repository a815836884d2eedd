package durable

import (
	"encoding/binary"
	"fmt"

	"repro/internal/rdf"
	"repro/internal/reasoner"
	"repro/internal/store"
)

// Byte-level encoding shared by the WAL record payloads and the snapshot
// file's closure section. Strings are uvarint-length-prefixed; terms are a
// kind byte plus their strings (literals add datatype and lang); triples
// are three terms.

type encoder struct {
	buf []byte
}

func (e *encoder) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encoder) byte(b byte)      { e.buf = append(e.buf, b) }
func (e *encoder) str(s string)     { e.uvarint(uint64(len(s))); e.buf = append(e.buf, s...) }
func (e *encoder) term(t rdf.Term) {
	e.byte(byte(t.Kind))
	e.str(t.Value)
	if t.Kind == rdf.KindLiteral {
		e.str(t.Datatype)
		e.str(t.Lang)
	}
}
func (e *encoder) triple(t rdf.Triple) {
	e.term(t.S)
	e.term(t.P)
	e.term(t.O)
}

type decoder struct {
	buf []byte
	err error
	// rules interns derivation rule names: a trace names a few dozen
	// rules hundreds of thousands of times.
	rules map[string]string
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail("durable: truncated uvarint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.buf) == 0 {
		d.fail("durable: truncated byte")
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

// raw reads a length-prefixed byte string without copying it.
func (d *decoder) raw() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)) {
		d.fail("durable: string length %d exceeds remaining %d bytes", n, len(d.buf))
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}

func (d *decoder) str() string { return string(d.raw()) }

// rule reads a rule name, allocating each distinct name once per decoder.
func (d *decoder) rule() string {
	b := d.raw()
	if s, ok := d.rules[string(b)]; ok {
		return s
	}
	s := string(b)
	if d.rules == nil {
		d.rules = make(map[string]string)
	}
	d.rules[s] = s
	return s
}

func (d *decoder) term() rdf.Term {
	kind := rdf.TermKind(d.byte())
	t := rdf.Term{Kind: kind}
	switch kind {
	case rdf.KindIRI, rdf.KindBlank:
		t.Value = d.str()
	case rdf.KindLiteral:
		t.Value = d.str()
		t.Datatype = d.str()
		t.Lang = d.str()
	default:
		d.fail("durable: invalid term kind %d", kind)
	}
	return t
}

func (d *decoder) triple() rdf.Triple {
	return rdf.Triple{S: d.term(), P: d.term(), O: d.term()}
}

// count reads a collection length bounded by what remains in the buffer
// (every element costs at least one byte), so corrupt counts fail instead
// of allocating unbounded slices.
func (d *decoder) count(perElem int, what string) int {
	v := d.uvarint()
	if d.err == nil && v > uint64(len(d.buf)/perElem) {
		d.fail("durable: %s count %d exceeds remaining payload", what, v)
	}
	if d.err != nil {
		return 0
	}
	return int(v)
}

// ---- record payload ----

const (
	recFlagCleared = 1 << 0
	// recFlagPrefixes marks a record that ends with the graph's whole
	// prefix table (sorted prefix/IRI pairs, then the base IRI). Records
	// without it decode as before the flag existed.
	recFlagPrefixes = 1 << 1
)

// appendRecord encodes rec as a WAL record payload.
func appendRecord(buf []byte, rec Record) []byte {
	e := &encoder{buf: buf}
	var flags byte
	if rec.Cleared {
		flags |= recFlagCleared
	}
	if rec.Namespaces != nil {
		flags |= recFlagPrefixes
	}
	e.byte(flags)
	e.uvarint(rec.EndVersion)
	e.uvarint(uint64(rec.TotalInferred))
	e.uvarint(uint64(len(rec.Ops)))
	for _, op := range rec.Ops {
		var kind byte
		if op.Remove {
			kind = 1
		}
		e.byte(kind)
		e.triple(op.T)
	}
	appendDerivations(e, rec.Derivations)
	if rec.Namespaces != nil {
		prefixes := rec.Namespaces.Prefixes() // sorted
		e.uvarint(uint64(len(prefixes)))
		for _, p := range prefixes {
			iri, _ := rec.Namespaces.IRIFor(p)
			e.str(p)
			e.str(iri)
		}
		e.str(rec.Namespaces.Base())
	}
	return e.buf
}

func parseRecord(payload []byte) (Record, error) {
	d := &decoder{buf: payload}
	var rec Record
	flags := d.byte()
	if flags&^(recFlagCleared|recFlagPrefixes) != 0 {
		d.fail("durable: unknown record flags %#x", flags)
	}
	rec.Cleared = flags&recFlagCleared != 0
	rec.EndVersion = d.uvarint()
	rec.TotalInferred = int(d.uvarint())
	nOps := d.count(4, "op")
	if d.err == nil && nOps > 0 {
		rec.Ops = make([]store.TermOp, nOps)
		for i := range rec.Ops {
			kind := d.byte()
			if d.err == nil && kind > 1 {
				d.fail("durable: unknown op kind %d", kind)
			}
			rec.Ops[i] = store.TermOp{Remove: kind == 1, T: d.triple()}
		}
	}
	rec.Derivations = parseDerivations(d)
	if flags&recFlagPrefixes != 0 {
		rec.Namespaces = rdf.NewNamespaces()
		n := d.count(2, "prefix")
		for i := 0; i < n && d.err == nil; i++ {
			prefix, iri := d.str(), d.str()
			rec.Namespaces.Bind(prefix, iri)
		}
		rec.Namespaces.SetBase(d.str())
	}
	if d.err == nil && len(d.buf) != 0 {
		d.fail("durable: %d trailing bytes after record", len(d.buf))
	}
	return rec, d.err
}

// ---- closure / derivations ----

func appendDerivations(e *encoder, ds []reasoner.TracedDerivation) {
	e.uvarint(uint64(len(ds)))
	for _, d := range ds {
		e.triple(d.Conclusion)
		e.str(d.Rule)
		e.uvarint(uint64(len(d.Premises)))
		for _, p := range d.Premises {
			e.triple(p)
		}
	}
}

func parseDerivations(d *decoder) []reasoner.TracedDerivation {
	n := d.count(4, "derivation")
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]reasoner.TracedDerivation, n)
	for i := range out {
		out[i].Conclusion = d.triple()
		out[i].Rule = d.rule()
		nPrem := d.count(4, "premise")
		if d.err != nil {
			return nil
		}
		if nPrem > 0 {
			out[i].Premises = make([]rdf.Triple, nPrem)
			for j := range out[i].Premises {
				out[i].Premises[j] = d.triple()
			}
		}
	}
	if d.err != nil {
		return nil
	}
	return out
}

// The snapshot file's closure section is written straight from the
// reasoner's ID-space trace, in the dictionary the snapshot's graph section
// already carries:
//
//	uvarint(TotalInferred) uvarint(n)
//	n × { ref ref ref  str(rule)  uvarint(k)  k × { ref ref ref } }
//
// where a term ref is uvarint(id+1), entries are in ascending conclusion ID
// order, and premises keep their recorded order. Neither side touches a
// term: the encoder copies IDs, the decoder range-checks them into chunked
// IDTriple arenas, and rule names are interned. (WAL records keep the
// self-describing term encoding above: their ops introduce terms the
// snapshot dictionary has never seen.) The reader also accepts a ref of 0
// followed by an inline term, which older encoders wrote for a term
// missing from the dictionary; it interns that term.

func (e *encoder) idTriple(t store.IDTriple) {
	e.uvarint(uint64(t.S) + 1)
	e.uvarint(uint64(t.P) + 1)
	e.uvarint(uint64(t.O) + 1)
}

func (d *decoder) idRef(g *store.Graph) store.ID {
	v := d.uvarint()
	if d.err != nil {
		return store.NoID
	}
	if v == 0 {
		t := d.term()
		if d.err != nil {
			return store.NoID
		}
		id := g.InternTerm(t)
		if id == store.NoID {
			d.fail("durable: invalid inline term %v", t)
		}
		return id
	}
	if n := g.Dict().Len(); v > uint64(n) {
		d.fail("durable: term reference %d out of dictionary range %d", v-1, n)
		return store.NoID
	}
	return store.ID(v - 1)
}

func (d *decoder) idTriple(g *store.Graph) store.IDTriple {
	return store.IDTriple{S: d.idRef(g), P: d.idRef(g), O: d.idRef(g)}
}

//feo:idspace
func appendClosure(buf []byte, st reasoner.ClosureState) []byte {
	e := &encoder{buf: buf}
	e.uvarint(uint64(st.TotalInferred))
	e.uvarint(uint64(len(st.Derivations)))
	for _, dv := range st.Derivations {
		e.idTriple(dv.Conclusion)
		e.str(dv.Rule)
		e.uvarint(uint64(len(dv.Premises)))
		for _, p := range dv.Premises {
			e.idTriple(p)
		}
	}
	return e.buf
}

//feo:idspace
func parseClosure(payload []byte, g *store.Graph) (reasoner.ClosureState, []byte, error) {
	d := &decoder{buf: payload}
	var st reasoner.ClosureState
	st.TotalInferred = int(d.uvarint())
	n := d.count(4, "derivation")
	if d.err == nil && n > 0 {
		// Premises are carved out of chunked arenas instead of one
		// slice per derivation: a large closure has tens of thousands
		// of tiny premise lists, and boot latency is dominated by
		// allocation pressure. Sealed-capacity subslices keep later
		// appends from aliasing earlier lists.
		const arenaChunk = 1 << 13
		var arena []store.IDTriple
		st.Derivations = make([]reasoner.IDDerivation, n)
		for i := range st.Derivations {
			st.Derivations[i].Conclusion = d.idTriple(g)
			st.Derivations[i].Rule = d.rule()
			nPrem := d.count(3, "premise")
			if d.err != nil {
				break
			}
			if nPrem == 0 {
				continue
			}
			if cap(arena)-len(arena) < nPrem {
				arena = make([]store.IDTriple, 0, max(arenaChunk, nPrem))
			}
			start := len(arena)
			for j := 0; j < nPrem; j++ {
				arena = append(arena, d.idTriple(g))
			}
			st.Derivations[i].Premises = arena[start:len(arena):len(arena)]
		}
	}
	if d.err != nil {
		return reasoner.ClosureState{}, nil, d.err
	}
	return st, d.buf, nil
}
