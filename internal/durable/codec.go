package durable

import (
	"fmt"

	"repro/internal/rdf"
	"repro/internal/reasoner"
	"repro/internal/store"
)

// WAL record payloads and the snapshot file's closure section are built
// on the byte encoding of package rdf (uvarints, strings, terms, triples
// and prefix tables; see its package comment). The decoder adds what only
// this package needs: rule-name interning and the closure section's term
// references.

type decoder struct {
	*rdf.Decoder
	// rules interns derivation rule names: a trace names a few dozen
	// rules hundreds of thousands of times.
	rules map[string]string
}

func newDecoder(buf []byte) *decoder { return &decoder{Decoder: rdf.NewDecoder(buf)} }

// err returns the first decode failure, marked as this package's.
func (d *decoder) err() error {
	if err := d.Err(); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	return nil
}

// rule reads a rule name, allocating each distinct name once per decoder.
func (d *decoder) rule() string {
	b := d.Bytes()
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

// ---- record payload ----

const (
	recFlagCleared = 1 << 0
	// recFlagPrefixes marks a record that ends with the graph's whole
	// prefix table (sorted prefix/IRI pairs, then the base IRI). Records
	// without it decode as before the flag existed.
	recFlagPrefixes = 1 << 1
)

// appendRecord encodes rec as a WAL record payload:
//
//	flags uvarint(EndVersion) uvarint(TotalInferred)
//	uvarint(n) n × { op kind (0 add, 1 remove) triple }
//	derivations [prefixes, when flags has recFlagPrefixes]
//
//	derivations  uvarint(n) n × { triple str(rule) uvarint(k) k × triple }
func appendRecord(buf []byte, rec Record) []byte {
	e := &rdf.Encoder{Buf: buf}
	var flags byte
	if rec.Cleared {
		flags |= recFlagCleared
	}
	if rec.Namespaces != nil {
		flags |= recFlagPrefixes
	}
	e.Byte(flags)
	e.Uvarint(rec.EndVersion)
	e.Uvarint(uint64(rec.TotalInferred))
	e.Uvarint(uint64(len(rec.Ops)))
	for _, op := range rec.Ops {
		var kind byte
		if op.Remove {
			kind = 1
		}
		e.Byte(kind)
		e.Triple(op.T)
	}
	e.Uvarint(uint64(len(rec.Derivations)))
	for _, dv := range rec.Derivations {
		e.Triple(dv.Conclusion)
		e.Str(dv.Rule)
		e.Uvarint(uint64(len(dv.Premises)))
		for _, p := range dv.Premises {
			e.Triple(p)
		}
	}
	if rec.Namespaces != nil {
		e.Namespaces(rec.Namespaces)
	}
	return e.Buf
}

func parseRecord(payload []byte) (Record, error) {
	d := newDecoder(payload)
	var rec Record
	flags := d.Byte()
	if flags&^(recFlagCleared|recFlagPrefixes) != 0 {
		d.Fail("unknown record flags %#x", flags)
	}
	rec.Cleared = flags&recFlagCleared != 0
	rec.EndVersion = d.Uvarint()
	rec.TotalInferred = int(d.Uvarint())
	if nOps := d.Count(4, "op"); nOps > 0 {
		rec.Ops = make([]store.TermOp, nOps)
		for i := range rec.Ops {
			kind := d.Byte()
			if kind > 1 {
				d.Fail("unknown op kind %d", kind)
			}
			rec.Ops[i] = store.TermOp{Remove: kind == 1, T: d.Triple()}
		}
	}
	rec.Derivations = parseDerivations(d)
	if flags&recFlagPrefixes != 0 {
		rec.Namespaces = rdf.NewNamespaces()
		d.Namespaces(rec.Namespaces)
	}
	if rest := len(d.Rest()); rest != 0 {
		d.Fail("%d trailing bytes after record", rest)
	}
	return rec, d.err()
}

func parseDerivations(d *decoder) []reasoner.TracedDerivation {
	n := d.Count(4, "derivation")
	if n == 0 {
		return nil
	}
	out := make([]reasoner.TracedDerivation, n)
	for i := range out {
		out[i].Conclusion = d.Triple()
		out[i].Rule = d.rule()
		if nPrem := d.Count(4, "premise"); nPrem > 0 {
			out[i].Premises = make([]rdf.Triple, nPrem)
			for j := range out[i].Premises {
				out[i].Premises[j] = d.Triple()
			}
		}
	}
	if d.Err() != nil {
		return nil
	}
	return out
}

// ---- closure section ----

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
// self-describing term encoding: their ops introduce terms the snapshot
// dictionary has never seen.) The reader also accepts a ref of 0 followed
// by an inline term, which older encoders wrote for a term missing from
// the dictionary; it interns that term.

func appendIDTriple(e *rdf.Encoder, t store.IDTriple) {
	e.Uvarint(uint64(t.S) + 1)
	e.Uvarint(uint64(t.P) + 1)
	e.Uvarint(uint64(t.O) + 1)
}

func (d *decoder) idRef(g *store.Graph) store.ID {
	v := d.Uvarint()
	if d.Err() != nil {
		return store.NoID
	}
	if v == 0 {
		t := d.Term()
		if d.Err() != nil {
			return store.NoID
		}
		id := g.InternTerm(t)
		if id == store.NoID {
			d.Fail("invalid inline term %v", t)
		}
		return id
	}
	if n := g.Dict().Len(); v > uint64(n) {
		d.Fail("term reference %d out of dictionary range %d", v-1, n)
		return store.NoID
	}
	return store.ID(v - 1)
}

func (d *decoder) idTriple(g *store.Graph) store.IDTriple {
	return store.IDTriple{S: d.idRef(g), P: d.idRef(g), O: d.idRef(g)}
}

//feo:idspace
func appendClosure(buf []byte, st reasoner.ClosureState) []byte {
	e := &rdf.Encoder{Buf: buf}
	e.Uvarint(uint64(st.TotalInferred))
	e.Uvarint(uint64(len(st.Derivations)))
	for _, dv := range st.Derivations {
		appendIDTriple(e, dv.Conclusion)
		e.Str(dv.Rule)
		e.Uvarint(uint64(len(dv.Premises)))
		for _, p := range dv.Premises {
			appendIDTriple(e, p)
		}
	}
	return e.Buf
}

//feo:idspace
func parseClosure(payload []byte, g *store.Graph) (reasoner.ClosureState, []byte, error) {
	d := newDecoder(payload)
	var st reasoner.ClosureState
	st.TotalInferred = int(d.Uvarint())
	if n := d.Count(4, "derivation"); n > 0 {
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
			nPrem := d.Count(3, "premise")
			if d.Err() != nil {
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
	if err := d.err(); err != nil {
		return reasoner.ClosureState{}, nil, err
	}
	return st, d.Rest(), nil
}
