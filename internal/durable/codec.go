package durable

import (
	"fmt"
	"slices"

	"repro/internal/rdf"
	"repro/internal/reasoner"
	"repro/internal/store"
)

// WAL record payloads and the snapshot file's closure section are built
// on the byte encoding of package rdf (uvarints, strings, terms, triples
// and prefix tables; see its package comment). The closure decoder adds
// what only this package needs: the section's term references and
// rule-name interning.

// decodeErr returns d's first decode failure, marked as this package's.
func decodeErr(d *rdf.Decoder) error {
	if err := d.Err(); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	return nil
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
	d := rdf.NewDecoder(payload)
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
	return rec, decodeErr(d)
}

func parseDerivations(d *rdf.Decoder) []reasoner.TracedDerivation {
	n := d.Count(4, "derivation")
	if n == 0 {
		return nil
	}
	out := make([]reasoner.TracedDerivation, n)
	for i := range out {
		out[i].Conclusion = d.Triple()
		out[i].Rule = d.Str()
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
// term: the encoder copies IDs, and the decoder range-checks them straight
// into the reasoner's trace form — one entries slice, one premise arena
// allocated at its exact size, rule names interned to indexes — which
// RestoreClosure adopts as its sorted run. An entry whose conclusion does
// not sort after the last one goes to ClosureState.Later instead, so any
// order still decodes with a later entry for a conclusion winning. (WAL
// records keep the self-describing term encoding: their ops introduce
// terms the snapshot dictionary has never seen.) The reader also accepts
// a ref of 0 followed by an inline term, which older encoders wrote for a
// term missing from the dictionary; it interns that term.
//
// The range check needs only the dictionary's size, which the graph
// section's header states, so the snapshot reader decodes this section
// while the graph section is still decoding; only an inline term waits
// for the graph.

func appendIDTriple(e *rdf.Encoder, t store.IDTriple) {
	e.Uvarint(uint64(t.S) + 1)
	e.Uvarint(uint64(t.P) + 1)
	e.Uvarint(uint64(t.O) + 1)
}

//feo:idspace
func appendClosure(buf []byte, st reasoner.ClosureState) []byte {
	e := &rdf.Encoder{Buf: buf}
	e.Uvarint(uint64(st.TotalInferred))
	e.Uvarint(uint64(len(st.Run) + len(st.Later)))
	for _, ds := range [2][]reasoner.IDDerivation{st.Run, st.Later} {
		for _, dv := range ds {
			appendIDTriple(e, dv.Conclusion)
			e.Str(st.Rules[dv.Rule])
			e.Uvarint(uint64(dv.N))
			for _, p := range st.PremisesOf(dv) {
				appendIDTriple(e, p)
			}
		}
	}
	return e.Buf
}

// closureDecoder reads the closure section. A term ref is bounded by
// terms, the dictionary size of the graph that graph returns once that
// graph has decoded (or its decode's error). Only an inline term needs
// the graph, and it moves the bound.
type closureDecoder struct {
	*rdf.Decoder
	terms uint64
	graph func() (*store.Graph, error)
}

func (d *closureDecoder) idRef() store.ID {
	v := d.Uvarint()
	if d.Err() != nil {
		return store.NoID
	}
	if v == 0 {
		g, err := d.graph()
		if err != nil {
			d.Fail("%w", err)
			return store.NoID
		}
		t := d.Term()
		if d.Err() != nil {
			return store.NoID
		}
		id := g.InternTerm(t)
		if id == store.NoID {
			d.Fail("invalid inline term %v", t)
		}
		d.terms = uint64(g.Dict().Len())
		return id
	}
	if v > d.terms {
		d.Fail("term reference %d out of dictionary range %d", v-1, d.terms)
		return store.NoID
	}
	return store.ID(v - 1)
}

// uvarintAt decodes a one- or two-byte uvarint at b[i:] and returns it
// with the index after it, or j < 0 for anything else: a longer, overlong
// or truncated one. Nearly all of a section's uvarints are this short.
func uvarintAt(b []byte, i int) (v uint64, j int) {
	if i < len(b) && b[i] < 0x80 {
		return uint64(b[i]), i + 1
	}
	if i+1 < len(b) && b[i+1] < 0x80 {
		return uint64(b[i]&0x7f) | uint64(b[i+1])<<7, i + 2
	}
	return 0, -1
}

// idTriple reads three term refs, the decoder's hot path: a one- or
// two-byte ref to a dictionary ID is decoded in place at a local index,
// and any other ref (longer, 0 — which wraps past every bound — or out of
// range) goes through idRef. After a failure the reads return garbage
// and consume nothing; the caller checks Err once per entry.
func (d *closureDecoder) idTriple() store.IDTriple {
	b, i := d.Rest(), 0
	var ids [3]store.ID
	for k := range ids {
		if v, j := uvarintAt(b, i); j >= 0 && v-1 < d.terms {
			ids[k], i = store.ID(v-1), j
			continue
		}
		d.Next(i)
		ids[k] = d.idRef()
		b, i = d.Rest(), 0
	}
	d.Next(i)
	return store.IDTriple{S: ids[0], P: ids[1], O: ids[2]}
}

// rule reads a rule name and returns its index in rules, appending the
// name when it is new. A trace names a few dozen rules hundreds of
// thousands of times, so the previous entry's rule is tried first and
// each distinct name is allocated once.
func (d *closureDecoder) rule(rules *[]string, last uint32) uint32 {
	name := d.Bytes()
	if int(last) < len(*rules) && (*rules)[last] == string(name) {
		return last
	}
	i := slices.Index(*rules, string(name))
	if i < 0 {
		i = len(*rules)
		*rules = append(*rules, string(name))
	}
	return uint32(i)
}

// parseClosure decodes a closure section against g's dictionary, which
// an inline term extends, and returns the bytes after it: decodeClosure
// over a graph that is already decoded.
//
//feo:idspace
func parseClosure(payload []byte, g *store.Graph) (reasoner.ClosureState, []byte, error) {
	return decodeClosure(payload, uint64(g.Dict().Len()), func() (*store.Graph, error) { return g, nil })
}

// decodeClosure decodes a closure section whose term refs are bounded by
// terms, the dictionary size of the graph graph returns, and returns the
// bytes after it. Only an inline term calls graph, so the snapshot reader
// runs it while the graph section is still decoding.
//
//feo:idspace
func decodeClosure(payload []byte, terms uint64, graph func() (*store.Graph, error)) (reasoner.ClosureState, []byte, error) {
	d := &closureDecoder{Decoder: rdf.NewDecoder(payload), terms: terms, graph: graph}
	var st reasoner.ClosureState
	st.TotalInferred = int(d.Uvarint())
	if n := d.Count(4, "derivation"); n > 0 {
		st.Run = make([]reasoner.IDDerivation, 0, n)
		// Premises are decoded into fixed-size chunks and concatenated
		// once into an arena of the decoded total: a growing slice would
		// copy several times and over-allocate, and the arena lives as
		// long as the trace.
		var full [][]store.IDTriple
		var chunk []store.IDTriple
		var rule uint32
		off := 0
		for range n {
			concl := d.idTriple()
			rule = d.rule(&st.Rules, rule)
			k := d.Count(3, "premise")
			if d.Err() != nil {
				break
			}
			for range k {
				if len(chunk) == cap(chunk) {
					full = append(full, chunk)
					chunk = make([]store.IDTriple, 0, 1<<13)
				}
				chunk = append(chunk, d.idTriple())
			}
			st.Append(concl, rule, off, k)
			off += k
		}
		st.Premises = slices.Concat(append(full, chunk)...)
	}
	if err := decodeErr(d.Decoder); err != nil {
		return reasoner.ClosureState{}, nil, err
	}
	return st, d.Rest(), nil
}
