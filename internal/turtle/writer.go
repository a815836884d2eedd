package turtle

import (
	"bufio"
	"cmp"
	"io"
	"slices"
	"sort"
	"strings"

	"repro/internal/rdf"
	"repro/internal/store"
)

// Write serializes g as Turtle: prefix directives first, then triples
// grouped by subject with predicate-object lists, in deterministic sorted
// order so output is diffable and usable in golden tests. It is WriteIDs
// over g's own dictionary-encoded triples.
//
//feo:emit
func Write(w io.Writer, g *store.Graph) error {
	ts := make([]store.IDTriple, 0, g.Len())
	g.ForEachID(store.NoID, store.NoID, store.NoID, func(s, p, o store.ID) bool {
		ts = append(ts, store.IDTriple{S: s, P: p, O: o})
		return true
	})
	_, err := WriteIDs(w, g.Namespaces(), ts, g.TermOf, Limits{})
	return err
}

// Limits bounds one WriteIDs call. The zero value is unbounded.
type Limits struct {
	// MaxTriples caps the triples written (0 = unlimited): the document
	// keeps the first MaxTriples distinct triples in output order.
	MaxTriples int
	// MaxBytes caps the output (0 = unlimited). It is checked between
	// subject blocks, so the document may exceed it by one block plus the
	// truncation comment.
	MaxBytes int64
	// Expired, when non-nil, is polled between subject blocks; once it
	// reports true the document ends there.
	Expired func() bool
}

// Stats reports what one WriteIDs call wrote.
type Stats struct {
	// Triples is the number of distinct triples written.
	Triples int
	// Reason names an early stop — "rows", "bytes" or "deadline" — and is
	// empty when the document is complete. A truncated document ends with
	// a "# truncated: <reason>" comment line.
	Reason string
}

// bufSize is how much output WriteIDs accumulates before handing it to w
// in one write.
const bufSize = 64 << 10

// WriteIDs serializes a multiset of dictionary-encoded triples as Turtle,
// byte for byte what Write emits for the graph holding the same terms and
// namespaces. term decodes an ID of ts; it must be injective (one term per
// ID), as a dictionary is.
//
// Each distinct ID is decoded once, the distinct terms are sorted once
// with rdf.Compare, and the triples then sort as compact rank triples, so
// duplicates are equal neighbours and drop out; each distinct term is
// formatted once. Output is grouped by subject, then predicate, in
// rdf.Compare order, independent of the order of ts.
//
//feo:emit
func WriteIDs(w io.Writer, ns *rdf.Namespaces, ts []store.IDTriple, term func(store.ID) rdf.Term, lim Limits) (Stats, error) {
	var st Stats
	keys, terms := rankTriples(ts, term)
	if lim.MaxTriples > 0 && len(keys) > lim.MaxTriples {
		keys, st.Reason = keys[:lim.MaxTriples], "rows"
	}
	e := emitter{w: w, ns: ns, terms: terms, span: make([]termSpan, len(terms))}
	prefixes := ns.Prefixes()
	for _, prefix := range prefixes {
		iri, _ := ns.IRIFor(prefix)
		e.str("@prefix ")
		e.str(prefix)
		e.str(": <")
		e.str(iri)
		e.str("> .\n")
	}
	if len(prefixes) > 0 {
		e.str("\n")
	}
	for i := 0; i < len(keys); {
		if i > 0 && lim.MaxBytes > 0 && e.written() >= lim.MaxBytes {
			st.Reason = "bytes"
			break
		}
		if i > 0 && lim.Expired != nil && lim.Expired() {
			st.Reason = "deadline"
			break
		}
		j := i + 1
		for j < len(keys) && keys[j].s == keys[i].s {
			j++
		}
		e.subjectBlock(keys[i:j])
		st.Triples += j - i
		i = j
		if len(e.buf) >= bufSize {
			if err := e.flush(); err != nil {
				return st, err
			}
		}
	}
	if st.Reason != "" {
		e.str("# truncated: ")
		e.str(st.Reason)
		e.str("\n")
	}
	return st, e.flush()
}

// rankTriple is a triple of term ranks: positions in rdf.Compare order
// among the distinct terms of one WriteIDs call.
type rankTriple struct{ s, p, o uint32 }

// rankTriples maps ts to rank triples, sorted and without duplicates, and
// returns the distinct terms in rank order.
func rankTriples(ts []store.IDTriple, term func(store.ID) rdf.Term) ([]rankTriple, []rdf.Term) {
	local := make(map[store.ID]uint32)
	var ids []store.ID
	at := func(id store.ID) uint32 {
		if i, ok := local[id]; ok {
			return i
		}
		i := uint32(len(ids))
		local[id] = i
		ids = append(ids, id)
		return i
	}
	keys := make([]rankTriple, len(ts))
	for i, t := range ts {
		keys[i] = rankTriple{at(t.S), at(t.P), at(t.O)}
	}
	decoded := make([]rdf.Term, len(ids))
	order := make([]uint32, len(ids))
	for i, id := range ids {
		decoded[i], order[i] = term(id), uint32(i)
	}
	slices.SortFunc(order, func(a, b uint32) int { return rdf.Compare(decoded[a], decoded[b]) })
	rank := make([]uint32, len(ids))
	terms := make([]rdf.Term, len(ids))
	for r, i := range order {
		rank[i], terms[r] = uint32(r), decoded[i]
	}
	for i, k := range keys {
		keys[i] = rankTriple{rank[k.s], rank[k.p], rank[k.o]}
	}
	slices.SortFunc(keys, func(a, b rankTriple) int {
		if c := cmp.Compare(a.s, b.s); c != 0 {
			return c
		}
		if c := cmp.Compare(a.p, b.p); c != 0 {
			return c
		}
		return cmp.Compare(a.o, b.o)
	})
	return slices.Compact(keys), terms
}

// termSpan locates a formatted term in emitter.arena; end == 0 marks a
// term not formatted yet.
type termSpan struct{ start, end uint32 }

// emitter is WriteIDs' output state: a buffer flushed to w in bufSize
// writes, and an arena holding each distinct term's Turtle form, written
// the first time the term is emitted.
type emitter struct {
	w       io.Writer
	ns      *rdf.Namespaces
	terms   []rdf.Term
	span    []termSpan
	arena   []byte
	buf     []byte
	flushed int64
}

func (e *emitter) str(s string) { e.buf = append(e.buf, s...) }

func (e *emitter) written() int64 { return e.flushed + int64(len(e.buf)) }

func (e *emitter) flush() error {
	if len(e.buf) == 0 {
		return nil
	}
	_, err := e.w.Write(e.buf)
	e.flushed += int64(len(e.buf))
	e.buf = e.buf[:0]
	return err
}

// term appends the Turtle form of the term with rank r.
func (e *emitter) term(r uint32) {
	sp := e.span[r]
	if sp.end == 0 {
		sp.start = uint32(len(e.arena))
		e.arena = appendTerm(e.arena, e.terms[r], e.ns)
		sp.end = uint32(len(e.arena))
		e.span[r] = sp
	}
	e.buf = append(e.buf, e.arena[sp.start:sp.end]...)
}

// subjectBlock writes one subject's triples (sorted, one subject) as a
// predicate-object list statement.
func (e *emitter) subjectBlock(ks []rankTriple) {
	e.term(ks[0].s)
	e.buf = append(e.buf, ' ')
	for k, t := range ks {
		switch {
		case k == 0:
		case t.p != ks[k-1].p:
			e.str(" ;\n    ")
		default:
			e.str(", ")
			e.term(t.o)
			continue
		}
		if e.terms[t.p].Value == rdf.RDFType {
			e.buf = append(e.buf, 'a')
		} else {
			e.term(t.p)
		}
		e.buf = append(e.buf, ' ')
		e.term(t.o)
	}
	e.str(" .\n")
}

// appendTerm appends t's Turtle form: a prefixed name where one reads back
// verbatim, native tokens for integers, decimals and booleans whose
// lexical form the parser classifies back to the same datatype.
func appendTerm(dst []byte, t rdf.Term, ns *rdf.Namespaces) []byte {
	switch t.Kind {
	case rdf.KindIRI:
		return appendIRI(dst, t.Value, ns)
	case rdf.KindBlank:
		return append(append(dst, "_:"...), t.Value...)
	case rdf.KindLiteral:
		switch {
		case t.Lang != "":
			return append(append(rdf.AppendQuoted(dst, t.Value), '@'), t.Lang...)
		case t.Datatype == "" || t.Datatype == rdf.XSDString:
			return rdf.AppendQuoted(dst, t.Value)
		case (t.Datatype == rdf.XSDInteger || t.Datatype == rdf.XSDDecimal) && isNumberToken(t.Value, t.Datatype),
			t.Datatype == rdf.XSDBoolean && (t.Value == "true" || t.Value == "false"):
			// Native Turtle token forms — only when the lexical form is a
			// token the parser will classify back to the same datatype
			// (an xsd:integer with lexical form "abc" must stay quoted).
			return append(dst, t.Value...)
		default:
			return appendIRI(append(rdf.AppendQuoted(dst, t.Value), "^^"...), t.Datatype, ns)
		}
	default:
		return append(dst, t.String()...)
	}
}

// appendIRI shrinks an IRI to a prefixed name only when the local part is
// a plain PN_CHARS run the parser reads back verbatim; anything fancier
// (dots, percent escapes, punctuation) stays an absolute IRI reference.
func appendIRI(dst []byte, iri string, ns *rdf.Namespaces) []byte {
	if q, ok := ns.Shrink(iri); ok && safeQName(q) {
		return append(dst, q...)
	}
	return append(append(append(dst, '<'), iri...), '>')
}

func safeQName(q string) bool {
	i := strings.IndexByte(q, ':')
	return i >= 0 && rdf.ScanPNChars(q, i+1) == len(q)
}

// isNumberToken reports whether lex, optionally signed, reads back as a
// number of datatype dt. A decimal without a digit before its '.' stays
// quoted.
func isNumberToken(lex, dt string) bool {
	if lex != "" && (lex[0] == '+' || lex[0] == '-') {
		lex = lex[1:]
	}
	_, got, end := rdf.ScanNumber(lex, 0)
	return end > 0 && end == len(lex) && got == dt && lex[0] != '.'
}

// WriteNTriples serializes g in canonical N-Triples: one triple per line,
// absolute IRIs, sorted order.
//
//feo:emit
func WriteNTriples(w io.Writer, g *store.Graph) error {
	bw := bufio.NewWriter(w)
	ts := g.Triples()
	sort.Slice(ts, func(i, j int) bool { return ts[i].String() < ts[j].String() })
	for _, t := range ts {
		if _, err := bw.WriteString(t.String() + "\n"); err != nil {
			return err
		}
	}
	return bw.Flush()
}
