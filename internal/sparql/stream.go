package sparql

import (
	"errors"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode"
	"unicode/utf8"

	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/turtle"
)

// This file is the streaming half of the result-format layer: the
// ResultWriter contract, its four W3C serializations, the
// ExecuteStream/RunStream entry points that feed rows into a writer as
// the evaluator produces them, and the ExecuteGraphStream/RunGraphStream
// entry points that write a CONSTRUCT/DESCRIBE graph as Turtle, both
// under a deadline and row/byte limits.
//
// The materialize-then-write methods on Result (formats.go) are thin
// adapters over the same writers, so the two paths cannot drift: a byte
// the adapter emits is a byte the stream emits.

// ResultWriter serializes one SELECT/ASK result document incrementally:
// Begin writes the document header, each Row appends one solution, and
// End closes the document (writing an in-band truncation marker when the
// format has room for one) and flushes. Boolean is the one-shot ASK
// form, used instead of the Begin/Row/End sequence.
//
// Row's terms[i] binds the i-th Begin var, a zero Term marks it unbound,
// and the slice is the caller's scratch, valid only during the call.
//
// A writer buffers internally but never holds more than one buffer
// (streamBufSize plus a row) of serialized output: memory is O(row), not
// O(result). The buffer is pooled: taken by Begin or Boolean, returned
// when End or Boolean has flushed it, so a writer must not be used after
// either. A writer abandoned mid-document leaves its buffer to the
// collector. Writers are not safe for concurrent use.
type ResultWriter interface {
	Begin(vars []string) error
	Row(terms []rdf.Term) error
	// End finishes the document. A non-nil trunc marks a deliberate early
	// stop: formats with an in-band channel (JSON members, XML comments)
	// record it; CSV/TSV rely on the caller's transport (HTTP trailers).
	End(trunc *Truncation) error
	Boolean(b bool) error
	// Written reports the bytes of serialized output produced so far
	// (buffered or flushed). Byte limits are enforced against it.
	Written() int64
}

// Truncation describes why a streamed result ended before its last row.
type Truncation struct {
	// Reason is "rows", "bytes", or "deadline".
	Reason string
	// Rows is the number of rows emitted before the cut.
	Rows int
}

// StreamOptions bounds one streamed execution. The zero value means
// unbounded: no deadline, no row cap, no byte cap.
type StreamOptions struct {
	// Deadline bounds evaluation and emission. A query that exceeds it
	// before its first row fails with ErrDeadlineExceeded (no bytes
	// written); one that exceeds it after ends with a well-formed
	// truncated document instead.
	Deadline time.Time
	// MaxRows caps emitted solution rows (0 = unlimited).
	MaxRows int
	// MaxBytes caps serialized output bytes (0 = unlimited). Checked
	// between rows, so the document may exceed it by one row plus the
	// footer — the cap bounds memory and transfer, it is not an exact
	// content length.
	MaxBytes int64
}

// StreamStats reports what one streamed execution emitted.
type StreamStats struct {
	// Rows is the number of solution rows written.
	Rows int
	// Truncated reports an early stop; Reason is its Truncation reason.
	Truncated bool
	Reason    string
}

// ErrGraphResult is returned by ExecuteStream/RunStream for CONSTRUCT and
// DESCRIBE queries, whose results are graphs: callers serialize those
// with ExecuteGraphStream/RunGraphStream instead. It is returned before
// evaluation, so routing on it costs one cached parse.
var ErrGraphResult = errors.New("sparql: CONSTRUCT/DESCRIBE produces a graph, not bindings; use ExecuteGraphStream")

// errBindingsResult is ExecuteGraphStream's answer to a SELECT or ASK.
var errBindingsResult = errors.New("sparql: SELECT/ASK produces bindings, not a graph; use ExecuteStream")

// ErrDeadlineExceeded is returned when StreamOptions.Deadline expires
// before the first result byte is written. After the first byte the
// deadline truncates the document instead (see StreamOptions.Deadline).
var ErrDeadlineExceeded = errors.New("sparql: query deadline exceeded")

// RunStream parses src (cached by shape, like Run) and streams its
// result into rw. See ExecuteStream.
func RunStream(g *store.Graph, src string, rw ResultWriter, opts StreamOptions) (StreamStats, error) {
	pq, err := lookupQuery(src)
	if err != nil {
		return StreamStats{}, err
	}
	return pq.stream(g, rw, opts)
}

// ExecuteStream runs a SELECT or ASK query and feeds each projected row
// into rw through the pipeline Execute uses (see evalSelect): a query
// without an ORDER BY, GROUP BY or aggregate barrier writes its first row
// while its join is still running, LIMIT and opts.MaxRows stop the
// evaluation, and ASK stops at its first solution. Barrier queries
// evaluate to compact ID rows first and then stream. Either way rows are
// decoded into one reused term slice — no document and no Solution map is
// ever built — and Begin is deferred to the first row (or the end of an
// empty result).
//
// opts.Deadline cancels a runaway evaluation: the evaluator polls a stop
// flag in its row loops and unwinds with partial state. Before the first
// row ExecuteStream then returns ErrDeadlineExceeded without writing a
// byte; after it the deadline — like MaxRows and MaxBytes — ends the
// stream with a well-formed document carrying a Truncation.
func ExecuteStream(g *store.Graph, q *Query, rw ResultWriter, opts StreamOptions) (StreamStats, error) {
	return prepare(q).stream(g, rw, opts)
}

func (pq prepared) stream(g *store.Graph, rw ResultWriter, opts StreamOptions) (StreamStats, error) {
	var st StreamStats
	q := pq.q
	if q.Kind == KindConstruct || q.Kind == KindDescribe {
		return st, ErrGraphResult
	}
	ec := pq.context(g)
	release, ok := ec.armDeadline(opts.Deadline)
	if !ok {
		return st, ErrDeadlineExceeded
	}
	defer release()
	if q.Kind == KindAsk {
		found := ec.exists(q.Where, ec.newRow())
		if ec.canceled() {
			return st, ErrDeadlineExceeded
		}
		return st, rw.Boolean(found)
	}
	vars, slots := ec.projection(q)
	terms := make([]rdf.Term, len(vars))
	var err error
	ec.evalSelect(q, slots, func(r idRow) bool {
		switch {
		case opts.MaxRows > 0 && st.Rows >= opts.MaxRows:
			st.Reason = "rows"
		case opts.MaxBytes > 0 && rw.Written() >= opts.MaxBytes:
			st.Reason = "bytes"
		case ec.canceled():
			st.Reason = "deadline"
		case st.Rows == 0:
			err = rw.Begin(vars)
		}
		if st.Reason != "" || err != nil {
			return false
		}
		for i, s := range slots {
			terms[i] = rdf.Term{}
			if s >= 0 && r[s] != store.NoID {
				terms[i] = ec.termOf(r[s])
			}
		}
		if err = rw.Row(terms); err != nil {
			return false
		}
		st.Rows++
		return true
	})
	if st.Reason == "" && ec.canceled() {
		st.Reason = "deadline" // the evaluator stopped before the sink saw it
	}
	switch {
	case err != nil:
		return st, err
	case st.Rows == 0 && st.Reason == "deadline":
		return StreamStats{}, ErrDeadlineExceeded
	case st.Rows == 0:
		if err := rw.Begin(vars); err != nil {
			return st, err
		}
	}
	var trunc *Truncation
	if st.Truncated = st.Reason != ""; st.Truncated {
		trunc = &Truncation{Reason: st.Reason, Rows: st.Rows}
	}
	return st, rw.End(trunc)
}

// armDeadline makes deadline cancel ec's evaluation cooperatively (see
// evalContext.stop). It reports false, arming nothing, when the deadline
// has already passed; release stops the timer.
func (ec *evalContext) armDeadline(deadline time.Time) (release func(), ok bool) {
	if deadline.IsZero() {
		return func() {}, true
	}
	d := time.Until(deadline)
	if d <= 0 {
		return nil, false
	}
	stop := new(atomic.Bool)
	ec.stop = stop
	timer := time.AfterFunc(d, func() { stop.Store(true) })
	return func() { timer.Stop() }, true
}

// RunGraphStream parses src (cached by shape, like Run) and writes its
// result graph to w as Turtle. See ExecuteGraphStream.
func RunGraphStream(g *store.Graph, src string, w io.Writer, opts StreamOptions) (StreamStats, error) {
	pq, err := lookupQuery(src)
	if err != nil {
		return StreamStats{}, err
	}
	return pq.graphStream(g, w, opts)
}

// ExecuteGraphStream runs a CONSTRUCT or DESCRIBE query and writes its
// result graph to w as Turtle (turtle.WriteIDs): the bytes
// turtle.Write(Execute(g, q).Graph) would produce, without building that
// graph or decoding a term before the writer. Template instantiation and
// the description walk push ID triples; the writer decodes, ranks and
// formats each distinct term once.
//
// opts gives graph results the SELECT contract: a deadline that fires
// before the first byte returns ErrDeadlineExceeded with nothing written;
// MaxRows counts triples, MaxBytes is checked between subject blocks, and
// the deadline too is checked there once output has begun. A limit that
// trips ends the document with a "# truncated: <reason>" comment line and
// is reported in the returned StreamStats.
func ExecuteGraphStream(g *store.Graph, q *Query, w io.Writer, opts StreamOptions) (StreamStats, error) {
	return prepare(q).graphStream(g, w, opts)
}

func (pq prepared) graphStream(g *store.Graph, w io.Writer, opts StreamOptions) (StreamStats, error) {
	q := pq.q
	if q.Kind != KindConstruct && q.Kind != KindDescribe {
		return StreamStats{}, errBindingsResult
	}
	ec := pq.context(g)
	release, ok := ec.armDeadline(opts.Deadline)
	if !ok {
		return StreamStats{}, ErrDeadlineExceeded
	}
	defer release()
	ts := ec.graphTriples(q)
	if ec.canceled() {
		return StreamStats{}, ErrDeadlineExceeded
	}
	// The template's namespaces are read-only here: WriteIDs only reads
	// prefixes and shrinks IRIs.
	ws, err := turtle.WriteIDs(w, q.Namespaces, ts, ec.termOf, turtle.Limits{
		MaxTriples: opts.MaxRows, MaxBytes: opts.MaxBytes, Expired: ec.canceled,
	})
	return StreamStats{Rows: ws.Triples, Truncated: ws.Reason != "", Reason: ws.Reason}, err
}

// streamBufSize is how much output a writer accumulates before handing
// it to the transport in one write, so a 3 MB document leaves in ≈ 46
// writes (each one or two syscalls under net/http) rather than one per
// 4 KiB, and a row reaches the client at most one buffer after it is
// serialized.
const streamBufSize = 64 << 10

// bufPool recycles countWriter buffers across documents: a writer takes
// one with its first write and returns it once End or Boolean has flushed,
// so a steady stream of responses allocates no output buffers. A buffer
// that a huge row grew past twice streamBufSize is left to the collector
// instead of pinning that memory in the pool.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// countWriter is the shared buffered sink under every streaming writer:
// it tracks bytes accepted (before they reach the transport, so Written
// is exact and deterministic regardless of buffer boundaries) and keeps
// the transport's first error — the emit helpers are fire-and-forget, and
// the error surfaces from endRow or flush. Its buffer comes from bufPool
// at start and goes back at release.
type countWriter struct {
	w   io.Writer
	buf []byte
	n   int64
	err error
}

func newCountWriter(w io.Writer) *countWriter { return &countWriter{w: w} }

// start takes the buffer from bufPool. Every document's first write —
// Begin or Boolean — calls it, so a writer that never writes (a graph
// query routed elsewhere, a deadline before the first row) holds none.
func (c *countWriter) start() { c.buf = (*bufPool.Get().(*[]byte))[:0] }

// release flushes and returns the buffer to bufPool; the writer must not
// be used for output afterwards (Written still answers).
func (c *countWriter) release() error {
	err := c.flush()
	if cap(c.buf) <= 2*streamBufSize {
		b := c.buf
		bufPool.Put(&b)
	}
	c.buf = nil
	return err
}

func (c *countWriter) str(s string) {
	c.buf = append(c.buf, s...)
	c.n += int64(len(s))
}

func (c *countWriter) byte(b byte) {
	c.buf = append(c.buf, b)
	c.n++
}

func (c *countWriter) written() int64 { return c.n }

// flush hands everything buffered to the transport.
func (c *countWriter) flush() error {
	if len(c.buf) > 0 && c.err == nil {
		_, c.err = c.w.Write(c.buf)
	}
	c.buf = c.buf[:0]
	return c.err
}

// endRow ends one row: a full buffer goes to the transport, and its first
// error is returned so a stream whose client has gone stops evaluating.
func (c *countWriter) endRow() error {
	if len(c.buf) >= streamBufSize {
		return c.flush()
	}
	return c.err
}

// jsonString writes s as a JSON string literal (quoted, escaped).
func (c *countWriter) jsonString(s string) {
	const hex = "0123456789abcdef"
	c.byte('"')
	start := 0
	for i := 0; i < len(s); i++ {
		b := s[i]
		if b >= 0x20 && b != '"' && b != '\\' {
			continue
		}
		c.str(s[start:i])
		switch b {
		case '"':
			c.str(`\"`)
		case '\\':
			c.str(`\\`)
		case '\n':
			c.str(`\n`)
		case '\r':
			c.str(`\r`)
		case '\t':
			c.str(`\t`)
		default:
			c.str(`\u00`)
			c.byte(hex[b>>4])
			c.byte(hex[b&0xF])
		}
		start = i + 1
	}
	c.str(s[start:])
	c.byte('"')
}

// ---- JSON: the W3C SPARQL 1.1 Query Results JSON Format ----

type jsonResultWriter struct {
	c    *countWriter
	vars []string
	rows int
}

// NewJSONWriter returns a streaming writer for
// application/sparql-results+json. A Truncation is recorded in-band as a
// non-standard top-level "truncated" member after "results" — still a
// well-formed document, ignored by standard consumers.
func NewJSONWriter(w io.Writer) ResultWriter { return &jsonResultWriter{c: newCountWriter(w)} }

func (jw *jsonResultWriter) Begin(vars []string) error {
	jw.c.start()
	jw.vars = vars
	jw.c.str(`{"head":{"vars":[`)
	for i, v := range vars {
		if i > 0 {
			jw.c.byte(',')
		}
		jw.c.jsonString(v)
	}
	jw.c.str(`]},"results":{"bindings":[`)
	return nil
}

func (jw *jsonResultWriter) Row(terms []rdf.Term) error {
	if jw.rows > 0 {
		jw.c.byte(',')
	}
	jw.rows++
	jw.c.str("\n{")
	first := true
	for i, t := range terms {
		if !t.IsValid() {
			continue
		}
		if !first {
			jw.c.byte(',')
		}
		first = false
		jw.c.jsonString(jw.vars[i])
		jw.c.str(`:{"type":`)
		switch {
		case t.IsIRI():
			jw.c.str(`"uri"`)
		case t.IsBlank():
			jw.c.str(`"bnode"`)
		default:
			jw.c.str(`"literal"`)
			if t.Lang != "" {
				jw.c.str(`,"xml:lang":`)
				jw.c.jsonString(t.Lang)
			} else if t.Datatype != "" && t.Datatype != rdf.XSDString {
				jw.c.str(`,"datatype":`)
				jw.c.jsonString(t.Datatype)
			}
		}
		jw.c.str(`,"value":`)
		jw.c.jsonString(t.Value)
		jw.c.byte('}')
	}
	jw.c.byte('}')
	return jw.c.endRow()
}

func (jw *jsonResultWriter) End(trunc *Truncation) error {
	jw.c.str("\n]}")
	if trunc != nil {
		jw.c.str(`,"truncated":`)
		jw.c.jsonString(trunc.Reason)
	}
	jw.c.str("}\n")
	return jw.c.release()
}

func (jw *jsonResultWriter) Boolean(b bool) error {
	jw.c.start()
	if b {
		jw.c.str(`{"head":{"vars":[]},"boolean":true}` + "\n")
	} else {
		jw.c.str(`{"head":{"vars":[]},"boolean":false}` + "\n")
	}
	return jw.c.release()
}

func (jw *jsonResultWriter) Written() int64 { return jw.c.written() }

// ---- XML: the W3C SPARQL Query Results XML Format ----

type xmlResultWriter struct {
	c    *countWriter
	vars []string
}

// NewXMLWriter returns a streaming writer for
// application/sparql-results+xml. A Truncation is recorded as an XML
// comment before the closing tag.
func NewXMLWriter(w io.Writer) ResultWriter { return &xmlResultWriter{c: newCountWriter(w)} }

func (xw *xmlResultWriter) header(vars []string) {
	xw.c.str(`<?xml version="1.0" encoding="UTF-8"?>` + "\n")
	xw.c.str(`<sparql xmlns="http://www.w3.org/2005/sparql-results#">` + "\n")
	xw.c.str("  <head>\n")
	for _, v := range vars {
		xw.c.str(`    <variable name="`)
		xw.c.xmlEscape(v)
		xw.c.str("\"/>\n")
	}
	xw.c.str("  </head>\n")
}

func (xw *xmlResultWriter) Begin(vars []string) error {
	xw.c.start()
	xw.vars = vars
	xw.header(vars)
	xw.c.str("  <results>\n")
	return nil
}

func (xw *xmlResultWriter) Row(terms []rdf.Term) error {
	c := xw.c
	c.str("    <result>\n")
	for i, t := range terms {
		if !t.IsValid() {
			continue
		}
		c.str(`      <binding name="`)
		c.xmlEscape(xw.vars[i])
		c.str(`">`)
		switch {
		case t.IsIRI():
			c.str("<uri>")
			c.xmlEscape(t.Value)
			c.str("</uri>")
		case t.IsBlank():
			c.str("<bnode>")
			c.xmlEscape(t.Value)
			c.str("</bnode>")
		default:
			c.str("<literal")
			if t.Lang != "" {
				c.str(` xml:lang="`)
				c.xmlEscape(t.Lang)
				c.byte('"')
			} else if t.Datatype != "" && t.Datatype != rdf.XSDString {
				c.str(` datatype="`)
				c.xmlEscape(t.Datatype)
				c.byte('"')
			}
			c.byte('>')
			c.xmlEscape(t.Value)
			c.str("</literal>")
		}
		c.str("</binding>\n")
	}
	c.str("    </result>\n")
	return c.endRow()
}

func (xw *xmlResultWriter) End(trunc *Truncation) error {
	xw.c.str("  </results>\n")
	if trunc != nil {
		xw.c.str("  <!-- truncated: ")
		xw.c.xmlEscape(trunc.Reason)
		xw.c.str(" limit reached -->\n")
	}
	xw.c.str("</sparql>\n")
	return xw.c.release()
}

func (xw *xmlResultWriter) Boolean(b bool) error {
	xw.c.start()
	xw.header(nil)
	if b {
		xw.c.str("  <boolean>true</boolean>\n")
	} else {
		xw.c.str("  <boolean>false</boolean>\n")
	}
	xw.c.str("</sparql>\n")
	return xw.c.release()
}

func (xw *xmlResultWriter) Written() int64 { return xw.c.written() }

// xmlEscapes maps each byte XML text must escape to its entity: the five
// predefined entities plus the CR that XML 1.0 normalizes away.
var xmlEscapes = [256]string{'<': "&lt;", '>': "&gt;", '&': "&amp;", '"': "&quot;", '\'': "&apos;", '\r': "&#xD;"}

// xmlEscape writes s with xmlEscapes applied. A string with no special
// byte — nearly every IRI and name — is one append.
func (c *countWriter) xmlEscape(s string) {
	start := 0
	for i := 0; i < len(s); i++ {
		if esc := xmlEscapes[s[i]]; esc != "" {
			c.str(s[start:i])
			c.str(esc)
			start = i + 1
		}
	}
	c.str(s[start:])
}

// ---- CSV: the W3C SPARQL 1.1 CSV format (RFC 4180, CRLF line endings) ----

type csvResultWriter struct {
	c *countWriter
}

// NewCSVWriter returns a streaming writer for text/csv. Per RFC 4180 (and
// the W3C SPARQL 1.1 CSV Results note) records end in CRLF, and cells
// hold lexical values, with blank nodes as _:label so they stay distinct
// from literals. Fields are quoted exactly as encoding/csv quotes them
// with UseCRLF. ASK results serialize as a single boolean cell; CSV has
// no in-band truncation channel — transports signal it out of band.
func NewCSVWriter(w io.Writer) ResultWriter { return &csvResultWriter{c: newCountWriter(w)} }

func (vw *csvResultWriter) Begin(vars []string) error {
	vw.c.start()
	for i, v := range vars {
		if i > 0 {
			vw.c.byte(',')
		}
		vw.c.csvField("", v)
	}
	vw.c.str("\r\n")
	return nil
}

func (vw *csvResultWriter) Row(terms []rdf.Term) error {
	for i, t := range terms {
		if i > 0 {
			vw.c.byte(',')
		}
		if t.IsBlank() {
			vw.c.csvField("_:", t.Value)
		} else {
			vw.c.csvField("", t.Value)
		}
	}
	vw.c.str("\r\n")
	return vw.c.endRow()
}

// csvField writes the field prefix+s (prefix is "" or "_:", which needs
// no quoting) the way encoding/csv.Writer with UseCRLF writes a field: in
// double quotes when it is `\.`, holds a comma, quote, CR or LF, or
// starts with a Unicode space; inside quotes a quote doubles, a CR is
// dropped and a LF becomes CRLF.
func (c *countWriter) csvField(prefix, s string) {
	// Vectorized byte searches beat one byte-at-a-time scan on the IRIs
	// and labels that make up nearly every cell.
	quote := strings.IndexByte(s, ',') >= 0 || strings.IndexByte(s, '"') >= 0 ||
		strings.IndexByte(s, '\n') >= 0 || strings.IndexByte(s, '\r') >= 0
	if prefix == "" && s != "" && !quote {
		r, _ := utf8.DecodeRuneInString(s)
		quote = s == `\.` || unicode.IsSpace(r)
	}
	if !quote {
		c.str(prefix)
		c.str(s)
		return
	}
	c.byte('"')
	c.str(prefix)
	start := 0
	for i := 0; i < len(s); i++ {
		var esc string
		switch s[i] {
		case '"':
			esc = `""`
		case '\r':
		case '\n':
			esc = "\r\n"
		default:
			continue
		}
		c.str(s[start:i])
		c.str(esc)
		start = i + 1
	}
	c.str(s[start:])
	c.byte('"')
}

func (vw *csvResultWriter) End(*Truncation) error { return vw.c.release() }

func (vw *csvResultWriter) Boolean(b bool) error {
	vw.c.start()
	if b {
		vw.c.str("true\r\n")
	} else {
		vw.c.str("false\r\n")
	}
	return vw.c.release()
}

func (vw *csvResultWriter) Written() int64 { return vw.c.written() }

// ---- TSV: the W3C SPARQL 1.1 TSV format (N-Triples term syntax) ----

type tsvResultWriter struct {
	c *countWriter
}

// NewTSVWriter returns a streaming writer for text/tab-separated-values:
// header of ?var names, then terms in full N-Triples syntax, appended in
// place (rdf.Term.Append). Like CSV, truncation has no in-band channel.
func NewTSVWriter(w io.Writer) ResultWriter { return &tsvResultWriter{c: newCountWriter(w)} }

func (tw *tsvResultWriter) Begin(vars []string) error {
	tw.c.start()
	for i, v := range vars {
		if i > 0 {
			tw.c.byte('\t')
		}
		tw.c.byte('?')
		tw.c.str(v)
	}
	tw.c.byte('\n')
	return nil
}

func (tw *tsvResultWriter) Row(terms []rdf.Term) error {
	c := tw.c
	before := len(c.buf)
	for i, t := range terms {
		if i > 0 {
			c.buf = append(c.buf, '\t')
		}
		if t.IsValid() {
			c.buf = t.Append(c.buf)
		}
	}
	c.buf = append(c.buf, '\n')
	c.n += int64(len(c.buf) - before)
	return c.endRow()
}

func (tw *tsvResultWriter) End(*Truncation) error { return tw.c.release() }

func (tw *tsvResultWriter) Boolean(b bool) error {
	tw.c.start()
	if b {
		tw.c.str("true\n")
	} else {
		tw.c.str("false\n")
	}
	return tw.c.release()
}

func (tw *tsvResultWriter) Written() int64 { return tw.c.written() }
