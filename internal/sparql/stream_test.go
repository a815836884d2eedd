package sparql

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/rdf"
	"repro/internal/store"
)

// chunkRecorder is the underlying sink for the streaming proofs: it
// records every Write the buffered writer hands the transport, so tests
// can assert that output left the writer incrementally (many small
// chunks) rather than as one document-sized write.
type chunkRecorder struct {
	buf      bytes.Buffer
	writes   int
	maxChunk int
}

func (cr *chunkRecorder) Write(p []byte) (int, error) {
	cr.writes++
	if len(p) > cr.maxChunk {
		cr.maxChunk = len(p)
	}
	return cr.buf.Write(p)
}

// bigGraph builds n subjects each carrying a name literal — a SELECT over
// it yields n rows.
func bigGraph(n int) *store.Graph {
	g := store.New()
	p := rdf.NewIRI("http://e/name")
	for i := 0; i < n; i++ {
		g.Add(rdf.NewIRI(fmt.Sprintf("http://e/s%06d", i)), p, rdf.NewLiteral(fmt.Sprintf("name-%06d", i)))
	}
	return g
}

const bigQuery = `SELECT ?s ?name WHERE { ?s <http://e/name> ?name }`

// recordingWriter tees a stream into a Result, so the rows a writer was
// handed can be compared as a multiset and re-serialized by the
// materialized adapters. Building each Solution inside Row is what makes
// any aliasing of the caller's scratch slice visible.
type recordingWriter struct {
	ResultWriter
	res Result
}

func (rw *recordingWriter) Begin(vars []string) error {
	rw.res.Vars = vars
	return rw.ResultWriter.Begin(vars)
}

func (rw *recordingWriter) Row(terms []rdf.Term) error {
	sol := Solution{}
	for i, t := range terms {
		if t.IsValid() {
			sol[rw.res.Vars[i]] = t
		}
	}
	rw.res.Solutions = append(rw.res.Solutions, sol)
	return rw.ResultWriter.Row(terms)
}

// subMultiset reports whether every row of sub occurs in all at least as
// often.
func subMultiset(sub, all []string) bool {
	n := map[string]int{}
	for _, r := range all {
		n[r]++
	}
	for _, r := range sub {
		if n[r]--; n[r] < 0 {
			return false
		}
	}
	return true
}

// TestStreamEquivalentToMaterialized locks the streaming pipeline to
// Execute over both operator corpora, in every format: the streamed rows
// are Execute's solution multiset, and the streamed bytes are exactly what
// the materialized Write* adapter emits for those rows in that order.
// LIMIT/OFFSET and MaxRows variants must stream a sub-multiset of the
// right size.
func TestStreamEquivalentToMaterialized(t *testing.T) {
	formats := []struct {
		format string
		mk     func(io.Writer) ResultWriter
		mat    func(*Result, io.Writer) error
	}{
		{"json", NewJSONWriter, (*Result).WriteJSON},
		{"xml", NewXMLWriter, (*Result).WriteXML},
		{"csv", NewCSVWriter, (*Result).WriteCSV},
		{"tsv", NewTSVWriter, (*Result).WriteTSV},
	}
	type variant struct {
		suffix string // appended to the query
		opts   StreamOptions
		rows   int // rows the stream must carry
	}
	check := func(g *store.Graph, name, query string) {
		t.Run(name, func(t *testing.T) {
			want := canonicalRows(run(t, g, query))
			variants := []variant{{"", StreamOptions{}, len(want)}, {"", StreamOptions{MaxRows: 2}, min(2, len(want))}}
			if !strings.Contains(query, "LIMIT") {
				variants = append(variants, variant{" LIMIT 3 OFFSET 1", StreamOptions{}, min(3, max(len(want)-1, 0))})
			}
			for _, f := range formats {
				for _, v := range variants {
					var streamed, materialized bytes.Buffer
					rec := &recordingWriter{ResultWriter: f.mk(&streamed)}
					st, err := RunStream(g, query+v.suffix, rec, v.opts)
					if err != nil {
						t.Fatalf("%s%s: RunStream: %v", f.format, v.suffix, err)
					}
					got := canonicalRows(&rec.res)
					if st.Rows != v.rows || len(got) != v.rows || st.Truncated != (v.rows < len(want) && v.suffix == "") {
						t.Errorf("%s%s %+v: stats = %+v, recorded %d rows, want %d", f.format, v.suffix, v.opts, st, len(got), v.rows)
					}
					if !subMultiset(got, want) || (v.rows == len(want) && fmt.Sprint(got) != fmt.Sprint(want)) {
						t.Errorf("%s%s %+v: streamed rows %v are not rows of %v", f.format, v.suffix, v.opts, got, want)
					}
					if st.Truncated {
						continue // the stream ends with a truncation marker the adapter has no way to write
					}
					if err := f.mat(&rec.res, &materialized); err != nil {
						t.Fatal(err)
					}
					if streamed.String() != materialized.String() {
						t.Errorf("%s%s: streamed and materialized output differ:\n--- stream\n%s\n--- materialized\n%s",
							f.format, v.suffix, streamed.String(), materialized.String())
					}
				}
			}
		})
	}
	g := testGraph(t, fixture)
	for _, tc := range operatorCorpus {
		check(g, tc.name, tc.query)
	}
	wide := buildWideGraph(60, 3)
	for _, tc := range wideCorpus {
		check(wide, "wide/"+tc.name, tc.query)
	}
}

// TestStreamFirstByteBeforeLastRow is the bounded-memory proof for the
// streaming writers: over a large synthetic result the transport must see
// many buffer-sized chunks — the first of them long before the last row —
// never one document-sized write, and the writer's own output accounting
// must match what arrived.
func TestStreamFirstByteBeforeLastRow(t *testing.T) {
	const n = 100000
	g := bigGraph(n)
	for _, tc := range []struct {
		format string
		mk     func(io.Writer) ResultWriter
	}{
		{"json", NewJSONWriter},
		{"xml", NewXMLWriter},
		{"csv", NewCSVWriter},
		{"tsv", NewTSVWriter},
	} {
		cr := &chunkRecorder{}
		rw := tc.mk(cr)
		st, err := RunStream(g, bigQuery, rw, StreamOptions{})
		if err != nil {
			t.Fatalf("%s: %v", tc.format, err)
		}
		if st.Rows != n {
			t.Fatalf("%s: rows = %d, want %d", tc.format, st.Rows, n)
		}
		total := cr.buf.Len()
		// A materialize-then-write serializer hands the transport the whole
		// document at once; the streaming writers hand it one buffer at a
		// time: at least streamBufSize except for the last write, and at
		// most that plus one row (or the 4 KiB encoding/csv holds back).
		const maxChunk = streamBufSize + 8<<10
		if cr.maxChunk > maxChunk {
			t.Errorf("%s: max transport chunk = %d bytes of %d total — not streaming", tc.format, cr.maxChunk, total)
		}
		if cr.writes < total/maxChunk || cr.writes > total/streamBufSize+1 {
			t.Errorf("%s: %d transport writes for %d bytes, want %d…%d", tc.format, cr.writes, total, total/maxChunk, total/streamBufSize+1)
		}
		if got := rw.Written(); got != int64(total) {
			t.Errorf("%s: Written() = %d, transport got %d", tc.format, got, total)
		}
	}
}

func TestStreamMaxRowsTruncatesWellFormed(t *testing.T) {
	g := bigGraph(1000)
	var buf bytes.Buffer
	st, err := RunStream(g, bigQuery, NewJSONWriter(&buf), StreamOptions{MaxRows: 10})
	if err != nil {
		t.Fatal(err)
	}
	if st.Rows != 10 || !st.Truncated || st.Reason != "rows" {
		t.Fatalf("stats = %+v, want 10 rows truncated by rows", st)
	}
	var doc struct {
		Results struct {
			Bindings []map[string]struct{ Value string } `json:"bindings"`
		} `json:"results"`
		Truncated string `json:"truncated"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("truncated document is not well-formed JSON: %v\n%s", err, buf.String())
	}
	if len(doc.Results.Bindings) != 10 || doc.Truncated != "rows" {
		t.Errorf("doc = %d bindings, truncated=%q", len(doc.Results.Bindings), doc.Truncated)
	}
}

func TestStreamMaxBytesTruncatesWellFormed(t *testing.T) {
	g := bigGraph(10000)
	var buf bytes.Buffer
	st, err := RunStream(g, bigQuery, NewXMLWriter(&buf), StreamOptions{MaxBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Truncated || st.Reason != "bytes" {
		t.Fatalf("stats = %+v, want bytes truncation", st)
	}
	if st.Rows >= 10000 || st.Rows == 0 {
		t.Errorf("rows = %d, want a partial prefix", st.Rows)
	}
	out := buf.String()
	if !strings.Contains(out, "<!-- truncated: bytes limit reached -->") || !strings.HasSuffix(out, "</sparql>\n") {
		t.Errorf("truncated XML not well-formed:\n%s", out)
	}
}

func TestStreamExpiredDeadlineFailsBeforeFirstByte(t *testing.T) {
	g := bigGraph(10)
	var buf bytes.Buffer
	_, err := RunStream(g, bigQuery, NewJSONWriter(&buf), StreamOptions{Deadline: time.Now().Add(-time.Second)})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	if buf.Len() != 0 {
		t.Errorf("wrote %d bytes despite expired deadline", buf.Len())
	}
}

// product is a three-way cartesian product over bigGraph(300): 2.7e7
// result rows, far more than any test can afford to enumerate.
const product = `SELECT ?a ?c ?e WHERE { ?a <http://e/name> ?b . ?c <http://e/name> ?d . ?e <http://e/name> ?f }`

// TestStreamDeadlineCancelsRunawayQuery proves the cooperative stop flag
// unwinds the evaluator in both pipelines. The product streams, so the
// deadline lands mid-document and must truncate it well-formed; behind an
// ORDER BY barrier no row exists before the deadline, so the query must
// fail with ErrDeadlineExceeded having written nothing.
func TestStreamDeadlineCancelsRunawayQuery(t *testing.T) {
	g := bigGraph(300)
	for _, tc := range []struct {
		name, query string
		streams     bool
	}{{"streamed", product, true}, {"order-by", product + " ORDER BY ?e", false}} {
		var buf bytes.Buffer
		start := time.Now()
		st, err := RunStream(g, tc.query, NewJSONWriter(&buf), StreamOptions{Deadline: time.Now().Add(50 * time.Millisecond)})
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Errorf("%s: cancellation took %v — stop flag not being polled", tc.name, elapsed)
		}
		if !tc.streams {
			if !errors.Is(err, ErrDeadlineExceeded) || buf.Len() != 0 {
				t.Errorf("%s: err = %v after %d bytes, want ErrDeadlineExceeded before the first", tc.name, err, buf.Len())
			}
			continue
		}
		if err != nil || !st.Truncated || st.Reason != "deadline" || st.Rows == 0 {
			t.Fatalf("%s: stats = %+v, err = %v; want rows then a deadline truncation", tc.name, st, err)
		}
		var doc struct {
			Results struct {
				Bindings []json.RawMessage `json:"bindings"`
			} `json:"results"`
			Truncated string `json:"truncated"`
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatalf("%s: truncated document is not well-formed JSON: %v", tc.name, err)
		}
		if len(doc.Results.Bindings) != st.Rows || doc.Truncated != "deadline" {
			t.Errorf("%s: doc = %d bindings, truncated=%q; stats %+v", tc.name, len(doc.Results.Bindings), doc.Truncated, st)
		}
	}
}

// TestStreamStopsEarly: LIMIT, MaxRows and ASK over the product must stop
// the evaluation themselves; the generous deadline only bounds a
// regression that would enumerate the product.
func TestStreamStopsEarly(t *testing.T) {
	g := bigGraph(300)
	opts := StreamOptions{Deadline: time.Now().Add(5 * time.Second)}
	var buf bytes.Buffer
	st, err := RunStream(g, product+" LIMIT 10", NewJSONWriter(&buf), opts)
	if err != nil || st.Rows != 10 || st.Truncated {
		t.Errorf("LIMIT 10: stats = %+v, err = %v", st, err)
	}
	opts.MaxRows = 10
	st, err = RunStream(g, product, NewJSONWriter(&buf), opts)
	if err != nil || st.Rows != 10 || st.Reason != "rows" {
		t.Errorf("MaxRows 10: stats = %+v, err = %v", st, err)
	}
	buf.Reset()
	ask := strings.Replace(product, "SELECT ?a ?c ?e", "ASK", 1)
	if _, err = RunStream(g, ask, NewCSVWriter(&buf), opts); err != nil || buf.String() != "true\r\n" {
		t.Errorf("ASK: %q, err = %v", buf.String(), err)
	}
}

// TestStreamAllocsPerRow bounds the streaming path's allocations: the
// push pipeline, the reused term slice and the writers allocate per
// query, not per row.
func TestStreamAllocsPerRow(t *testing.T) {
	const n = 100000
	g := bigGraph(n)
	allocs := testing.AllocsPerRun(2, func() {
		if st, err := RunStream(g, bigQuery, NewJSONWriter(io.Discard), StreamOptions{}); err != nil || st.Rows != n {
			t.Fatalf("stats = %+v, err = %v", st, err)
		}
	})
	if allocs > n {
		t.Errorf("%.0f allocations for %d rows, want ≤ 1 per row", allocs, n)
	}
}

func TestStreamAskBoolean(t *testing.T) {
	g := testGraph(t, fixture)
	const q = `PREFIX ex: <http://e/> ASK { ex:alice ex:likes ex:sushi }`
	var jsonBuf, csvBuf bytes.Buffer
	if _, err := RunStream(g, q, NewJSONWriter(&jsonBuf), StreamOptions{}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Boolean *bool `json:"boolean"`
	}
	if err := json.Unmarshal(jsonBuf.Bytes(), &doc); err != nil || doc.Boolean == nil || !*doc.Boolean {
		t.Errorf("ASK JSON stream: err=%v doc=%s", err, jsonBuf.String())
	}
	if _, err := RunStream(g, q, NewCSVWriter(&csvBuf), StreamOptions{}); err != nil {
		t.Fatal(err)
	}
	if csvBuf.String() != "true\r\n" {
		t.Errorf("ASK CSV stream = %q", csvBuf.String())
	}
}

func TestStreamGraphResultsRejected(t *testing.T) {
	g := testGraph(t, fixture)
	var buf bytes.Buffer
	_, err := RunStream(g, `PREFIX ex: <http://e/> CONSTRUCT { ?s ex:n ?o } WHERE { ?s ex:name ?o }`,
		NewJSONWriter(&buf), StreamOptions{})
	if !errors.Is(err, ErrGraphResult) {
		t.Fatalf("CONSTRUCT err = %v, want ErrGraphResult", err)
	}
	if buf.Len() != 0 {
		t.Errorf("wrote %d bytes for a graph result", buf.Len())
	}
}

// firstByteWriter discards its input, noting when the first byte came.
type firstByteWriter struct {
	start time.Time
	first time.Duration
}

func (w *firstByteWriter) Write(p []byte) (int, error) {
	if w.first == 0 {
		w.first = time.Since(w.start)
	}
	return len(p), nil
}

// BenchmarkStreamMillionRows exercises the acceptance-scale result: a
// 1M-row SELECT streamed through the JSON writer into a discarding
// transport. Bytes/op staying O(row) (not O(result)) is visible in the
// allocation numbers, and first-byte-ns/op is how long the transport
// waited for its first write.
func BenchmarkStreamMillionRows(b *testing.B) {
	g := bigGraph(1_000_000)
	q, err := ParseQuery(bigQuery)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var first time.Duration
	for b.Loop() {
		w := &firstByteWriter{start: time.Now()}
		st, err := ExecuteStream(g, q, NewJSONWriter(w), StreamOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if st.Rows != 1_000_000 {
			b.Fatalf("rows = %d", st.Rows)
		}
		first += w.first
	}
	b.ReportMetric(float64(first.Nanoseconds())/float64(b.N), "first-byte-ns/op")
}
