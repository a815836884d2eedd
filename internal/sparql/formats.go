package sparql

import (
	"io"

	"repro/internal/rdf"
)

// Materialized-result serialization. Each Write* method adapts the
// corresponding streaming writer in stream.go to an in-memory Result:
// the bytes are produced row by row through the exact code path
// ExecuteStream feeds live, so the two paths cannot drift. Memory here
// is O(row) over and above the Result the caller already holds.

// writeAll drains a Result through one streaming writer, filling one
// reused term slice per row in Vars order.
func (r *Result) writeAll(rw ResultWriter) error {
	if r.Kind == KindAsk {
		return rw.Boolean(r.Boolean)
	}
	if err := rw.Begin(r.Vars); err != nil {
		return err
	}
	terms := make([]rdf.Term, len(r.Vars))
	for _, sol := range r.Solutions {
		for i, v := range r.Vars {
			terms[i] = sol[v]
		}
		if err := rw.Row(terms); err != nil {
			return err
		}
	}
	return rw.End(nil)
}

// WriteJSON serializes SELECT/ASK results in the W3C "SPARQL 1.1 Query
// Results JSON Format" (application/sparql-results+json).
//
//feo:emit
func (r *Result) WriteJSON(w io.Writer) error { return r.writeAll(NewJSONWriter(w)) }

// WriteCSV serializes SELECT results in the W3C SPARQL 1.1 CSV format
// (text/csv): header row of variable names, plain lexical values, CRLF
// record endings per RFC 4180.
//
//feo:emit
func (r *Result) WriteCSV(w io.Writer) error { return r.writeAll(NewCSVWriter(w)) }

// WriteTSV serializes SELECT results in the W3C SPARQL 1.1 TSV format
// (text/tab-separated-values): terms in full N-Triples syntax.
//
//feo:emit
func (r *Result) WriteTSV(w io.Writer) error { return r.writeAll(NewTSVWriter(w)) }

// WriteXML serializes SELECT/ASK results in the W3C "SPARQL Query Results
// XML Format" (application/sparql-results+xml).
//
//feo:emit
func (r *Result) WriteXML(w io.Writer) error { return r.writeAll(NewXMLWriter(w)) }
