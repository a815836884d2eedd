package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"mime"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/feo"
)

// SPARQL 1.1 Protocol (https://www.w3.org/TR/sparql11-protocol/) on
// /sparql. The three query invocation forms:
//
//	GET  /sparql?query=...                        (query via query string)
//	POST /sparql  application/x-www-form-urlencoded   query=... in the body
//	POST /sparql  application/sparql-query            the query IS the body
//
// Errors follow the protocol: 405 (with Allow) for methods other than
// GET/POST, 415 for an unsupported POST content type, 400 for a missing
// or malformed query, 413 for a body over maxBodyBytes, 406 for an Accept
// header naming no supported result format. Content negotiation —
// explicit ?format= first, then Accept with q-values — resolves BEFORE the
// query runs, so a rejected request never costs an evaluation.

var (
	errMethodNotAllowed = errors.New("method not allowed")
	errNotAcceptable    = errors.New("no supported format in Accept header " +
		"(supported: application/sparql-results+json, application/sparql-results+xml, text/csv, text/tab-separated-values)")
)

// truncationTrailer is the response trailer carrying the truncation
// reason for formats with no in-band channel (CSV/TSV). It is declared on
// every streamed response; JSON and XML additionally record truncation
// inside the document.
const truncationTrailer = "X-Feo-Truncated"

// resultFormat binds a negotiated format name to its media type and
// streaming writer.
type resultFormat struct {
	name        string
	contentType string
	newWriter   func(io.Writer) feo.ResultWriter
}

var resultFormats = []resultFormat{
	{"json", "application/sparql-results+json", feo.NewJSONResultWriter},
	{"xml", "application/sparql-results+xml", feo.NewXMLResultWriter},
	{"csv", "text/csv; charset=utf-8", feo.NewCSVResultWriter},
	{"tsv", "text/tab-separated-values; charset=utf-8", feo.NewTSVResultWriter},
}

func formatNamed(name string) (resultFormat, bool) {
	for _, f := range resultFormats {
		if f.name == name {
			return f, true
		}
	}
	return resultFormat{}, false
}

// mediaTypeFormats maps acceptable media types to format names.
// application/json and application/xml are conventional aliases.
var mediaTypeFormats = map[string]string{
	"application/sparql-results+json": "json",
	"application/json":                "json",
	"application/sparql-results+xml":  "xml",
	"application/xml":                 "xml",
	"text/csv":                        "csv",
	"text/tab-separated-values":       "tsv",
}

// negotiateFormat resolves the result format before evaluation: an
// explicit ?format= wins (unknown values are a 400), otherwise the Accept
// header is parsed with q-values (unsatisfiable is a 406), and no
// preference at all defaults to the SPARQL results JSON format. params
// is the request's parsed URL query.
func negotiateFormat(r *http.Request, params url.Values) (resultFormat, int, error) {
	if name := params.Get("format"); name != "" {
		f, ok := formatNamed(name)
		if !ok {
			return resultFormat{}, http.StatusBadRequest, fmt.Errorf("unknown format %q (want json, xml, csv, or tsv)", name)
		}
		return f, 0, nil
	}
	accept := r.Header.Get("Accept")
	if strings.TrimSpace(accept) == "" {
		return resultFormats[0], 0, nil
	}
	if name, ok := mediaTypeFormats[accept]; ok {
		// One known media type and nothing else: what the loop below
		// would pick, without splitting and parsing the header.
		f, _ := formatNamed(name)
		return f, 0, nil
	}
	type choice struct {
		name string
		q    float64
		pref int // server preference order, tie-breaker at equal q
	}
	var choices []choice
	for _, clause := range strings.Split(accept, ",") {
		mt, params, err := mime.ParseMediaType(strings.TrimSpace(clause))
		if err != nil {
			continue // a malformed clause never blocks the others
		}
		q := 1.0
		if qs, ok := params["q"]; ok {
			if v, err := strconv.ParseFloat(qs, 64); err == nil {
				q = v
			}
		}
		if q <= 0 {
			continue // explicitly refused
		}
		var name string
		switch {
		case mt == "*/*" || mt == "application/*":
			name = "json"
		case mt == "text/*":
			name = "csv"
		default:
			var ok bool
			if name, ok = mediaTypeFormats[mt]; !ok {
				continue
			}
		}
		pref := 0
		for i, f := range resultFormats {
			if f.name == name {
				pref = i
				break
			}
		}
		choices = append(choices, choice{name, q, pref})
	}
	if len(choices) == 0 {
		return resultFormat{}, http.StatusNotAcceptable, errNotAcceptable
	}
	sort.SliceStable(choices, func(i, j int) bool {
		if choices[i].q != choices[j].q {
			return choices[i].q > choices[j].q
		}
		return choices[i].pref < choices[j].pref
	})
	f, _ := formatNamed(choices[0].name)
	return f, 0, nil
}

// readQuery extracts the query string per the protocol's invocation
// forms. A non-zero status means the request was rejected. params is
// the request's parsed URL query.
func readQuery(r *http.Request, params url.Values) (string, int, error) {
	switch r.Method {
	case http.MethodGet:
		q := params.Get("query")
		if strings.TrimSpace(q) == "" {
			return "", http.StatusBadRequest, errors.New("missing query parameter")
		}
		return q, 0, nil
	case http.MethodPost:
		ct := r.Header.Get("Content-Type")
		mt, _, err := mime.ParseMediaType(ct)
		if ct == "" || err != nil {
			return "", http.StatusUnsupportedMediaType, fmt.Errorf("unsupported content type %q", ct)
		}
		switch mt {
		case "application/x-www-form-urlencoded":
			if err := r.ParseForm(); err != nil {
				return "", bodyErrorStatus(err), fmt.Errorf("malformed form body: %w", err)
			}
			q := r.PostForm.Get("query")
			if strings.TrimSpace(q) == "" {
				return "", http.StatusBadRequest, errors.New("missing query form parameter")
			}
			return q, 0, nil
		case "application/sparql-query":
			body, err := io.ReadAll(r.Body)
			if err != nil {
				return "", bodyErrorStatus(err), fmt.Errorf("reading query body: %w", err)
			}
			if strings.TrimSpace(string(body)) == "" {
				return "", http.StatusBadRequest, errors.New("empty query body")
			}
			return string(body), 0, nil
		default:
			return "", http.StatusUnsupportedMediaType, fmt.Errorf("unsupported content type %q", mt)
		}
	default:
		return "", http.StatusMethodNotAllowed, errMethodNotAllowed
	}
}

// handleSPARQL is the protocol endpoint. The full request is validated —
// method, invocation form, query presence, result format — before the
// query executes, and results stream through the negotiated writer under
// the server's deadline/row/byte limits with O(row) serialization memory.
func (s *apiServer) handleSPARQL(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		w.Header().Set("Allow", "GET, POST")
		writeError(w, http.StatusMethodNotAllowed, errMethodNotAllowed)
		return
	}
	params := r.URL.Query()
	format, status, err := negotiateFormat(r, params)
	if err != nil {
		writeError(w, status, err)
		return
	}
	query, status, err := readQuery(r, params)
	if err != nil {
		writeError(w, status, err)
		return
	}
	opts := feo.StreamOptions{MaxRows: s.maxRows, MaxBytes: s.maxBytes}
	if s.queryTimeout > 0 {
		opts.Deadline = time.Now().Add(s.queryTimeout)
	}
	sn := s.sess.Snapshot()
	// Headers (and the truncation trailer declaration) go out with the
	// first streamed byte. The writer emits nothing, not even the document
	// header, before QueryStream's first row — which for a query without
	// an ORDER BY/DISTINCT/GROUP BY barrier comes while the join is still
	// running — so every error before that row, a deadline included, still
	// gets a clean error response.
	w.Header().Set("Content-Type", format.contentType)
	w.Header().Set("Trailer", truncationTrailer)
	rw := format.newWriter(w)
	st, err := sn.QueryStream(query, rw, opts)
	started := rw.Written() > 0
	if errors.Is(err, feo.ErrGraphResult) {
		// CONSTRUCT/DESCRIBE: a graph, streamed as Turtle under the same
		// limits. Nothing has been written yet, so the negotiated
		// Content-Type can be replaced; the query already parsed, so any
		// error but the deadline is a transport failure mid-stream.
		w.Header().Set("Content-Type", "text/turtle; charset=utf-8")
		st, err = sn.QueryGraphStream(query, w, opts)
		started = true
	}
	switch {
	case err == nil:
		if st.Truncated {
			// In the trailer for every format (CSV/TSV have no in-band
			// channel); JSON/XML documents additionally carry it inline,
			// and Turtle in a final comment line.
			w.Header().Set(truncationTrailer, st.Reason)
			s.metrics.truncations(st.Reason).Inc()
		}
	case errors.Is(err, feo.ErrQueryDeadlineExceeded):
		// The deadline fired before the first row; one that fires after it
		// truncates the document instead (err == nil above).
		s.metrics.truncations("deadline").Inc()
		writeError(w, http.StatusServiceUnavailable,
			fmt.Errorf("query exceeded the server time limit (%s)", s.queryTimeout))
	case !started:
		// Parse/evaluation failure before the first result byte: a clean
		// HTTP error is still possible.
		writeError(w, http.StatusBadRequest, err)
	default:
		// Mid-stream transport failure (client went away): the status is
		// already on the wire, only log.
		log.Printf("feo: sparql stream: %v", err)
	}
}
