package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/feo"
	"repro/internal/turtle"
)

const protoQuery = "SELECT ?q WHERE { ?q a feo:FoodQuestion }"

func protoJSONBindings(t *testing.T, body string) int {
	t.Helper()
	var out struct {
		Results struct {
			Bindings []map[string]map[string]any `json:"bindings"`
		} `json:"results"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("invalid results JSON: %v\n%s", err, body)
	}
	return len(out.Results.Bindings)
}

// TestProtocolInvocationForms exercises the three SPARQL 1.1 Protocol
// query invocations; all must return the same result set.
func TestProtocolInvocationForms(t *testing.T) {
	srv := testServer(t)
	requests := map[string]*http.Request{
		"get": httptest.NewRequest(http.MethodGet, "/sparql?query="+url.QueryEscape(protoQuery), nil),
	}
	form := httptest.NewRequest(http.MethodPost, "/sparql",
		strings.NewReader(url.Values{"query": {protoQuery}}.Encode()))
	form.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	requests["urlencoded-post"] = form
	raw := httptest.NewRequest(http.MethodPost, "/sparql", strings.NewReader(protoQuery))
	raw.Header.Set("Content-Type", "application/sparql-query")
	requests["raw-post"] = raw
	// Content-type parameters must not break dispatch.
	rawParams := httptest.NewRequest(http.MethodPost, "/sparql", strings.NewReader(protoQuery))
	rawParams.Header.Set("Content-Type", "application/sparql-query; charset=UTF-8")
	requests["raw-post-params"] = rawParams

	for name, req := range requests {
		rr := httptest.NewRecorder()
		srv.handleSPARQL(rr, req)
		if rr.Code != http.StatusOK {
			t.Errorf("%s: status = %d body=%s", name, rr.Code, rr.Body.String())
			continue
		}
		if got := protoJSONBindings(t, rr.Body.String()); got != 3 {
			t.Errorf("%s: bindings = %d, want 3", name, got)
		}
	}
}

// TestProtocolContentNegotiation drives the Accept matrix: media types,
// aliases, q-values, wildcards, and the 406 path.
func TestProtocolContentNegotiation(t *testing.T) {
	srv := testServer(t)
	get := "/sparql?query=" + url.QueryEscape(protoQuery)
	cases := []struct {
		accept string
		wantCT string
	}{
		{"", "application/sparql-results+json"},
		{"application/sparql-results+json", "application/sparql-results+json"},
		{"application/json", "application/sparql-results+json"},
		{"application/sparql-results+xml", "application/sparql-results+xml"},
		{"application/xml", "application/sparql-results+xml"},
		{"text/csv", "text/csv; charset=utf-8"},
		{"text/tab-separated-values", "text/tab-separated-values; charset=utf-8"},
		{"*/*", "application/sparql-results+json"},
		{"text/*", "text/csv; charset=utf-8"},
		// q-values: the higher preference wins regardless of order.
		{"text/csv;q=0.3, application/sparql-results+xml;q=0.9", "application/sparql-results+xml"},
		{"application/sparql-results+xml;q=0.2, text/tab-separated-values", "text/tab-separated-values; charset=utf-8"},
		// An unsupported type falls through to a supported alternative.
		{"text/html, application/sparql-results+json;q=0.5", "application/sparql-results+json"},
		// q=0 refuses a type.
		{"text/csv;q=0, */*", "application/sparql-results+json"},
	}
	for _, tc := range cases {
		req := httptest.NewRequest(http.MethodGet, get, nil)
		if tc.accept != "" {
			req.Header.Set("Accept", tc.accept)
		}
		rr := httptest.NewRecorder()
		srv.handleSPARQL(rr, req)
		if rr.Code != http.StatusOK {
			t.Errorf("Accept %q: status = %d", tc.accept, rr.Code)
			continue
		}
		if ct := rr.Header().Get("Content-Type"); ct != tc.wantCT {
			t.Errorf("Accept %q: content type = %q, want %q", tc.accept, ct, tc.wantCT)
		}
	}
	// Unsatisfiable Accept: 406, and the query must not have run — the
	// error arrives before evaluation.
	req := httptest.NewRequest(http.MethodGet, get, nil)
	req.Header.Set("Accept", "text/html")
	rr := httptest.NewRecorder()
	srv.handleSPARQL(rr, req)
	if rr.Code != http.StatusNotAcceptable {
		t.Errorf("unsatisfiable Accept: status = %d, want 406", rr.Code)
	}
	// ?format= beats Accept.
	req = httptest.NewRequest(http.MethodGet, get+"&format=tsv", nil)
	req.Header.Set("Accept", "application/sparql-results+xml")
	rr = httptest.NewRecorder()
	srv.handleSPARQL(rr, req)
	if ct := rr.Header().Get("Content-Type"); ct != "text/tab-separated-values; charset=utf-8" {
		t.Errorf("format override: content type = %q", ct)
	}
}

// TestProtocolFormatValidatedBeforeEvaluation pins the bugfix: a bogus
// ?format= (or hopeless Accept) must be rejected without burning an
// evaluation. The probe is a query that would fail to parse — if
// validation happened after evaluation, the response would be the parse
// error, not the format error.
func TestProtocolFormatValidatedBeforeEvaluation(t *testing.T) {
	srv := testServer(t)
	rr := httptest.NewRecorder()
	srv.handleSPARQL(rr, httptest.NewRequest(http.MethodGet, "/sparql?query=NOT+SPARQL&format=bogus", nil))
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("status = %d", rr.Code)
	}
	if !strings.Contains(rr.Body.String(), "unknown format") {
		t.Errorf("want the format error (pre-evaluation), got: %s", rr.Body.String())
	}
}

func TestProtocolMethodAndMediaTypeErrors(t *testing.T) {
	srv := testServer(t)
	// 405 with Allow for non-GET/POST.
	for _, method := range []string{http.MethodDelete, http.MethodPut, http.MethodPatch} {
		rr := httptest.NewRecorder()
		srv.handleSPARQL(rr, httptest.NewRequest(method, "/sparql?query=ASK{}", nil))
		if rr.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s /sparql: status = %d, want 405", method, rr.Code)
		}
		if allow := rr.Header().Get("Allow"); allow != "GET, POST" {
			t.Errorf("%s /sparql: Allow = %q", method, allow)
		}
	}
	// 415 for POST bodies the endpoint does not speak (or none declared).
	for _, ct := range []string{"text/plain", "application/octet-stream", "application/json", ""} {
		req := httptest.NewRequest(http.MethodPost, "/sparql", strings.NewReader(protoQuery))
		if ct != "" {
			req.Header.Set("Content-Type", ct)
		}
		rr := httptest.NewRecorder()
		srv.handleSPARQL(rr, req)
		if rr.Code != http.StatusUnsupportedMediaType {
			t.Errorf("POST %q: status = %d, want 415", ct, rr.Code)
		}
	}
}

// TestProtocolBodyLimit pins the bugfix: a body over maxBodyBytes answers
// 413 in every body form. Each oversized body is a valid request padded
// with trailing whitespace, so a server that truncated it (as
// io.LimitReader once did) would evaluate the prefix and answer 200.
func TestProtocolBodyLimit(t *testing.T) {
	mux := testServer(t).mux()
	form := url.Values{"query": {protoQuery}}.Encode()
	cases := []struct {
		name, contentType, body, pad string
		size, want                   int
	}{
		{"raw at limit", "application/sparql-query", protoQuery, " ", maxBodyBytes, http.StatusOK},
		{"raw over limit", "application/sparql-query", protoQuery, " ", maxBodyBytes + 1, http.StatusRequestEntityTooLarge},
		{"urlencoded at limit", "application/x-www-form-urlencoded", form, "+", maxBodyBytes, http.StatusOK},
		{"urlencoded over limit", "application/x-www-form-urlencoded", form, "+", maxBodyBytes + 1, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body := tc.body + strings.Repeat(tc.pad, tc.size-len(tc.body))
			req := httptest.NewRequest(http.MethodPost, "/sparql", strings.NewReader(body))
			req.Header.Set("Content-Type", tc.contentType)
			rr := httptest.NewRecorder()
			mux.ServeHTTP(rr, req)
			if rr.Code != tc.want {
				t.Errorf("status = %d, want %d", rr.Code, tc.want)
			}
		})
	}
}

func TestProtocolConstructAnswersTurtle(t *testing.T) {
	srv := testServer(t)
	q := "CONSTRUCT { ?q a feo:FoodQuestion } WHERE { ?q a feo:FoodQuestion }"
	rr := httptest.NewRecorder()
	srv.handleSPARQL(rr, httptest.NewRequest(http.MethodGet, "/sparql?query="+url.QueryEscape(q), nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d body=%s", rr.Code, rr.Body.String())
	}
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/turtle") {
		t.Errorf("content type = %q, want text/turtle", ct)
	}
	if !strings.Contains(rr.Body.String(), "FoodQuestion") {
		t.Errorf("turtle body missing constructed triples:\n%s", rr.Body.String())
	}
}

// TestProtocolRowLimitTruncates drives the server-side result caps: the
// truncated JSON document stays well-formed and carries the in-band
// truncation member plus the trailer, and the truncation counter moves.
func TestProtocolRowLimitTruncates(t *testing.T) {
	srv := newAPIServer(feo.NewSession(feo.Options{}), 30*time.Second, 1, 0)
	rr := httptest.NewRecorder()
	srv.handleSPARQL(rr, httptest.NewRequest(http.MethodGet,
		"/sparql?query="+url.QueryEscape(protoQuery), nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d", rr.Code)
	}
	var doc struct {
		Results struct {
			Bindings []map[string]any `json:"bindings"`
		} `json:"results"`
		Truncated string `json:"truncated"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
		t.Fatalf("truncated response not well-formed: %v\n%s", err, rr.Body.String())
	}
	if len(doc.Results.Bindings) != 1 || doc.Truncated != "rows" {
		t.Errorf("bindings = %d truncated = %q, want 1/rows", len(doc.Results.Bindings), doc.Truncated)
	}
	if got := rr.Header().Get(truncationTrailer); got != "rows" {
		t.Errorf("trailer = %q, want rows", got)
	}
	if srv.metrics.truncations("rows").Value() != 1 {
		t.Error("truncation counter did not move")
	}
}

// TestProtocolQueryTimeout drives -query-timeout through the mux with a
// runaway cartesian product. Behind an ORDER BY barrier no row exists
// when the deadline fires, so the client gets a clean 503; without one
// rows are already on the wire, so the response is a 200 whose document
// ends well-formed and truncated, with the reason in the trailer.
func TestProtocolQueryTimeout(t *testing.T) {
	srv := newAPIServer(feo.NewSession(feo.Options{}), 50*time.Millisecond, 0, 0)
	mux := srv.mux()
	const product = "SELECT * WHERE { ?a ?b ?c . ?d ?e ?f . ?g ?h ?i }"
	get := func(q string) *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		mux.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/sparql?query="+url.QueryEscape(q), nil))
		return rr
	}
	if rr := get(product + " ORDER BY ?a"); rr.Code != http.StatusServiceUnavailable {
		t.Errorf("barrier query: status = %d, want 503", rr.Code)
	}
	rr := get(product)
	if rr.Code != http.StatusOK {
		t.Fatalf("streamed query: status = %d, want 200", rr.Code)
	}
	var doc struct {
		Results struct {
			Bindings []map[string]any `json:"bindings"`
		} `json:"results"`
		Truncated string `json:"truncated"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
		t.Fatalf("truncated response not well-formed: %v", err)
	}
	if len(doc.Results.Bindings) == 0 || doc.Truncated != "deadline" {
		t.Errorf("bindings = %d truncated = %q, want some/deadline", len(doc.Results.Bindings), doc.Truncated)
	}
	if got := rr.Result().Trailer.Get(truncationTrailer); got != "deadline" {
		t.Errorf("trailer = %q, want deadline", got)
	}
}

func TestRecommendLimitValidation(t *testing.T) {
	srv := testServer(t)
	for _, bad := range []string{"abc", "-3", "0", "1e3", "101"} {
		rr := httptest.NewRecorder()
		srv.handleRecommend(rr, httptest.NewRequest(http.MethodGet, "/recommend?user=feo:User2&limit="+bad, nil))
		if rr.Code != http.StatusBadRequest {
			t.Errorf("limit=%s: status = %d, want 400", bad, rr.Code)
		}
	}
	// In-range limits still work, and the default applies when absent.
	for _, u := range []string{"/recommend?user=feo:User2&limit=2", "/recommend?user=feo:User2"} {
		rr := httptest.NewRecorder()
		srv.handleRecommend(rr, httptest.NewRequest(http.MethodGet, u, nil))
		if rr.Code != http.StatusOK {
			t.Errorf("%s: status = %d body=%s", u, rr.Code, rr.Body.String())
		}
	}
}

// TestRecommendUnknownUser pins the bugfix that an IRI which is not a
// food:User got a 200 with a constraint-free ranking, from /recommend and
// from `feo recommend -user`/`-group` alike.
func TestRecommendUnknownUser(t *testing.T) {
	srv := testServer(t)
	for _, u := range []string{"feo:Nobody", "feo:Sushi"} {
		rr := httptest.NewRecorder()
		srv.handleRecommend(rr, httptest.NewRequest(http.MethodGet, "/recommend?user="+u, nil))
		var body struct{ Error string }
		if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
			t.Fatal(err)
		}
		if rr.Code != http.StatusNotFound || !strings.HasPrefix(body.Error, "unknown user <https://") {
			t.Errorf("user=%s: status = %d error = %q, want 404 unknown user <IRI>", u, rr.Code, body.Error)
		}
	}
	for _, args := range [][]string{
		{"-user", "feo:Nobody"},
		{"-group", "feo:User2,feo:Nobody"},
	} {
		if err := cmdRecommend(args); err == nil || !strings.Contains(err.Error(), "unknown user") {
			t.Errorf("feo recommend %v: err = %v, want unknown user", args, err)
		}
	}
	if err := cmdRecommend([]string{"-user", "feo:User2", "-limit", "1"}); err != nil {
		t.Errorf("feo recommend -user feo:User2: %v", err)
	}
}

// TestMethodHardening pins the bugfix that POST/DELETE /stats (and
// non-GET /recommend) returned 200.
func TestMethodHardening(t *testing.T) {
	srv := testServer(t)
	cases := []struct {
		method  string
		handler http.HandlerFunc
		path    string
		allow   string
	}{
		{http.MethodPost, srv.handleStats, "/stats", "GET"},
		{http.MethodDelete, srv.handleStats, "/stats", "GET"},
		{http.MethodPost, srv.handleRecommend, "/recommend", "GET"},
		{http.MethodDelete, srv.handleRecommend, "/recommend", "GET"},
		{http.MethodDelete, srv.handleMetrics, "/metrics", "GET"},
		{http.MethodGet, srv.handleExplain, "/explain", "POST"},
	}
	for _, tc := range cases {
		rr := httptest.NewRecorder()
		tc.handler(rr, httptest.NewRequest(tc.method, tc.path, nil))
		if rr.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status = %d, want 405", tc.method, tc.path, rr.Code)
		}
		if allow := rr.Header().Get("Allow"); allow != tc.allow {
			t.Errorf("%s %s: Allow = %q, want %q", tc.method, tc.path, allow, tc.allow)
		}
	}
}

// TestMetricsEndpoint drives requests through the instrumented mux and
// checks the exposition carries the families the load harness consumes.
func TestMetricsEndpoint(t *testing.T) {
	srv := testServer(t)
	mux := srv.mux()
	for i := 0; i < 3; i++ {
		rr := httptest.NewRecorder()
		mux.ServeHTTP(rr, httptest.NewRequest(http.MethodGet,
			"/sparql?query="+url.QueryEscape(protoQuery), nil))
		if rr.Code != http.StatusOK {
			t.Fatalf("sparql via mux: %d", rr.Code)
		}
	}
	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("/metrics status = %d", rr.Code)
	}
	out := rr.Body.String()
	for _, want := range []string{
		`feo_http_request_duration_seconds_bucket{endpoint="/sparql",le="+Inf"} 3`,
		`feo_http_requests_total{code="200",endpoint="/sparql"} 3`,
		"feo_query_plan_cache_hits",
		"feo_query_plan_cache_misses",
		"feo_snapshot_age_seconds",
		"feo_graph_triples",
		"feo_reasoner_inferred_total",
		"feo_reasoner_last_run_inferred",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Plan-cache hits must be non-zero after repeating one query: the
	// serve path keeps the cached plan hot across requests.
	if strings.Contains(out, "feo_query_plan_cache_hits 0\n") {
		t.Error("plan cache never hit across repeated identical queries")
	}
}

// TestSPARQLGraphResultHonoursLimits gives CONSTRUCT/DESCRIBE the SELECT
// contract: -max-rows counts triples, -max-bytes cuts between subject
// blocks, and either ends a parseable Turtle document with a
// "# truncated: <reason>" line plus the trailer; a deadline before the
// first byte is a 503; an uncapped answer is exactly WriteGraphTurtle of
// the materialized result graph.
func TestSPARQLGraphResultHonoursLimits(t *testing.T) {
	sess := feo.NewSession(feo.Options{})
	const construct = "CONSTRUCT { ?s a ?c } WHERE { ?s a ?c }"
	get := func(srv *apiServer, q string) *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		srv.mux().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/sparql?query="+url.QueryEscape(q), nil))
		return rr
	}
	res, err := sess.Snapshot().Query(construct)
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	if err := feo.WriteGraphTurtle(&want, res.Graph); err != nil {
		t.Fatal(err)
	}
	if res.Graph.Len() < 20 || want.Len() < 4000 {
		t.Fatalf("fixture too small: %d triples, %d bytes", res.Graph.Len(), want.Len())
	}
	full := get(newAPIServer(sess, 30*time.Second, 0, 0), construct)
	if full.Code != http.StatusOK || full.Body.String() != want.String() {
		t.Fatalf("uncapped CONSTRUCT: status %d, body differs from WriteGraphTurtle (%d vs %d bytes)",
			full.Code, full.Body.Len(), want.Len())
	}
	if got := full.Result().Trailer.Get(truncationTrailer); got != "" {
		t.Errorf("uncapped CONSTRUCT: trailer = %q", got)
	}
	for _, tc := range []struct {
		name     string
		srv      *apiServer
		query    string
		reason   string
		triples  int // exact triple count, or -1 for "fewer than the full graph"
		maxBytes int
	}{
		{"max-rows", newAPIServer(sess, 30*time.Second, 5, 0), construct, "rows", 5, 0},
		{"max-bytes", newAPIServer(sess, 30*time.Second, 0, 1000), construct, "bytes", -1, 1000},
		{"describe max-rows", newAPIServer(sess, 30*time.Second, 3, 0),
			"DESCRIBE ?q WHERE { ?q a feo:FoodQuestion }", "rows", 3, 0},
	} {
		rr := get(tc.srv, tc.query)
		if rr.Code != http.StatusOK {
			t.Fatalf("%s: status = %d body=%s", tc.name, rr.Code, rr.Body.String())
		}
		body := rr.Body.String()
		if got := rr.Result().Trailer.Get(truncationTrailer); got != tc.reason {
			t.Errorf("%s: trailer = %q, want %q", tc.name, got, tc.reason)
		}
		if !strings.HasSuffix(body, "# truncated: "+tc.reason+"\n") {
			t.Errorf("%s: body does not end with the truncation comment:\n%s", tc.name, body)
		}
		g, err := turtle.Parse(body)
		if err != nil {
			t.Fatalf("%s: truncated body is not Turtle: %v\n%s", tc.name, err, body)
		}
		switch {
		case tc.triples >= 0 && g.Len() != tc.triples:
			t.Errorf("%s: %d triples, want %d", tc.name, g.Len(), tc.triples)
		case tc.triples < 0 && (g.Len() == 0 || g.Len() >= res.Graph.Len()):
			t.Errorf("%s: %d triples, want a nonempty part of %d", tc.name, g.Len(), res.Graph.Len())
		}
		if tc.maxBytes > 0 && len(body) > 2*tc.maxBytes {
			t.Errorf("%s: %d bytes for a %d-byte cap", tc.name, len(body), tc.maxBytes)
		}
		if tc.triples > 0 && !strings.HasPrefix(want.String(), strings.TrimSuffix(body, "# truncated: "+tc.reason+"\n")[:200]) {
			t.Errorf("%s: truncated body is not a prefix of the full document", tc.name)
		}
	}
	slow := newAPIServer(sess, 50*time.Millisecond, 0, 0)
	if rr := get(slow, "CONSTRUCT { ?a ?b ?i } WHERE { ?a ?b ?c . ?d ?e ?f . ?g ?h ?i }"); rr.Code != http.StatusServiceUnavailable {
		t.Errorf("runaway CONSTRUCT: status = %d, want 503", rr.Code)
	}
}
