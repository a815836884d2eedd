package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/feo"
)

func testServer(t *testing.T) *apiServer {
	t.Helper()
	return newAPIServer(feo.NewSession(feo.Options{}), 30*time.Second, 0, 0)
}

func TestSPARQLEndpointGET(t *testing.T) {
	srv := testServer(t)
	req := httptest.NewRequest(http.MethodGet,
		"/sparql?query="+strings.ReplaceAll("SELECT ?q WHERE { ?q a feo:FoodQuestion }", " ", "%20"), nil)
	rr := httptest.NewRecorder()
	srv.handleSPARQL(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d body=%s", rr.Code, rr.Body.String())
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/sparql-results+json" {
		t.Errorf("content type = %q", ct)
	}
	var out struct {
		Head struct {
			Vars []string `json:"vars"`
		} `json:"head"`
		Results struct {
			Bindings []map[string]map[string]any `json:"bindings"`
		} `json:"results"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results.Bindings) != 3 {
		t.Errorf("bindings = %d, want 3 questions", len(out.Results.Bindings))
	}
}

func TestSPARQLEndpointFormats(t *testing.T) {
	srv := testServer(t)
	query := "/sparql?query=" + strings.ReplaceAll("SELECT ?q WHERE { ?q a feo:FoodQuestion }", " ", "%20")
	for format, wantCT := range map[string]string{
		"csv": "text/csv; charset=utf-8",
		"tsv": "text/tab-separated-values; charset=utf-8",
		"xml": "application/sparql-results+xml",
	} {
		rr := httptest.NewRecorder()
		srv.handleSPARQL(rr, httptest.NewRequest(http.MethodGet, query+"&format="+format, nil))
		if rr.Code != http.StatusOK {
			t.Errorf("%s: status %d", format, rr.Code)
		}
		if ct := rr.Header().Get("Content-Type"); ct != wantCT {
			t.Errorf("%s: content type %q, want %q", format, ct, wantCT)
		}
	}
	// Accept-header negotiation.
	req := httptest.NewRequest(http.MethodGet, query, nil)
	req.Header.Set("Accept", "text/csv")
	rr := httptest.NewRecorder()
	srv.handleSPARQL(rr, req)
	if ct := rr.Header().Get("Content-Type"); ct != "text/csv; charset=utf-8" {
		t.Errorf("accept negotiation: %q", ct)
	}
	// Unknown format rejected.
	rr = httptest.NewRecorder()
	srv.handleSPARQL(rr, httptest.NewRequest(http.MethodGet, query+"&format=bogus", nil))
	if rr.Code != http.StatusBadRequest {
		t.Errorf("bogus format status = %d", rr.Code)
	}
}

func TestSPARQLEndpointPOSTAndAsk(t *testing.T) {
	srv := testServer(t)
	body := strings.NewReader(`ASK { feo:Sushi feo:hasIngredient feo:RawFish }`)
	req := httptest.NewRequest(http.MethodPost, "/sparql", body)
	req.Header.Set("Content-Type", "application/sparql-query")
	rr := httptest.NewRecorder()
	srv.handleSPARQL(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d body=%s", rr.Code, rr.Body.String())
	}
	var out struct {
		Boolean *bool `json:"boolean"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Boolean == nil || !*out.Boolean {
		t.Errorf("ASK should be true: %s", rr.Body.String())
	}
}

func TestSPARQLEndpointErrors(t *testing.T) {
	srv := testServer(t)
	// Missing query.
	rr := httptest.NewRecorder()
	srv.handleSPARQL(rr, httptest.NewRequest(http.MethodGet, "/sparql", nil))
	if rr.Code != http.StatusBadRequest {
		t.Errorf("missing query status = %d", rr.Code)
	}
	// Malformed query.
	rr = httptest.NewRecorder()
	srv.handleSPARQL(rr, httptest.NewRequest(http.MethodGet, "/sparql?query=SELECT", nil))
	if rr.Code != http.StatusBadRequest {
		t.Errorf("bad query status = %d", rr.Code)
	}
}

func TestExplainEndpoint(t *testing.T) {
	srv := testServer(t)
	body := strings.NewReader(`{
		"type": "contextual",
		"primary": "feo:CauliflowerPotatoCurry"
	}`)
	req := httptest.NewRequest(http.MethodPost, "/explain", body)
	rr := httptest.NewRecorder()
	srv.handleExplain(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d body=%s", rr.Code, rr.Body.String())
	}
	var out struct {
		Summary  string   `json:"summary"`
		Evidence []string `json:"evidence"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.Summary, "Autumn") {
		t.Errorf("summary = %q", out.Summary)
	}
	if len(out.Evidence) == 0 {
		t.Error("no evidence in response")
	}
}

func TestExplainEndpointValidation(t *testing.T) {
	srv := testServer(t)
	mux := srv.mux()
	cases := []struct {
		name, body string
		wantStatus int
	}{
		{"bad type", `{"type":"bogus","primary":"feo:Sushi"}`, http.StatusBadRequest},
		{"bad term", `{"type":"contextual","primary":"nope:X"}`, http.StatusBadRequest},
		{"missing primary", `{"type":"contextual"}`, http.StatusUnprocessableEntity},
		{"bad json", `{`, http.StatusBadRequest},
		{"oversized", `{"type":"contextual","text":"` + strings.Repeat("x", maxBodyBytes) + `"}`, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(http.MethodPost, "/explain", strings.NewReader(tc.body))
			rr := httptest.NewRecorder()
			mux.ServeHTTP(rr, req)
			if rr.Code != tc.wantStatus {
				t.Errorf("status = %d, want %d (%s)", rr.Code, tc.wantStatus, rr.Body.String())
			}
		})
	}
	// GET not allowed.
	rr := httptest.NewRecorder()
	srv.handleExplain(rr, httptest.NewRequest(http.MethodGet, "/explain", nil))
	if rr.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /explain status = %d", rr.Code)
	}
}

// TestConcurrentExplainAndSPARQL hammers the mutating /explain endpoint
// concurrently with /sparql and /recommend readers. Before feo.Session
// gated mutation behind its RWMutex this was a data race (the explain
// engine asserts individuals into the graph while queries walk its
// indexes) that -race reliably caught; the test pins the fix.
func TestConcurrentExplainAndSPARQL(t *testing.T) {
	srv := testServer(t)
	query := "/sparql?query=" + strings.ReplaceAll(
		"SELECT ?e WHERE { ?e a eo:Explanation }", " ", "%20")
	const workers, rounds = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(3)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				body := strings.NewReader(`{"type":"contextual","primary":"feo:CauliflowerPotatoCurry"}`)
				rr := httptest.NewRecorder()
				srv.handleExplain(rr, httptest.NewRequest(http.MethodPost, "/explain", body))
				if rr.Code != http.StatusOK {
					t.Errorf("explain status = %d body=%s", rr.Code, rr.Body.String())
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				rr := httptest.NewRecorder()
				srv.handleSPARQL(rr, httptest.NewRequest(http.MethodGet, query, nil))
				if rr.Code != http.StatusOK {
					t.Errorf("sparql status = %d body=%s", rr.Code, rr.Body.String())
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				rr := httptest.NewRecorder()
				srv.handleRecommend(rr, httptest.NewRequest(http.MethodGet, "/recommend?user=feo:User2&limit=3", nil))
				if rr.Code != http.StatusOK {
					t.Errorf("recommend status = %d body=%s", rr.Code, rr.Body.String())
					return
				}
			}
		}()
	}
	wg.Wait()
	// The explanations asserted under the write lock must be visible to a
	// subsequent read.
	rr := httptest.NewRecorder()
	srv.handleStats(rr, httptest.NewRequest(http.MethodGet, "/stats", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("stats after hammering = %d", rr.Code)
	}
}

func TestRecommendEndpoint(t *testing.T) {
	srv := testServer(t)
	req := httptest.NewRequest(http.MethodGet, "/recommend?user=feo:User2&limit=3", nil)
	rr := httptest.NewRecorder()
	srv.handleRecommend(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d body=%s", rr.Code, rr.Body.String())
	}
	var out []struct {
		Label string  `json:"label"`
		Score float64 `json:"score"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Error("no recommendations")
	}
}

func TestStatsEndpoint(t *testing.T) {
	srv := testServer(t)
	rr := httptest.NewRecorder()
	srv.handleStats(rr, httptest.NewRequest(http.MethodGet, "/stats", nil))
	if rr.Code != http.StatusOK || !strings.Contains(rr.Body.String(), "triples=") {
		t.Errorf("stats response: %d %s", rr.Code, rr.Body.String())
	}
}

func TestResolveTerm(t *testing.T) {
	if tm, err := resolveTerm("feo:Sushi"); err != nil || !strings.HasSuffix(tm.Value, "Sushi") {
		t.Errorf("resolveTerm qname: %v %v", tm, err)
	}
	if tm, err := resolveTerm("https://x/y"); err != nil || tm.Value != "https://x/y" {
		t.Errorf("resolveTerm iri: %v %v", tm, err)
	}
	if tm, err := resolveTerm(""); err != nil || tm.IsValid() {
		t.Errorf("resolveTerm empty: %v %v", tm, err)
	}
	if _, err := resolveTerm("nope:x"); err == nil {
		t.Error("unbound prefix should error")
	}
}

func TestNewSessionDatasets(t *testing.T) {
	for _, data := range []string{"cq1", "cq2", "cq3", "all", "none", "synthetic"} {
		s, err := newSession(data)
		if err != nil {
			t.Errorf("newSession(%s): %v", data, err)
			continue
		}
		if s.Graph().Len() == 0 {
			t.Errorf("newSession(%s): empty graph", data)
		}
	}
	if _, err := newSession("bogus"); err == nil {
		t.Error("bogus dataset should error")
	}
}

// TestExplainSurvivesFailedCompaction: an /explain whose commit triggers
// a compaction that fails answers 200 — the explanation is durably
// logged — and /metrics counts the failed compaction.
func TestExplainSurvivesFailedCompaction(t *testing.T) {
	dir := t.TempDir()
	sess, err := feo.Open(feo.Options{DataDir: dir, CompactBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	// A directory squatting on the snapshot temp file's name fails the
	// compaction's write, even for root.
	if err := os.Mkdir(filepath.Join(dir, "snapshot.bin.tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	mux := newAPIServer(sess, 30*time.Second, 0, 0).mux()
	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/explain",
		strings.NewReader(`{"type": "contextual", "primary": "feo:CauliflowerPotatoCurry"}`)))
	if rr.Code != http.StatusOK {
		t.Fatalf("explain status = %d body=%s", rr.Code, rr.Body.String())
	}
	rr = httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if !strings.Contains(rr.Body.String(), "\nfeo_compaction_failures_total 1\n") {
		t.Errorf("/metrics does not count the failed compaction:\n%s", rr.Body.String())
	}
}
