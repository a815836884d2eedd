package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"repro/feo"
)

// cmdServe starts the HTTP API:
//
//	/sparql     SPARQL 1.1 Protocol query endpoint (see sparqlproto.go):
//	            GET ?query=..., POST application/x-www-form-urlencoded,
//	            POST application/sparql-query (plus the legacy JSON body).
//	            Results stream in the negotiated W3C format — JSON, XML,
//	            CSV, or TSV via ?format= or the Accept header — with
//	            O(row) serialization memory. CONSTRUCT/DESCRIBE answer
//	            text/turtle, written from dictionary IDs.
//	POST /explain    {"type","primary","secondary","user"} -> explanation
//	GET  /recommend?user=IRI&limit=N   (1 <= N <= 100; an IRI that is
//	                 not a food:User answers 404 "unknown user <IRI>")
//	GET  /stats      graph statistics
//	GET  /metrics    Prometheus text exposition: per-endpoint latency
//	                 histograms and response counters, plan-cache
//	                 hit/miss counts, snapshot age, graph size, and
//	                 reasoner inference gauges
//
// Every query — CONSTRUCT and DESCRIBE included — runs under
// -query-timeout plus the -max-rows / -max-bytes result caps: a runaway
// query is canceled cooperatively, and one that trips a cap mid-stream
// ends with a well-formed truncated document whose reason travels in the
// X-Feo-Truncated trailer (JSON and XML also record it in-band, Turtle
// in a final "# truncated: <reason>" comment). For a graph result
// -max-rows counts triples. Unknown methods get 405 with Allow, unsupported
// POST bodies 415, unsatisfiable Accept headers 406 — all decided before
// any evaluation work.
//
// net/http serves each request on its own goroutine, and /explain mutates
// the graph (the engine asserts question and explanation individuals), so
// handler concurrency is exactly the writer-vs-reader mix. feo.Session
// resolves it with MVCC snapshots: every read handler pins the latest
// published version (one atomic load, zero lock hold) and runs entirely
// against that immutable view, so /sparql, /recommend, and /stats never
// queue — not behind each other and not behind an in-flight /explain,
// even one stalled in a WAL fsync. Explanation writes serialize among
// themselves and publish a new version when they commit; a handler that
// makes several session calls pins one snapshot so they all observe the
// same version.
//
// The server carries read/write/idle timeouts (a stuck client cannot pin
// a connection forever) and shuts down gracefully on SIGINT/SIGTERM:
// in-flight requests drain, then the session's write-ahead log is flushed
// and closed, so a deliberate stop never relies on crash recovery.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	data := dataFlag(fs)
	datadir := datadirFlag(fs)
	sync := syncFlag(fs)
	addr := fs.String("addr", ":8080", "listen address")
	queryTimeout := fs.Duration("query-timeout", 30*time.Second, "per-query deadline (0 = none)")
	maxRows := fs.Int("max-rows", 0, "cap on result rows per query (0 = unlimited)")
	maxBytes := fs.Int64("max-bytes", 0, "cap on serialized result bytes per query (0 = unlimited)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, err := openSession(*data, *datadir, *sync)
	if err != nil {
		return err
	}
	srv := newAPIServer(s, *queryTimeout, *maxRows, *maxBytes)
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.mux(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() {
		if *datadir != "" {
			log.Printf("feo: serving on %s (dataset %s, durable in %s)", *addr, *data, *datadir)
		} else {
			log.Printf("feo: serving on %s (dataset %s)", *addr, *data)
		}
		errCh <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		s.Close()
		return err
	case <-ctx.Done():
	}
	log.Printf("feo: shutting down (draining in-flight requests)")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	shutdownErr := httpSrv.Shutdown(shutdownCtx)
	if closeErr := s.Close(); shutdownErr == nil {
		shutdownErr = closeErr
	}
	if errors.Is(shutdownErr, http.ErrServerClosed) {
		shutdownErr = nil
	}
	if shutdownErr == nil {
		log.Printf("feo: shutdown complete")
	}
	return shutdownErr
}

type apiServer struct {
	sess         *feo.Session
	metrics      *serverMetrics
	queryTimeout time.Duration
	maxRows      int
	maxBytes     int64
}

func newAPIServer(s *feo.Session, queryTimeout time.Duration, maxRows int, maxBytes int64) *apiServer {
	return &apiServer{
		sess:         s,
		metrics:      newServerMetrics(s),
		queryTimeout: queryTimeout,
		maxRows:      maxRows,
		maxBytes:     maxBytes,
	}
}

// maxBodyBytes bounds every request body; reading past it fails the read,
// which the handlers answer with 413 (see bodyErrorStatus).
const maxBodyBytes = 1 << 20

// mux routes the API with per-endpoint instrumentation and the body bound.
func (s *apiServer) mux() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/sparql", s.instrument("/sparql", s.handleSPARQL))
	mux.HandleFunc("/explain", s.instrument("/explain", s.handleExplain))
	mux.HandleFunc("/recommend", s.instrument("/recommend", s.handleRecommend))
	mux.HandleFunc("/stats", s.instrument("/stats", s.handleStats))
	mux.HandleFunc("/metrics", s.handleMetrics)
	return http.MaxBytesHandler(mux, maxBodyBytes)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("feo: encode response: %v", err)
	}
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// bodyErrorStatus maps a failure to read or decode a request body to its
// status: 413 when the body overflowed maxBodyBytes, 400 otherwise.
func bodyErrorStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func (s *apiServer) handleExplain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, errMethodNotAllowed)
		return
	}
	var body struct {
		Type      string `json:"type"`
		Primary   string `json:"primary"`
		Secondary string `json:"secondary"`
		User      string `json:"user"`
		Text      string `json:"text"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		writeError(w, bodyErrorStatus(err), fmt.Errorf("malformed JSON body: %w", err))
		return
	}
	et, err := feo.ParseExplanationType(body.Type)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	primary, err := resolveTerm(body.Primary)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	secondary, err := resolveTerm(body.Secondary)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	user, err := resolveTerm(body.User)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ex, err := s.sess.Explain(feo.Question{
		Type: et, Primary: primary, Secondary: secondary, User: user, Text: body.Text,
	})
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	evidence := make([]string, 0, len(ex.Evidence))
	for _, ev := range ex.Evidence {
		evidence = append(evidence, ev.Phrase)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"type":     ex.Type.String(),
		"summary":  ex.Summary,
		"evidence": evidence,
	})
}

// maxRecommendLimit bounds ?limit= on /recommend: the coach keeps a
// heap of limit candidates and renders a trace for each, so an absurd
// limit would cost absurd work and serialize an absurd response.
const maxRecommendLimit = 100

func (s *apiServer) handleRecommend(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, errMethodNotAllowed)
		return
	}
	userStr := r.URL.Query().Get("user")
	user, err := resolveTerm(userStr)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	limit := 5
	if ls := r.URL.Query().Get("limit"); ls != "" {
		limit, err = strconv.Atoi(ls)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("limit %q is not an integer", ls))
			return
		}
		if limit <= 0 || limit > maxRecommendLimit {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("limit must be in 1..%d, got %d", maxRecommendLimit, limit))
			return
		}
	}
	// One pinned snapshot for the whole request: the user listing and the
	// ranking are guaranteed to observe the same graph version.
	sn := s.sess.Snapshot()
	if !user.IsValid() {
		users := sn.Users()
		if len(users) == 0 {
			writeError(w, http.StatusNotFound, fmt.Errorf("no users in dataset"))
			return
		}
		user = users[0]
	} else if err := checkUser(sn, user); err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	recs := sn.Recommend(user, limit)
	type rec struct {
		Recipe   string  `json:"recipe"`
		Label    string  `json:"label"`
		Score    float64 `json:"score"`
		Excluded bool    `json:"excluded,omitempty"`
		Reason   string  `json:"reason,omitempty"`
	}
	out := make([]rec, 0, len(recs))
	for _, r := range recs {
		out = append(out, rec{
			Recipe: r.Recipe.Value, Label: r.Label, Score: r.Score,
			Excluded: r.Excluded, Reason: r.Reason,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *apiServer) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, errMethodNotAllowed)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"stats": s.sess.Snapshot().Stats()})
}
