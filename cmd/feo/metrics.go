package main

import (
	"log"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/feo"
	"repro/internal/metrics"
)

// serverMetrics instruments the serve tier: per-endpoint latency
// histograms and response counters, SPARQL truncation counters, and
// scrape-time gauges over the session (plan-cache hit/miss counts,
// snapshot age, graph size, reasoner inference counters, failed
// compactions). Everything is served from one registry on GET /metrics in
// the Prometheus text format.
type serverMetrics struct {
	reg *metrics.Registry

	// Snapshot-age tracking: the store does not timestamp versions, so the
	// server records the wall-clock instant it first observes each new
	// version; age is measured from that instant. Updated on every scrape
	// and every instrumented request.
	mu          sync.Mutex
	lastVersion uint64
	lastChange  time.Time
}

func newServerMetrics(sess *feo.Session) *serverMetrics {
	m := &serverMetrics{reg: metrics.NewRegistry(), lastChange: time.Now()}
	m.lastVersion = sess.Version()
	m.reg.GaugeFunc("feo_query_plan_cache_hits",
		"Cumulative SPARQL plan-cache hits.", func() float64 {
			hits, _ := feo.QueryPlanCacheStats()
			return float64(hits)
		})
	m.reg.GaugeFunc("feo_query_plan_cache_misses",
		"Cumulative SPARQL plan-cache misses.", func() float64 {
			_, misses := feo.QueryPlanCacheStats()
			return float64(misses)
		})
	m.reg.GaugeFunc("feo_snapshot_age_seconds",
		"Seconds since the published graph version last changed (as observed by this server).",
		func() float64 { return m.observeVersion(sess.Version()).Seconds() })
	m.reg.GaugeFunc("feo_graph_triples",
		"Triples in the latest published graph version.", func() float64 {
			return float64(sess.Snapshot().Graph().Len())
		})
	m.reg.GaugeFunc("feo_reasoner_inferred_total",
		"Triples the reasoner has inferred on the current graph, cumulative.", func() float64 {
			total, _ := sess.ReasonerInferred()
			return float64(total)
		})
	m.reg.GaugeFunc("feo_reasoner_last_run_inferred",
		"Triples inferred by the most recent materialization run (the reasoner delta).", func() float64 {
			_, lastRun := sess.ReasonerInferred()
			return float64(lastRun)
		})
	m.reg.GaugeFunc("feo_compaction_failures_total",
		"Durability compactions that failed (the WAL chain kept every commit).", func() float64 {
			return float64(sess.CompactionFailures())
		})
	return m
}

// observeVersion folds a freshly pinned version into the age tracker and
// returns the current snapshot age.
func (m *serverMetrics) observeVersion(v uint64) time.Duration {
	now := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	if v != m.lastVersion {
		m.lastVersion = v
		m.lastChange = now
	}
	return now.Sub(m.lastChange)
}

// duration returns the latency histogram for one endpoint.
func (m *serverMetrics) duration(endpoint string) *metrics.Histogram {
	return m.reg.Histogram("feo_http_request_duration_seconds",
		"HTTP request latency by endpoint.", nil, metrics.Label{Name: "endpoint", Value: endpoint})
}

// requests returns the response counter for one (endpoint, status) pair.
func (m *serverMetrics) requests(endpoint string, status int) *metrics.Counter {
	return m.reg.Counter("feo_http_requests_total",
		"HTTP responses by endpoint and status code.",
		metrics.Label{Name: "endpoint", Value: endpoint},
		metrics.Label{Name: "code", Value: strconv.Itoa(status)})
}

// truncations returns the counter of streamed results cut short, by
// reason ("rows", "bytes", "deadline").
func (m *serverMetrics) truncations(reason string) *metrics.Counter {
	return m.reg.Counter("feo_sparql_truncated_total",
		"Streamed SPARQL results truncated by a server limit, by reason.",
		metrics.Label{Name: "reason", Value: reason})
}

// statusRecorder captures the response status for instrumentation while
// passing streaming writes (and Flush) straight through.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with latency and response-code accounting
// (and keeps the snapshot-age tracker current on the request path). The
// 200 series is resolved once here; other codes are looked up per
// response.
func (s *apiServer) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	hist := s.metrics.duration(endpoint)
	ok := s.metrics.requests(endpoint, http.StatusOK)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sr := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h(sr, r)
		hist.Observe(time.Since(start).Seconds())
		if sr.status == http.StatusOK {
			ok.Inc()
		} else {
			s.metrics.requests(endpoint, sr.status).Inc()
		}
		s.metrics.observeVersion(s.sess.Version())
	}
}

// handleMetrics serves the Prometheus text exposition.
func (s *apiServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, errMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.metrics.reg.WritePrometheus(w); err != nil {
		log.Printf("feo: write metrics: %v", err)
	}
}
