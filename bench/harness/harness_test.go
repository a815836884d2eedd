package harness

import (
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"repro/bench/workload"
)

func TestPercentileIsNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {10, 1}, {100, 10}} {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("Percentile(p%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile(empty) = %g, want 0", got)
	}
}

// The tail percentile is the highest of p99/p90 with at least ten samples
// beyond it.
func TestTailLevelNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{99, 50}, {100, 90}, {999, 90}, {1000, 99}, {70000, 99}} {
		if got := TailLevel(c.n); got != c.want {
			t.Errorf("TailLevel(%d) = p%g, want p%g", c.n, got, c.want)
		}
		if got := TailLevel(c.n); got > 50 && float64(c.n)*(100-got)/100 < 10 {
			t.Errorf("TailLevel(%d) = p%g leaves fewer than ten samples beyond it", c.n, got)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g, want 2", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g, want 2.5", got)
	}
}

// Reference values from Python: statistics.quantiles(xs, n=4).
func TestQuartilesMatchPythonStatistics(t *testing.T) {
	q1, q2, q3 := Quartiles([]float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("Quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = Quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("Quartiles(1,2,4,8,16) = %g %g %g, want 1.5 4 12", q1, q2, q3)
	}
}

func fixture(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// The fixtures were recorded from a live `feo serve` (pid 4215).
func TestProcParsersOnRecordedFixtures(t *testing.T) {
	user, sys, err := ParseStat(fixture(t, "proc_stat.txt"))
	if err != nil || user != 160 || sys != 70 {
		t.Errorf("ParseStat = %g ms user, %g ms sys, %v; want 160, 70 (16 and 7 ticks)", user, sys, err)
	}
	// A command name with spaces and parentheses must not shift the fields.
	user, sys, err = ParseStat([]byte("1 (a b) c)) S 1 1 1 0 -1 0 0 0 0 0 3 4 0 0 20 0 1 0 1 1 1"))
	if err != nil || user != 30 || sys != 40 {
		t.Errorf("ParseStat with an awkward command = %g, %g, %v; want 30, 40", user, sys, err)
	}
	hwm, err := ParseStatusHWM(fixture(t, "proc_status.txt"))
	if err != nil || math.Abs(hwm-112584*1024/1e6) > 1e-9 {
		t.Errorf("ParseStatusHWM = %g MB, %v; want 112584 kB", hwm, err)
	}
	wchar, syscw, err := ParseIO(fixture(t, "proc_io.txt"))
	if err != nil || wchar != 26279 || syscw != 10 {
		t.Errorf("ParseIO = %g bytes, %g syscalls, %v; want 26279, 10", wchar, syscw, err)
	}
	if _, _, err := ParseIO([]byte("rchar: 1\n")); err == nil {
		t.Error("ParseIO accepted a file without wchar")
	}
}

func TestMetricsParserOnRecordedFixture(t *testing.T) {
	m, err := ParseMetrics(string(fixture(t, "metrics.txt")))
	if err != nil {
		t.Fatal(err)
	}
	if got := m["feo_graph_triples"]; got != 115846 {
		t.Errorf("feo_graph_triples = %g, want 115846", got)
	}
	if got := m[`feo_http_requests_total{code="400",endpoint="/sparql"}`]; got != 1 {
		t.Errorf("400s on /sparql = %g, want 1", got)
	}
	zero := Metrics{}
	// Two /sparql requests took 0.000510334 s in the handler together.
	if got := HandlerMeanUS(zero, m, "/sparql"); math.Abs(got-255.167) > 1e-3 {
		t.Errorf("HandlerMeanUS(/sparql) = %g, want 255.167", got)
	}
	if got := HandlerMeanUS(zero, m, "/recommend"); got != 0 {
		t.Errorf("HandlerMeanUS of an idle endpoint = %g, want 0", got)
	}
	if got := Non2xx(zero, m); got != 1 {
		t.Errorf("Non2xx = %g, want 1", got)
	}
	if got := Non2xx(m, m); got != 0 {
		t.Errorf("Non2xx over an empty interval = %g, want 0", got)
	}
	if _, err := ParseMetrics("feo_graph_triples\n"); err == nil {
		t.Error("ParseMetrics accepted a sample without a value")
	}
}

func digest(chunks ...string) BodySum {
	var d Digest
	for _, c := range chunks {
		d.Write([]byte(c))
	}
	return d.Sum()
}

func TestDigestIgnoresRowOrderAndChunking(t *testing.T) {
	a := digest("{\"head\":[\n{\"r\":1},\n{\"r\":2}\n]}\n")
	b := digest("{\"head\":[\n{\"r\":2},\n{\"r\":1}\n]}\n") // the comma moved with the order
	if a != b {
		t.Errorf("row order changed the digest: %v vs %v", a, b)
	}
	if c := digest("{\"head\":[\n{\"r\"", ":1},\n{\"r\":2}\n", "]}\n"); a != c {
		t.Errorf("chunking changed the digest: %v vs %v", a, c)
	}
	if c := digest("{\"head\":[\n{\"r\":1},\n{\"r\":3}\n]}\n"); a == c {
		t.Error("a changed row kept the digest")
	}
	if digest("r,i\r\nx,y\r\n").Hash != digest("r,i\r\nx,y").Hash {
		t.Error("a last line without its newline hashed differently")
	}
}

// Latency runs from the due time, so a request that waited for a free
// connection carries its wait; TTFB runs from the send.
func TestSampleLatencyArithmetic(t *testing.T) {
	s := Sample{Due: 10 * time.Millisecond, Sent: 25 * time.Millisecond,
		First: 27 * time.Millisecond, Done: 40 * time.Millisecond}
	if got := s.LatencyMS(); got != 30 {
		t.Errorf("LatencyMS = %g, want 30 (done − due)", got)
	}
	if got := s.TTFBMS(); got != 2 {
		t.Errorf("TTFBMS = %g, want 2 (first byte − sent)", got)
	}
}

// Three one-op dialogues, all due at once, against a 40 ms server: the two
// connections take two, and the third waits for one of them — it is sent
// late, and its latency counts the wait.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(40 * time.Millisecond)
		w.Write([]byte(`[{"recipe":"x"}]`))
	}))
	defer srv.Close()
	ops := make([]workload.Op, 3)
	for i := range ops {
		ops[i] = workload.Op{Kind: workload.Recommend, Method: "GET", Target: "/recommend", MinRows: 1, First: true}
	}
	p := Drive(NewClient(), srv.URL, ops, true, NewValidator(), time.Minute)
	if p.Failed != 0 {
		t.Fatalf("failed %d: %v", p.Failed, p.Errors)
	}
	if p.Starts != 3 || p.Late != 1 {
		t.Errorf("starts %d late %d, want 3 and 1", p.Starts, p.Late)
	}
	slowest := 0.0
	for _, s := range p.Samples {
		slowest = math.Max(slowest, s.LatencyMS())
	}
	if slowest < 80 || slowest > 200 {
		t.Errorf("the queued dialogue took %g ms from its due time, want about 80 (40 waiting + 40 served)", slowest)
	}
}

func TestClosedLoopSendsEveryOpOnce(t *testing.T) {
	hits := make(chan string, 100)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits <- r.URL.RawQuery
		w.Write([]byte("r\r\nx\r\n"))
	}))
	defer srv.Close()
	ops := make([]workload.Op, 20)
	for i := range ops {
		ops[i] = workload.Op{Kind: workload.Sparql, Method: "GET", Target: "/sparql?q=" + string(rune('a'+i)), Stable: true}
	}
	p := Drive(NewClient(), srv.URL, ops, false, NewValidator(), time.Minute)
	if p.Failed != 0 || len(hits) != 20 {
		t.Fatalf("failed %d, server saw %d requests, want 0 and 20", p.Failed, len(hits))
	}
	seen := map[string]bool{}
	for len(hits) > 0 {
		seen[<-hits] = true
	}
	if len(seen) != 20 {
		t.Errorf("server saw %d distinct requests, want 20", len(seen))
	}
	for i, s := range p.Samples {
		if !s.OK || s.Done < s.First || s.First < s.Sent {
			t.Errorf("sample %d out of order: %+v", i, s)
		}
	}
}

func TestValidator(t *testing.T) {
	v := NewValidator()
	stable := &workload.Op{Kind: workload.Sparql, Method: "GET", Target: "/sparql?query=x", Stable: true}
	if _, err := v.Check(stable, digest("a\nb\n"), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Check(stable, digest("b\na\n"), nil); err != nil {
		t.Errorf("reordered rows rejected: %v", err)
	}
	if _, err := v.Check(stable, digest("a\nc\n"), nil); err == nil {
		t.Error("a changed answer to a stable request was accepted")
	}
	keys, sums := v.Observed()
	if len(keys) != 1 || sums[keys[0]] != digest("a\nb\n") {
		t.Errorf("Observed = %v %v, want the first observation", keys, sums)
	}

	ex := &workload.Op{Kind: workload.Explain, ExplainType: "contextual"}
	if _, err := v.Check(ex, BodySum{}, []byte(`{"type":"contextual","summary":"because"}`)); err != nil {
		t.Errorf("good explanation rejected: %v", err)
	}
	if _, err := v.Check(ex, BodySum{}, []byte(`{"type":"everyday","summary":"because"}`)); err == nil {
		t.Error("wrong echoed type accepted")
	}
	if _, err := v.Check(ex, BodySum{}, []byte(`{"type":"contextual","summary":""}`)); err == nil {
		t.Error("empty summary accepted")
	}

	empty := []byte(`{"head":{"vars":["q"]},"results":{"bindings":[]}}`)
	one := []byte(`{"head":{"vars":["q"]},"results":{"bindings":[{"q":{"type":"uri","value":"x"}}]}}`)
	follow := &workload.Op{Kind: workload.Sparql, MinRows: 1, StaleOK: true}
	if stale, err := v.Check(follow, BodySum{}, empty); err != nil || !stale {
		t.Errorf("empty follow-up = stale %t, %v; want a stale read", stale, err)
	}
	if stale, err := v.Check(follow, BodySum{}, one); err != nil || stale {
		t.Errorf("answered follow-up = stale %t, %v; want fresh", stale, err)
	}
	listing := &workload.Op{Kind: workload.Sparql, MinRows: 1}
	if _, err := v.Check(listing, BodySum{}, empty); err == nil {
		t.Error("a listing below MinRows was accepted")
	}
}

func TestFingerprintAndCanary(t *testing.T) {
	f := ReadFingerprint()
	if f.NumCPU < 1 || f.GOMAXPROCS < 1 || f.GoVersion == "" || f.CPUModel == "" || f.Kernel == "" || f.Commit == "" {
		t.Errorf("incomplete fingerprint: %+v", f)
	}
	if got := cpuModel("processor : 0\nmodel name\t: Test CPU @ 1GHz\n"); got != "Test CPU @ 1GHz" {
		t.Errorf("cpuModel = %q", got)
	}
	if SelfCPUMS() <= 0 {
		t.Error("SelfCPUMS reported no CPU time")
	}
}
