package harness

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// Metrics is one scrape of the server's Prometheus exposition: every
// sample keyed by its series as written, e.g.
// `feo_http_requests_total{endpoint="/sparql",code="200"}`.
type Metrics map[string]float64

// ParseMetrics reads the Prometheus text format (version 0.0.4).
func ParseMetrics(text string) (Metrics, error) {
	m := Metrics{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space; label values may hold spaces.
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: no value in %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: %q: %w", line, err)
		}
		m[line[:i]] = v
	}
	return m, nil
}

// Scrape fetches and parses base + "/metrics".
func Scrape(c *http.Client, base string) (Metrics, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics answered %d", resp.StatusCode)
	}
	return ParseMetrics(string(body))
}

// HandlerMeanUS is the mean in-handler latency of an endpoint between two
// scrapes (histogram Δsum/Δcount), in microseconds; 0 when it saw no
// request.
func HandlerMeanUS(before, after Metrics, endpoint string) float64 {
	label := `{endpoint="` + endpoint + `"}`
	n := after["feo_http_request_duration_seconds_count"+label] - before["feo_http_request_duration_seconds_count"+label]
	if n <= 0 {
		return 0
	}
	sum := after["feo_http_request_duration_seconds_sum"+label] - before["feo_http_request_duration_seconds_sum"+label]
	return sum / n * 1e6
}

// Non2xx counts the responses outside 200–299 between two scrapes.
func Non2xx(before, after Metrics) float64 {
	var n float64
	for series, v := range after {
		if !strings.HasPrefix(series, "feo_http_requests_total{") {
			continue
		}
		if i := strings.Index(series, `code="`); i >= 0 && series[i+6] != '2' {
			n += v - before[series]
		}
	}
	return n
}
