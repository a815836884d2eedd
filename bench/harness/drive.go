package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/bench/workload"
)

// Conns is the number of load-generator connections: one per core of the
// 2-core sandbox the bounds were measured on.
const Conns = 2

// NewClient returns the load generator's HTTP client: at most Conns
// persistent connections, no transparent compression.
func NewClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        Conns,
			MaxIdleConnsPerHost: Conns,
			DisableCompression:  true,
		},
		Timeout: 120 * time.Second,
	}
}

// Sample is the timing of one op. Times are offsets from the phase start.
type Sample struct {
	Due   time.Duration // when the op was due (its send time in a closed loop)
	Sent  time.Duration
	First time.Duration // first body byte
	Done  time.Duration // body fully read
	OK    bool
}

// LatencyMS is the client-observed latency from the op's due time.
func (s Sample) LatencyMS() float64 { return float64(s.Done-s.Due) / 1e6 }

// TTFBMS is request sent → first body byte.
func (s Sample) TTFBMS() float64 { return float64(s.First-s.Sent) / 1e6 }

// lateAfter is how far past its due time an open-loop send counts as late.
const lateAfter = time.Millisecond

// Phase is the outcome of driving one op list.
type Phase struct {
	Samples []Sample // index-aligned with the driven ops
	Elapsed time.Duration
	Failed  int
	Stale   int // StaleOK reads answered from the version before the write
	Late    int // open loop: dialogue starts sent more than lateAfter past due
	Starts  int // open loop: dialogue starts
	// Errors holds the first few failure descriptions.
	Errors []string
}

// Drive sends ops to base over Conns connections and validates every
// response with v. Closed loop: each connection takes the next op from
// the shared list as soon as its previous one completed. Open loop
// (openLoop): ops form dialogues starting at ops[i].First; a connection
// takes the next dialogue, waits for its Due offset, and sends its ops
// back to back, so at most Conns dialogues are in flight and a dialogue
// that finds both busy waits — its wait counts, because latency runs from
// the due time. Ops not started within budget fail without being sent.
func Drive(c *http.Client, base string, ops []workload.Op, openLoop bool, v *Validator, budget time.Duration) *Phase {
	p := &Phase{Samples: make([]Sample, len(ops))}
	// groups[k] is the op index where unit k of work starts.
	var groups []int
	for i := range ops {
		if !openLoop || ops[i].First {
			groups = append(groups, i)
		}
	}
	groups = append(groups, len(ops))
	var (
		next atomic.Int64
		mu   sync.Mutex // guards p's counters and Errors
		wg   sync.WaitGroup
	)
	fail := func(i int, err error) {
		mu.Lock()
		defer mu.Unlock()
		p.Failed++
		if len(p.Errors) < 5 {
			p.Errors = append(p.Errors, fmt.Sprintf("op %d %s %s: %v", i, ops[i].Method, ops[i].Kind, err))
		}
	}
	start := time.Now()
	for w := 0; w < Conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 64<<10)
			for {
				k := int(next.Add(1)) - 1
				if k >= len(groups)-1 {
					return
				}
				lo, hi := groups[k], groups[k+1]
				due := time.Since(start)
				if openLoop {
					due = ops[lo].Due
					time.Sleep(due - time.Since(start))
				}
				for i := lo; i < hi; i++ {
					s := &p.Samples[i]
					s.Sent = time.Since(start)
					if i == lo {
						s.Due = due
						if openLoop {
							mu.Lock()
							p.Starts++
							if s.Sent-due > lateAfter {
								p.Late++
							}
							mu.Unlock()
						}
					} else {
						s.Due = s.Sent
					}
					if s.Sent > budget {
						fail(i, fmt.Errorf("not started within %s", budget))
						continue
					}
					stale, err := doOp(c, base, &ops[i], v, buf, start, s)
					switch {
					case err != nil:
						fail(i, err)
					case stale:
						mu.Lock()
						p.Stale++
						mu.Unlock()
						s.OK = true
					default:
						s.OK = true
					}
				}
			}
		}()
	}
	wg.Wait()
	p.Elapsed = time.Since(start)
	return p
}

// doOp sends one request, reads the body to the end while digesting it,
// and validates the response.
func doOp(c *http.Client, base string, op *workload.Op, v *Validator, buf []byte, start time.Time, s *Sample) (stale bool, err error) {
	var body io.Reader
	if op.Body != "" {
		body = strings.NewReader(op.Body)
	}
	req, err := http.NewRequest(op.Method, base+op.Target, body)
	if err != nil {
		return false, err
	}
	if op.ContentType != "" {
		req.Header.Set("Content-Type", op.ContentType)
	}
	if op.Accept != "" {
		req.Header.Set("Accept", op.Accept)
	}
	resp, err := c.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	var (
		d    Digest
		keep []byte // small bodies that are parsed, not just digested
	)
	parse := !op.Stable
	for {
		n, rerr := resp.Body.Read(buf)
		if n > 0 {
			if s.First == 0 {
				s.First = time.Since(start)
			}
			d.Write(buf[:n])
			if parse {
				keep = append(keep, buf[:n]...)
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return false, fmt.Errorf("reading body: %w", rerr)
		}
	}
	s.Done = time.Since(start)
	if s.First == 0 {
		s.First = s.Done
	}
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("status %d", resp.StatusCode)
	}
	return v.Check(op, d.Sum(), keep)
}

// Validator checks responses. Stable reads are compared with the first
// observation of the same request; the rest are parsed.
type Validator struct {
	mu    sync.Mutex
	first map[uint64]BodySum
	order []uint64 // request keys in first-observation order
}

// NewValidator returns an empty validator.
func NewValidator() *Validator { return &Validator{first: map[uint64]BodySum{}} }

// Observed returns the request keys of Stable ops in the order they were
// first seen, with their digests, for the oracle cross-check.
func (v *Validator) Observed() ([]uint64, map[uint64]BodySum) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.order, v.first
}

// Check validates one 200 response. body is nil for Stable ops.
func (v *Validator) Check(op *workload.Op, sum BodySum, body []byte) (stale bool, err error) {
	if op.Stable {
		key := op.Key()
		v.mu.Lock()
		seen, ok := v.first[key]
		if !ok {
			v.first[key] = sum
			v.order = append(v.order, key)
		}
		v.mu.Unlock()
		if ok && seen != sum {
			return false, fmt.Errorf("answer changed: %v, first observation %v", sum, seen)
		}
		return false, nil
	}
	switch op.Kind {
	case workload.Explain:
		var ex struct{ Type, Summary string }
		if err := json.Unmarshal(body, &ex); err != nil {
			return false, fmt.Errorf("explain body: %w", err)
		}
		if ex.Type != op.ExplainType || ex.Summary == "" {
			return false, fmt.Errorf("explain echoed type %q (want %q) with a %d-byte summary", ex.Type, op.ExplainType, len(ex.Summary))
		}
	case workload.Recommend:
		var recs []struct{ Recipe string }
		if err := json.Unmarshal(body, &recs); err != nil {
			return false, fmt.Errorf("recommend body: %w", err)
		}
		if len(recs) < op.MinRows || recs[0].Recipe == "" {
			return false, fmt.Errorf("recommend returned %d recipes, want ≥ %d", len(recs), op.MinRows)
		}
	default:
		rows, err := JSONRows(body)
		if err != nil {
			return false, err
		}
		if rows == 0 && op.StaleOK {
			return true, nil
		}
		if rows < op.MinRows {
			return false, fmt.Errorf("%d rows, want ≥ %d", rows, op.MinRows)
		}
	}
	return false, nil
}

// JSONRows counts the bindings of a SPARQL JSON results document.
func JSONRows(body []byte) (int, error) {
	var doc struct {
		Results struct {
			Bindings []json.RawMessage
		}
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return 0, fmt.Errorf("sparql JSON body: %w", err)
	}
	return len(doc.Results.Bindings), nil
}
