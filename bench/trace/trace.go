// Package trace records spans around the calls feobench's in-process
// replay makes into each layer. Spans live in memory and are written out
// once, when the benchmark ends. A Tracer is for one goroutine.
package trace

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// Span is one timed call: its layer-qualified name, the span that caused
// it (-1 for a root) and the op the whole tree belongs to.
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Tracer collects spans. The nil Tracer records nothing, which is how the
// replay runs its untraced half.
type Tracer struct {
	t0    time.Time
	spans []Span
}

// New returns a recording tracer.
func New() *Tracer { return &Tracer{t0: time.Now()} }

// Start opens a span and returns its id (-1 from a nil Tracer).
func (t *Tracer) Start(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Op: op, Name: name, Start: time.Since(t.t0)})
	return id
}

// End closes the span Start returned.
func (t *Tracer) End(id int) {
	if t != nil {
		t.spans[id].End = time.Since(t.t0)
	}
}

// Spans returns everything recorded so far.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// WriteJSONL writes one span per line.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// SelfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover (overlapping children count once).
func SelfTimes(spans []Span) []time.Duration {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, upTo := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, upTo), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// Stat sums the spans of one name.
type Stat struct {
	Count int
	Total time.Duration // summed durations
	Self  time.Duration // summed self times
}

// MeanUS is the mean span duration in microseconds (0 without spans).
func (s Stat) MeanUS() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Total) / 1e3 / float64(s.Count)
}

// Aggregate groups spans by name.
func Aggregate(spans []Span) map[string]Stat {
	self := SelfTimes(spans)
	agg := make(map[string]Stat)
	for i, s := range spans {
		st := agg[s.Name]
		st.Count++
		st.Total += s.End - s.Start
		st.Self += self[i]
		agg[s.Name] = st
	}
	return agg
}
