package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 100 * ms},
		{ID: 1, Parent: 0, Name: "parse", Start: 10 * ms, End: 30 * ms},
		{ID: 2, Parent: 0, Name: "exec", Start: 40 * ms, End: 90 * ms},
		{ID: 3, Parent: 2, Name: "lookup", Start: 50 * ms, End: 60 * ms},
		// Overlapping siblings cover their union once: 20–50.
		{ID: 4, Parent: -1, Name: "op", Start: 0, End: 60 * ms},
		{ID: 5, Parent: 4, Name: "a", Start: 20 * ms, End: 40 * ms},
		{ID: 6, Parent: 4, Name: "b", Start: 30 * ms, End: 50 * ms},
	}
	want := []time.Duration{30 * ms, 20 * ms, 40 * ms, 10 * ms, 30 * ms, 20 * ms, 20 * ms}
	for i, got := range SelfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of span %d (%s) = %v, want %v", i, spans[i].Name, got, want[i])
		}
	}
	agg := Aggregate(spans)
	if op := agg["op"]; op.Count != 2 || op.Total != 160*ms || op.Self != 60*ms {
		t.Errorf("Aggregate[op] = %+v, want 2 spans, 160 ms total, 60 ms self", op)
	}
	if got := agg["exec"].MeanUS(); got != 50000 {
		t.Errorf("MeanUS(exec) = %g, want 50000", got)
	}
}

func TestTracerRecordsAndNilTracerDoesNot(t *testing.T) {
	tr := New()
	root := tr.Start("op", -1, 7)
	child := tr.Start("parse", root, 7)
	tr.End(child)
	tr.End(root)
	spans := tr.Spans()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Op != 7 || spans[0].End < spans[1].End {
		t.Errorf("recorded %+v", spans)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil || strings.Count(buf.String(), "\n") != 2 {
		t.Errorf("WriteJSONL wrote %q, %v", buf.String(), err)
	}

	var off *Tracer
	id := off.Start("op", -1, 0)
	off.End(id)
	if id != -1 || off.Spans() != nil {
		t.Error("the nil tracer recorded something")
	}
}
