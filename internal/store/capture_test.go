package store

import (
	"testing"

	"repro/internal/rdf"
)

func capTriple(n string) (rdf.Term, rdf.Term, rdf.Term) {
	return rdf.NewIRI("http://e/s" + n), rdf.NewIRI("http://e/p" + n), rdf.NewIRI("http://e/o" + n)
}

func TestCaptureRecordsAddsAndRemoves(t *testing.T) {
	g := New()
	s0, p0, o0 := capTriple("0")
	g.Add(s0, p0, o0) // before capture: must not be recorded

	cs := g.StartCapture()
	if cs.BaseVersion() != g.Version() {
		t.Errorf("BaseVersion = %d, want %d", cs.BaseVersion(), g.Version())
	}
	s1, p1, o1 := capTriple("1")
	if !g.Add(s1, p1, o1) {
		t.Fatal("add failed")
	}
	g.Add(s1, p1, o1) // duplicate: no mutation, no record
	if !g.Remove(s0, p0, o0) {
		t.Fatal("remove failed")
	}
	g.Remove(s0, p0, o0) // already gone: no record
	cs.Stop()

	s2, p2, o2 := capTriple("2")
	g.Add(s2, p2, o2) // after Stop: must not be recorded

	want := []TermOp{
		{T: rdf.Triple{S: s1, P: p1, O: o1}},
		{Remove: true, T: rdf.Triple{S: s0, P: p0, O: o0}},
	}
	if ops := cs.Ops(); len(ops) != len(want) || ops[0] != want[0] || ops[1] != want[1] {
		t.Errorf("Ops = %v, want %v", ops, want)
	}
	if cs.Cleared() {
		t.Error("capture should not be cleared")
	}
	if cs.EndVersion() == cs.BaseVersion() {
		t.Error("EndVersion should have advanced with the mutations")
	}
	if cs.EndVersion() == g.Version() {
		t.Error("post-Stop mutation should make EndVersion lag Version")
	}
}

func TestCaptureSeesEveryMutationRoute(t *testing.T) {
	g := New()
	cs := g.StartCapture()

	// Term-level Add, ID-level AddID, Bulk, and Merge all funnel into the
	// same chokepoint.
	s1, p1, o1 := capTriple("1")
	g.Add(s1, p1, o1)
	s2, p2, o2 := capTriple("2")
	g.AddID(g.InternTerm(s2), g.InternTerm(p2), g.InternTerm(o2))
	s3, p3, o3 := capTriple("3")
	g.Bulk().Add(s3, p3, o3)
	other := New()
	s4, p4, o4 := capTriple("4")
	other.Add(s4, p4, o4)
	g.Merge(other)
	cs.Stop()

	if n := len(cs.IDOps()); n != 4 {
		t.Errorf("captured %d adds, want 4: %v", n, cs.Ops())
	}
}

func TestCaptureNestedIndependent(t *testing.T) {
	g := New()
	outer := g.StartCapture()
	s1, p1, o1 := capTriple("1")
	g.Add(s1, p1, o1)
	inner := g.StartCapture()
	s2, p2, o2 := capTriple("2")
	g.Add(s2, p2, o2)
	inner.Stop()
	s3, p3, o3 := capTriple("3")
	g.Add(s3, p3, o3)
	outer.Stop()

	if n := len(inner.IDOps()); n != 1 {
		t.Errorf("inner captured %d adds, want 1", n)
	}
	if n := len(outer.IDOps()); n != 3 {
		t.Errorf("outer captured %d adds, want 3", n)
	}
}

func TestCaptureClearInvalidates(t *testing.T) {
	g := New()
	s1, p1, o1 := capTriple("1")
	g.Add(s1, p1, o1)
	cs := g.StartCapture()
	s2, p2, o2 := capTriple("2")
	g.Add(s2, p2, o2)
	g.Clear()
	s3, p3, o3 := capTriple("3")
	g.Add(s3, p3, o3) // recorded IDs would belong to the new dictionary
	cs.Stop()

	if !cs.Cleared() {
		t.Fatal("Clear must mark the capture cleared")
	}
	// Only the post-Clear stream survives, decoded against the new
	// dictionary.
	ops := cs.Ops()
	if len(ops) != 1 || ops[0] != (TermOp{T: rdf.Triple{S: s3, P: p3, O: o3}}) {
		t.Errorf("cleared capture must hold only the post-Clear stream, got %v", ops)
	}
	id := func(term rdf.Term) ID { i, _ := g.LookupID(term); return i }
	if ids := cs.IDOps(); len(ids) != 1 || ids[0].T != (IDTriple{id(s3), id(p3), id(o3)}) {
		t.Errorf("post-Clear IDOps = %v", ids)
	}
}

func TestCaptureStopIdempotentAndNilSafe(t *testing.T) {
	var nilCS *ChangeSet
	nilCS.Stop() // must not panic
	if nilCS.Active() {
		t.Error("nil capture is not active")
	}
	g := New()
	cs := g.StartCapture()
	cs.Stop()
	cs.Stop()
	if cs.Active() {
		t.Error("stopped capture reports active")
	}
	if len(g.captures) != 0 {
		t.Error("stopped capture still registered")
	}
}

func TestOrderedCapturePreservesInterleaving(t *testing.T) {
	g := New()
	s, p, o := capTriple("x")
	g.Add(s, p, o)

	cs := g.StartCapture()
	s1, p1, o1 := capTriple("1")
	g.Add(s1, p1, o1)
	g.Remove(s, p, o)
	g.Add(s, p, o) // reinstated: only the interleaving tells this apart
	g.Remove(s1, p1, o1)
	cs.Stop()

	ops := cs.Ops()
	want := []TermOp{
		{Remove: false, T: rdf.Triple{S: s1, P: p1, O: o1}},
		{Remove: true, T: rdf.Triple{S: s, P: p, O: o}},
		{Remove: false, T: rdf.Triple{S: s, P: p, O: o}},
		{Remove: true, T: rdf.Triple{S: s1, P: p1, O: o1}},
	}
	if len(ops) != len(want) {
		t.Fatalf("Ops len = %d, want %d", len(ops), len(want))
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Errorf("op %d = %+v, want %+v", i, ops[i], want[i])
		}
	}

	// Replaying the stream verbatim on a copy of the base graph must land on
	// the final graph.
	replay := New()
	replay.Add(s, p, o)
	for _, op := range ops {
		if op.Remove {
			replay.Remove(op.T.S, op.T.P, op.T.O)
		} else {
			replay.AddTriple(op.T)
		}
	}
	if !replay.Equal(g) {
		t.Fatal("verbatim replay of Ops diverged from the live graph")
	}
}

func TestOrderedCaptureSurvivesClear(t *testing.T) {
	g := New()
	s0, p0, o0 := capTriple("pre")
	g.Add(s0, p0, o0)

	cs := g.StartCapture()
	s1, p1, o1 := capTriple("doomed")
	g.Add(s1, p1, o1)
	g.Clear()
	s2, p2, o2 := capTriple("post")
	g.Add(s2, p2, o2)
	g.Remove(s2, p2, o2)
	g.Add(s2, p2, o2)
	cs.Stop()

	if !cs.Cleared() {
		t.Fatal("capture should report Cleared")
	}
	ops := cs.Ops()
	if len(ops) != 3 {
		t.Fatalf("Ops should hold only the post-Clear stream, got %d ops", len(ops))
	}
	if ops[0].T.S != s2 || ops[1].Remove != true || ops[2].Remove != false {
		t.Fatalf("post-Clear stream wrong: %+v", ops)
	}

	// Wipe-then-replay lands on the live graph.
	replay := New()
	replay.Add(s0, p0, o0)
	replay.Clear()
	for _, op := range ops {
		if op.Remove {
			replay.Remove(op.T.S, op.T.P, op.T.O)
		} else {
			replay.AddTriple(op.T)
		}
	}
	if !replay.Equal(g) {
		t.Fatal("wipe-then-replay diverged from the live graph")
	}
}

func TestOrderedCaptureEmptyOps(t *testing.T) {
	g := New()
	cs := g.StartCapture()
	cs.Stop()
	if cs.Ops() != nil {
		t.Fatal("empty capture should return nil Ops")
	}
}
