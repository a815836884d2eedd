package reasoner

import (
	"slices"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
)

// stateTestGraph builds a small graph whose closure exercises subclass,
// domain, and transitive-property inference with a multi-step proof chain.
func stateTestGraph() *store.Graph {
	g := store.New()
	g.Add(iri("C1"), rdf.SubClassOfIRI, iri("C2"))
	g.Add(iri("C2"), rdf.SubClassOfIRI, iri("C3"))
	g.Add(iri("p"), rdf.DomainIRI, iri("C1"))
	g.Add(iri("t"), rdf.TypeIRI, rdf.NewIRI(rdf.OWLNS+"TransitiveProperty"))
	g.Add(iri("a"), iri("t"), iri("b"))
	g.Add(iri("b"), iri("t"), iri("c"))
	g.Add(iri("x"), iri("p"), iri("y"))
	return g
}

// TestClosureStateRoundTrip materializes, exports the closure state plus a
// graph snapshot, restores both into a fresh reasoner, and checks the
// restored reasoner is behaviorally identical: same stats, same proofs, and
// — the durability property — the next mutation takes the delta path.
func TestClosureStateRoundTrip(t *testing.T) {
	g := stateTestGraph()
	r1 := New(Options{TraceDerivations: true})
	st1 := r1.Materialize(g)
	if st1.TotalInferred == 0 {
		t.Fatal("test graph should produce inferences")
	}

	g2, err := store.ReadSnapshot(g.AppendSnapshot(nil))
	if err != nil {
		t.Fatal(err)
	}
	r2 := New(Options{TraceDerivations: true})
	r2.RestoreClosure(g2, r1.ClosureState())

	if r2.TotalInferred() != r1.TotalInferred() {
		t.Fatalf("TotalInferred = %d, want %d", r2.TotalInferred(), r1.TotalInferred())
	}

	// Every traced derivation answers identically, including multi-step
	// proof chains (a-t-c via transitivity, x type C3 via domain+subclass).
	// The exported conclusions are IDs of g's dictionary; decode them
	// through g.
	for _, d := range r1.ClosureState().Run {
		concl := rdf.Triple{S: g.TermOf(d.Conclusion.S), P: g.TermOf(d.Conclusion.P), O: g.TermOf(d.Conclusion.O)}
		p1 := r1.Proof(concl)
		p2 := r2.Proof(concl)
		if len(p1) == 0 || len(p1) != len(p2) {
			t.Fatalf("proof length for %v: %d vs %d", concl, len(p1), len(p2))
		}
		for i := range p1 {
			if p1[i].Rule != p2[i].Rule || p1[i].Conclusion != p2[i].Conclusion {
				t.Fatalf("proof step %d for %v differs", i, concl)
			}
		}
	}

	// A re-materialize on the restored reasoner must find the closure
	// complete (no new inferences) without a from-scratch run.
	if st := r2.Materialize(g2); st.Inferred != 0 {
		t.Fatalf("restored closure not complete: %d new inferences", st.Inferred)
	}

	// Incremental contract: a captured mutation extends the closure via the
	// delta path on both reasoners, and they agree.
	mutate := func(r *Reasoner, g *store.Graph) Stats {
		cs := g.StartCapture()
		g.Add(iri("c"), iri("t"), iri("d"))
		cs.Stop()
		return r.MaterializeChanges(g, cs)
	}
	s1 := mutate(r1, g)
	s2 := mutate(r2, g2)
	if !s1.Delta || !s2.Delta {
		t.Fatalf("expected delta path on both (live=%v restored=%v)", s1.Delta, s2.Delta)
	}
	if s1.Inferred != s2.Inferred || r1.TotalInferred() != r2.TotalInferred() {
		t.Fatalf("post-mutation divergence: inferred %d vs %d, total %d vs %d",
			s1.Inferred, s2.Inferred, r1.TotalInferred(), r2.TotalInferred())
	}
	if !g.Equal(g2) {
		t.Fatal("graphs diverged after identical mutation")
	}
}

func TestClosureStateDeterministic(t *testing.T) {
	g := stateTestGraph()
	r := New(Options{TraceDerivations: true})
	r.Materialize(g)
	a, b := r.ClosureState(), r.ClosureState()
	if len(a.Run) != len(b.Run) {
		t.Fatal("export length unstable")
	}
	for i := range a.Run {
		if a.Run[i].Conclusion != b.Run[i].Conclusion {
			t.Fatalf("export order unstable at %d", i)
		}
		if i > 0 && compareIDTriples(a.Run[i-1].Conclusion, a.Run[i].Conclusion) >= 0 {
			t.Fatalf("export not in ascending ID-triple order at %d", i)
		}
	}
}

func TestDerivationJournal(t *testing.T) {
	g := stateTestGraph()
	r := New(Options{TraceDerivations: true})
	r.StartDerivationJournal()
	r.Materialize(g)

	mark0 := r.JournalLen()
	if mark0 != r.TotalInferred() {
		t.Fatalf("journal holds %d entries, inferred %d", mark0, r.TotalInferred())
	}
	if got := r.JournalSince(0); len(got) != mark0 {
		t.Fatalf("JournalSince(0) = %d entries, want %d", len(got), mark0)
	}
	if got := r.JournalSince(mark0); got != nil {
		t.Fatalf("JournalSince(end) should be nil, got %d entries", len(got))
	}

	// A delta run journals exactly its own new derivations.
	cs := g.StartCapture()
	g.Add(iri("c"), iri("t"), iri("d"))
	cs.Stop()
	st := r.MaterializeChanges(g, cs)
	delta := r.JournalSince(mark0)
	if len(delta) != st.Inferred {
		t.Fatalf("journal delta %d entries, run inferred %d", len(delta), st.Inferred)
	}
	for _, d := range delta {
		if !g.Has(d.Conclusion.S, d.Conclusion.P, d.Conclusion.O) {
			t.Fatalf("journaled conclusion %v not in graph", d.Conclusion)
		}
		if got, ok := r.Derivation(d.Conclusion); !ok || got.Rule != d.Rule {
			t.Fatalf("journaled entry %v disagrees with trace", d.Conclusion)
		}
	}

	r.TrimJournal()
	if r.JournalLen() != 0 || r.JournalSince(0) != nil {
		t.Fatal("TrimJournal left entries behind")
	}
	// Negative and stale marks clamp instead of panicking.
	if r.JournalSince(-5) != nil || r.JournalSince(99) != nil {
		t.Fatal("out-of-range marks should return nil on an empty journal")
	}
}

// TestDerivationJournalAcrossDictionarySwap pins the journal's contract
// over Graph.Clear: the trace and journal are keyed by IDs of a dictionary
// Clear replaces, so no mark taken before the swap may return an entry
// journaled before it — not even one whose conclusion is derived again
// after the swap — and every entry journaled after it is returned.
func TestDerivationJournalAcrossDictionarySwap(t *testing.T) {
	g := stateTestGraph()
	r := New(Options{TraceDerivations: true})
	r.StartDerivationJournal()
	r.Materialize(g)
	marks := []int{0, r.JournalLen() / 2, r.JournalLen()}
	if marks[2] == 0 {
		t.Fatal("test graph should journal derivations")
	}
	xtc := rdf.Triple{S: iri("x"), P: rdf.TypeIRI, O: iri("C3")}
	if _, ok := r.Derivation(xtc); !ok {
		t.Fatalf("%v should be derived before the swap", xtc)
	}

	g.Clear()
	// Swapped but not yet rebound: the old IDs mean nothing in the new
	// dictionary, so nothing resolves.
	for _, m := range marks {
		if got := r.JournalSince(m); got != nil {
			t.Fatalf("JournalSince(%d) after Clear = %d entries, want none", m, len(got))
		}
	}
	if st := r.ClosureState(); len(st.Run)+len(st.Later) != 0 {
		t.Fatalf("ClosureState after Clear exports %d stale derivations", len(st.Run)+len(st.Later))
	}

	// Refill with the same statements: every old conclusion is derived
	// again, so each pre-swap journal entry names a live trace entry and
	// only the swap itself can keep it out.
	for _, tr := range stateTestGraph().Triples() {
		g.Add(tr.S, tr.P, tr.O)
	}
	st := r.Materialize(g)
	if st.Inferred == 0 {
		t.Fatal("refill should infer")
	}
	post := r.JournalLen() - marks[2]
	for _, m := range marks {
		got := r.JournalSince(m)
		if len(got) != post || len(got) != st.Inferred {
			t.Fatalf("JournalSince(%d) = %d entries, want the %d post-swap ones", m, len(got), post)
		}
		for _, d := range got {
			if !g.Has(d.Conclusion.S, d.Conclusion.P, d.Conclusion.O) {
				t.Fatalf("journaled conclusion %v not in graph", d.Conclusion)
			}
			want, ok := r.Derivation(d.Conclusion)
			if !ok || want.Rule != d.Rule || !slices.Equal(want.Premises, d.Premises) {
				t.Fatalf("journaled %v disagrees with the trace", d.Conclusion)
			}
			for _, p := range d.Premises {
				if !g.Has(p.S, p.P, p.O) {
					t.Fatalf("premise %v of %v not in graph", p, d.Conclusion)
				}
			}
		}
	}
	if p := r.Proof(xtc); len(p) == 0 || p[len(p)-1].Conclusion != xtc {
		t.Fatalf("proof of %v after the swap = %v", xtc, p)
	}
}
