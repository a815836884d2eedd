package store

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/rdf"
)

// TestConcurrentReaders locks in the reader contract the package doc
// promises and concurrent SPARQL requests depend on: once a graph is
// quiescent, every non-mutating accessor may run from any number of
// goroutines with no synchronization. Run under -race (CI does), this test
// fails on any accidental mutation sneaking into a read path — e.g. a
// cache, a lazily built index, or a dictionary intern on lookup.
func TestConcurrentReaders(t *testing.T) {
	g := New()
	subjects := make([]rdf.Term, 40)
	preds := make([]rdf.Term, 8)
	for i := range subjects {
		subjects[i] = rdf.NewIRI(fmt.Sprintf("http://c/s%d", i))
	}
	for i := range preds {
		preds[i] = rdf.NewIRI(fmt.Sprintf("http://c/p%d", i))
	}
	for i, s := range subjects {
		for j, p := range preds {
			g.Add(s, p, subjects[(i+j+1)%len(subjects)])
		}
		g.Add(s, rdf.TypeIRI, rdf.NewIRI("http://c/Thing"))
	}
	list := g.AddList("l", []rdf.Term{subjects[0], subjects[1], subjects[2]})
	wantLen := g.Len()
	unknown := rdf.NewIRI("http://c/never-stored")

	const goroutines = 12
	const rounds = 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				s := subjects[(w+r)%len(subjects)]
				p := preds[(w*r)%len(preds)]
				// Term-level reads.
				if g.Len() != wantLen {
					errs <- fmt.Errorf("Len changed under readers")
					return
				}
				n := 0
				g.ForEach(s, Wildcard, Wildcard, func(rdf.Triple) bool { n++; return true })
				if n != g.Count(s, Wildcard, Wildcard) {
					errs <- fmt.Errorf("ForEach/Count disagree for %v", s)
					return
				}
				_ = g.Match(Wildcard, p, Wildcard)
				_ = g.Objects(s, p)
				_ = g.Subjects(p, s)
				_ = g.Predicates(s, s)
				_ = g.FirstObject(s, p)
				_ = g.Exists(s, p, Wildcard)
				_ = g.Has(s, p, unknown)
				_ = g.TypesOf(s)
				if members, ok := g.ReadList(list); !ok || len(members) != 3 {
					errs <- fmt.Errorf("ReadList broke under readers")
					return
				}
				// ID-level reads (what the query engine actually uses).
				sID, ok := g.LookupID(s)
				if !ok {
					errs <- fmt.Errorf("LookupID lost %v", s)
					return
				}
				pID, _ := g.LookupID(p)
				if _, miss := g.LookupID(unknown); miss {
					errs <- fmt.Errorf("LookupID invented an ID")
					return
				}
				got := 0
				g.ForEachID(sID, pID, NoID, func(_, _, _ ID) bool { got++; return true })
				if got != g.CountID(sID, pID, NoID) {
					errs <- fmt.Errorf("ForEachID/CountID disagree")
					return
				}
				viaIter := 0
				g.ForEachObjectID(sID, pID, func(ID) bool { viaIter++; return true })
				if viaIter != len(g.ObjectsID(sID, pID)) {
					errs <- fmt.Errorf("ForEachObjectID/ObjectsID disagree")
					return
				}
				viaIter = 0
				g.ForEachSubjectID(pID, sID, func(ID) bool { viaIter++; return true })
				if viaIter != len(g.SubjectsID(pID, sID)) {
					errs <- fmt.Errorf("ForEachSubjectID/SubjectsID disagree")
					return
				}
				if g.TermOf(sID) != s {
					errs <- fmt.Errorf("TermOf changed meaning")
					return
				}
				_ = g.KindOf(sID)
				_ = g.IsResourceID(sID)
				_ = g.FirstObjectID(sID, pID)
				_ = g.HasID(sID, pID, sID)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestForEachObjectSubjectID pins the new iterators' single-threaded
// semantics: set equality with the slice accessors and early stop.
func TestForEachObjectSubjectID(t *testing.T) {
	g := New()
	s := rdf.NewIRI("http://c/s")
	p := rdf.NewIRI("http://c/p")
	for i := 0; i < 5; i++ {
		g.Add(s, p, rdf.NewIRI(fmt.Sprintf("http://c/o%d", i)))
	}
	sID, _ := g.LookupID(s)
	pID, _ := g.LookupID(p)
	seen := map[ID]bool{}
	g.ForEachObjectID(sID, pID, func(o ID) bool { seen[o] = true; return true })
	if len(seen) != 5 {
		t.Fatalf("ForEachObjectID visited %d objects, want 5", len(seen))
	}
	for _, o := range g.ObjectsID(sID, pID) {
		if !seen[o] {
			t.Fatalf("ForEachObjectID missed object %d", o)
		}
	}
	calls := 0
	g.ForEachObjectID(sID, pID, func(ID) bool { calls++; return false })
	if calls != 1 {
		t.Errorf("early stop: %d calls, want 1", calls)
	}
	oID, _ := g.LookupID(rdf.NewIRI("http://c/o0"))
	subs := 0
	g.ForEachSubjectID(pID, oID, func(ID) bool { subs++; return true })
	if subs != 1 {
		t.Errorf("ForEachSubjectID found %d subjects, want 1", subs)
	}
	// Unknown keys iterate nothing.
	g.ForEachObjectID(NoID, NoID, func(ID) bool { t.Error("iterated on NoID"); return false })
}
