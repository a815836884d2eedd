package durable

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/foodkg"
	"repro/internal/ontology"
	"repro/internal/rdf"
	"repro/internal/reasoner"
	"repro/internal/store"
)

// TestClosureSectionWireFormat pins the snapshot's closure section byte
// for byte: term refs are uvarint(id+1) straight from the trace's IDs,
// rule names are length-prefixed, and premise lists keep their order. It
// also decodes a hand-built entry in the inline-term form (ref 0 followed
// by a term), which the reader must keep accepting.
func TestClosureSectionWireFormat(t *testing.T) {
	g := store.New()
	a, p, b, c := tIRI("a"), tIRI("p"), tIRI("b"), tIRI("c")
	g.Add(a, p, b)
	g.Add(b, p, c)
	for want, term := range []rdf.Term{a, p, b, c} {
		if id, _ := g.LookupID(term); id != store.ID(want) {
			t.Fatalf("%v interned as %d, want %d", term, id, want)
		}
	}
	st := reasoner.ClosureState{
		TotalInferred: 2,
		Derivations: []reasoner.IDDerivation{
			{Conclusion: store.IDTriple{S: 0, P: 1, O: 3}, Rule: "prp-trp",
				Premises: []store.IDTriple{{S: 0, P: 1, O: 2}, {S: 2, P: 1, O: 3}}},
			{Conclusion: store.IDTriple{S: 2, P: 1, O: 0}, Rule: "prp-symp",
				Premises: []store.IDTriple{{S: 0, P: 1, O: 2}}},
		},
	}
	want := []byte{
		2, 2, // TotalInferred, entries
		1, 2, 4, 7, 'p', 'r', 'p', '-', 't', 'r', 'p', 2, 1, 2, 3, 3, 2, 4,
		3, 2, 1, 8, 'p', 'r', 'p', '-', 's', 'y', 'm', 'p', 1, 1, 2, 3,
	}
	got := appendClosure(nil, st)
	if !bytes.Equal(got, want) {
		t.Fatalf("closure section\n got %v\nwant %v", got, want)
	}
	back, rest, err := parseClosure(got, g)
	if err != nil || len(rest) != 0 {
		t.Fatalf("parse: %v (%d trailing bytes)", err, len(rest))
	}
	if !reflect.DeepEqual(back, st) {
		t.Fatalf("round trip\n got %+v\nwant %+v", back, st)
	}

	// Inline form: a subject the dictionary lacks is interned at the next
	// ID; an inline term the dictionary has resolves to its existing ID.
	inline := []byte{1, 1,
		0, byte(rdf.KindIRI), 10, 'h', 't', 't', 'p', ':', '/', '/', 'e', '/', 'n',
		2,
		0, byte(rdf.KindIRI), 10, 'h', 't', 't', 'p', ':', '/', '/', 'e', '/', 'a',
		7, 'c', 'a', 'x', '-', 's', 'c', 'o', 1, 1, 2, 3,
	}
	back, rest, err = parseClosure(inline, g)
	if err != nil || len(rest) != 0 {
		t.Fatalf("parse inline: %v (%d trailing bytes)", err, len(rest))
	}
	wantInline := reasoner.ClosureState{TotalInferred: 1, Derivations: []reasoner.IDDerivation{{
		Conclusion: store.IDTriple{S: 4, P: 1, O: 0}, Rule: "cax-sco",
		Premises: []store.IDTriple{{S: 0, P: 1, O: 2}},
	}}}
	if !reflect.DeepEqual(back, wantInline) {
		t.Fatalf("inline entry\n got %+v\nwant %+v", back, wantInline)
	}
	if term := g.TermOf(4); term != tIRI("n") {
		t.Fatalf("inline term interned as %v", term)
	}

	// A ref past the dictionary is corruption, not a panic.
	if _, _, err := parseClosure([]byte{1, 1, 6, 2, 1, 0, 0}, g); err == nil {
		t.Fatal("out-of-range term ref accepted")
	}
}

// TestDerivationTraceFootprint restores the closure of a synthetic FoodKG
// from its snapshot bytes and bounds what the restored trace keeps alive:
// at most 128 B of live heap per derivation. A trace keyed and filled by
// rdf.Triple values costs about 600 B per derivation.
func TestDerivationTraceFootprint(t *testing.T) {
	g := ontology.TBox()
	cfg := foodkg.DefaultConfig()
	cfg.Recipes, cfg.Ingredients, cfg.Users = 400, 200, 20
	g.Merge(foodkg.Generate(cfg).Graph)
	live := reasoner.New(reasoner.Options{TraceDerivations: true})
	live.Materialize(g)
	section := appendClosure(nil, live.ClosureState())
	g2, err := store.ReadSnapshot(g.AppendSnapshot(nil))
	if err != nil {
		t.Fatal(err)
	}
	r := reasoner.New(reasoner.Options{TraceDerivations: true})

	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	st, _, err := parseClosure(section, g2)
	if err != nil {
		t.Fatal(err)
	}
	n := len(st.Derivations)
	r.RestoreClosure(g2, st)
	st = reasoner.ClosureState{}
	after := heap()
	runtime.KeepAlive(g2)
	runtime.KeepAlive(section)

	if n < 10000 {
		t.Fatalf("only %d derivations; the bound needs a larger graph", n)
	}
	per := float64(int64(after)-int64(before)) / float64(n)
	t.Logf("%d derivations: %.1f B live heap each", n, per)
	if per > 128 {
		t.Fatalf("restored trace holds %.1f B per derivation, want <= 128", per)
	}
	// The restored trace still answers.
	tr := live.ClosureState().Derivations[n/2].Conclusion
	concl := rdf.Triple{S: g.TermOf(tr.S), P: g.TermOf(tr.P), O: g.TermOf(tr.O)}
	if _, ok := r.Derivation(concl); !ok {
		t.Fatalf("restored trace lost %v", concl)
	}
	runtime.KeepAlive(r)
}
