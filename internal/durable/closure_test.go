package durable

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/foodkg"
	"repro/internal/ontology"
	"repro/internal/rdf"
	"repro/internal/reasoner"
	"repro/internal/store"
)

// wireSection is the closure section TestClosureSectionWireFormat builds
// by hand over wireGraph: term refs are uvarint(id+1), rule names
// length-prefixed, premises in order.
var wireSection = []byte{
	2, 2, // TotalInferred, entries
	1, 2, 4, 7, 'p', 'r', 'p', '-', 't', 'r', 'p', 2, 1, 2, 3, 3, 2, 4,
	3, 2, 1, 8, 'p', 'r', 'p', '-', 's', 'y', 'm', 'p', 1, 1, 2, 3,
}

// wireInlineSection holds one entry in the inline-term form: ref 0
// followed by a term, once for a term the dictionary lacks (e/n) and once
// for one it has (e/a).
var wireInlineSection = []byte{1, 1,
	0, byte(rdf.KindIRI), 10, 'h', 't', 't', 'p', ':', '/', '/', 'e', '/', 'n',
	2,
	0, byte(rdf.KindIRI), 10, 'h', 't', 't', 'p', ':', '/', '/', 'e', '/', 'a',
	7, 'c', 'a', 'x', '-', 's', 'c', 'o', 1, 1, 2, 3,
}

// wireOutOfRange names term ID 5 of a four-term dictionary.
var wireOutOfRange = []byte{1, 1, 6, 2, 1, 0, 0}

// wireGraph returns the graph {a p b, b p c}, whose terms a, p, b, c have
// IDs 0–3.
func wireGraph() *store.Graph {
	g := store.New()
	g.Add(tIRI("a"), tIRI("p"), tIRI("b"))
	g.Add(tIRI("b"), tIRI("p"), tIRI("c"))
	return g
}

// TestClosureSectionWireFormat pins the snapshot's closure section byte
// for byte: term refs are uvarint(id+1) straight from the trace's IDs,
// rule names are length-prefixed, and premise lists keep their order. It
// also decodes a hand-built entry in the inline-term form (ref 0 followed
// by a term), which the reader must keep accepting.
func TestClosureSectionWireFormat(t *testing.T) {
	g := wireGraph()
	for want, term := range []rdf.Term{tIRI("a"), tIRI("p"), tIRI("b"), tIRI("c")} {
		if id, _ := g.LookupID(term); id != store.ID(want) {
			t.Fatalf("%v interned as %d, want %d", term, id, want)
		}
	}
	st := reasoner.ClosureState{TotalInferred: 2}
	st.Add(store.IDTriple{S: 0, P: 1, O: 3}, "prp-trp",
		[]store.IDTriple{{S: 0, P: 1, O: 2}, {S: 2, P: 1, O: 3}})
	st.Add(store.IDTriple{S: 2, P: 1, O: 0}, "prp-symp",
		[]store.IDTriple{{S: 0, P: 1, O: 2}})
	want := wireSection
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
	back, rest, err = parseClosure(wireInlineSection, g)
	if err != nil || len(rest) != 0 {
		t.Fatalf("parse inline: %v (%d trailing bytes)", err, len(rest))
	}
	wantInline := reasoner.ClosureState{TotalInferred: 1}
	wantInline.Add(store.IDTriple{S: 4, P: 1, O: 0}, "cax-sco",
		[]store.IDTriple{{S: 0, P: 1, O: 2}})
	if !reflect.DeepEqual(back, wantInline) {
		t.Fatalf("inline entry\n got %+v\nwant %+v", back, wantInline)
	}
	if term := g.TermOf(4); term != tIRI("n") {
		t.Fatalf("inline term interned as %v", term)
	}

	// A ref past the dictionary is corruption, not a panic.
	if _, _, err := parseClosure(wireOutOfRange, g); err == nil {
		t.Fatal("out-of-range term ref accepted")
	}
}

// tracedFoodKG materializes the TBox plus a synthetic FoodKG of 400
// recipes, 200 ingredients and 20 users with derivation tracing and the
// journal on.
func tracedFoodKG(t testing.TB) (*store.Graph, *foodkg.KG, *reasoner.Reasoner) {
	t.Helper()
	g := ontology.TBox()
	cfg := foodkg.DefaultConfig()
	cfg.Recipes, cfg.Ingredients, cfg.Users = 400, 200, 20
	kg := foodkg.Generate(cfg)
	g.Merge(kg.Graph)
	r := reasoner.New(reasoner.Options{TraceDerivations: true})
	r.StartDerivationJournal()
	r.Materialize(g)
	return g, kg, r
}

// commitTraced applies mutate to g and materializes it, as a session
// commit does, and returns the WAL record that commit logs: every op,
// asserted and inferred, and the derivations the run journaled.
func commitTraced(g *store.Graph, r *reasoner.Reasoner, mutate func()) Record {
	mark := r.JournalLen()
	span := g.StartCapture()
	cs := g.StartCapture()
	mutate()
	r.MaterializeChanges(g, cs)
	span.Stop()
	return Record{
		Cleared: span.Cleared(), Ops: span.Ops(), EndVersion: span.EndVersion(),
		TotalInferred: r.TotalInferred(), Derivations: r.JournalSince(mark),
	}
}

// askAbout asserts a food question whose parameters are existing recipes.
// Its inverse-property consequences have the recipes, old terms with low
// IDs, as subjects, so their derivations sort before the end of a
// restored run.
func askAbout(g *store.Graph, q rdf.Term, recipes ...rdf.Term) {
	g.Add(q, rdf.TypeIRI, ontology.FEOFoodQuestion)
	for _, rc := range recipes {
		g.Add(q, ontology.FEOHasParameter, rc)
	}
}

// termDerivation is a derivation in terms, comparable across graphs whose
// dictionaries number the same terms differently.
type termDerivation struct {
	Rule     string
	Premises []rdf.Triple
}

// termTrace decodes the trace st describes — Run, then Later with a later
// entry for a conclusion winning — through g's dictionary.
func termTrace(g *store.Graph, st reasoner.ClosureState) map[rdf.Triple]termDerivation {
	decode := func(t store.IDTriple) rdf.Triple {
		return rdf.Triple{S: g.TermOf(t.S), P: g.TermOf(t.P), O: g.TermOf(t.O)}
	}
	out := make(map[rdf.Triple]termDerivation, len(st.Run)+len(st.Later))
	for _, ds := range [2][]reasoner.IDDerivation{st.Run, st.Later} {
		for _, d := range ds {
			td := termDerivation{Rule: st.Rules[d.Rule]}
			for _, p := range st.PremisesOf(d) {
				td.Premises = append(td.Premises, decode(p))
			}
			out[decode(d.Conclusion)] = td
		}
	}
	return out
}

// assertSameTrace checks that the restored reasoner answers exactly as the
// live one: the same re-exported trace, and for every conclusion the same
// Derivation and Proof.
func assertSameTrace(t *testing.T, liveG *store.Graph, live *reasoner.Reasoner, g *store.Graph, r *reasoner.Reasoner) {
	t.Helper()
	if !g.Equal(liveG) {
		t.Fatalf("restored graph differs: %d triples, want %d", g.Len(), liveG.Len())
	}
	lst, rst := live.ClosureState(), r.ClosureState()
	if lst.TotalInferred != rst.TotalInferred {
		t.Fatalf("TotalInferred = %d, want %d", rst.TotalInferred, lst.TotalInferred)
	}
	if len(rst.Later) != 0 {
		t.Fatalf("re-export leaves %d entries outside its run", len(rst.Later))
	}
	for i := 1; i < len(rst.Run); i++ {
		if a, b := rst.Run[i-1].Conclusion, rst.Run[i].Conclusion; a.S > b.S || a.S == b.S && (a.P > b.P || a.P == b.P && a.O >= b.O) {
			t.Fatalf("re-export not strictly ascending at %d: %v then %v", i, a, b)
		}
	}
	want, got := termTrace(liveG, lst), termTrace(g, rst)
	if len(want) == 0 {
		t.Fatal("the live trace is empty")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("re-exported trace differs: %d conclusions, want the live %d", len(got), len(want))
	}
	for concl := range want {
		ld, lok := live.Derivation(concl)
		rd, rok := r.Derivation(concl)
		if !lok || !rok || !reflect.DeepEqual(rd, ld) {
			t.Fatalf("Derivation(%v) = %+v, %v; want %+v, %v", concl, rd, rok, ld, lok)
		}
		if lp, rp := live.Proof(concl), r.Proof(concl); !reflect.DeepEqual(rp, lp) {
			t.Fatalf("Proof(%v) differs:\n got %+v\nwant %+v", concl, rp, lp)
		}
	}
}

// TestClosureTraceEquivalence boots a traced synthetic FoodKG back from
// its data directory, or from a hand-built closure section, and holds the
// restored reasoner to the live one: (a) from the snapshot alone, (b) with
// a WAL tail of further questions, whose derivations partly sort before
// the end of the run, (c) from a section with one out-of-order entry and
// one duplicate conclusion, the later entry winning, and (d) with a tail
// that clears the graph.
func TestClosureTraceEquivalence(t *testing.T) {
	boot := func(t *testing.T, liveG *store.Graph, live *reasoner.Reasoner, tail func() []Record) *Boot {
		t.Helper()
		dir := t.TempDir()
		st, _, err := Open(dir, Options{Sync: SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Compact(liveG, live.ClosureState()); err != nil {
			t.Fatal(err)
		}
		for _, rec := range tail() {
			if err := st.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		st, b, err := Open(dir, Options{Sync: SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return b
	}
	restore := func(g *store.Graph, st reasoner.ClosureState) *reasoner.Reasoner {
		r := reasoner.New(reasoner.Options{TraceDerivations: true})
		r.RestoreClosure(g, st)
		return r
	}

	t.Run("snapshot", func(t *testing.T) {
		liveG, _, live := tracedFoodKG(t)
		b := boot(t, liveG, live, func() []Record { return nil })
		if len(b.Closure.Later) != 0 || len(b.Closure.Run) == 0 {
			t.Fatalf("snapshot decoded to a run of %d and %d later entries", len(b.Closure.Run), len(b.Closure.Later))
		}
		assertSameTrace(t, liveG, live, b.Graph, restore(b.Graph, b.Closure))
	})

	t.Run("wal-tail", func(t *testing.T) {
		liveG, kg, live := tracedFoodKG(t)
		b := boot(t, liveG, live, func() []Record {
			var recs []Record
			for i := range 3 {
				q := tIRI(fmt.Sprintf("question%d", i))
				recs = append(recs, commitTraced(liveG, live, func() {
					askAbout(liveG, q, kg.Recipes[i], kg.Recipes[len(kg.Recipes)-1-i])
				}))
			}
			return recs
		})
		if b.Records != 3 || len(b.Closure.Later) == 0 {
			t.Fatalf("replayed %d records into %d later entries; want 3 records, some later entries", b.Records, len(b.Closure.Later))
		}
		assertSameTrace(t, liveG, live, b.Graph, restore(b.Graph, b.Closure))
	})

	t.Run("out-of-order-section", func(t *testing.T) {
		liveG, _, live := tracedFoodKG(t)
		lst := live.ClosureState()
		// File order: the run without entry x, where entry y is preceded
		// by a bogus derivation of the same conclusion; then x.
		x, y := len(lst.Run)/3, 2*len(lst.Run)/3
		hand := lst
		hand.Run = nil
		bogus := reasoner.IDDerivation{Conclusion: lst.Run[y].Conclusion, Rule: lst.Run[0].Rule, Off: lst.Run[x].Off, N: lst.Run[x].N}
		for i, d := range lst.Run {
			if i == y {
				hand.Run = append(hand.Run, bogus)
			}
			if i != x {
				hand.Run = append(hand.Run, d)
			}
		}
		hand.Run = append(hand.Run, lst.Run[x])
		g, err := store.ReadSnapshot(liveG.AppendSnapshot(nil))
		if err != nil {
			t.Fatal(err)
		}
		st, rest, err := parseClosure(appendClosure(nil, hand), g)
		if err != nil || len(rest) != 0 {
			t.Fatalf("parse: %v (%d trailing bytes)", err, len(rest))
		}
		if len(st.Later) != 2 || st.Later[0].Conclusion != lst.Run[y].Conclusion || st.Later[1].Conclusion != lst.Run[x].Conclusion {
			t.Fatalf("later entries %+v, want the second derivation of run[%d] and run[%d]", st.Later, y, x)
		}
		assertSameTrace(t, liveG, live, g, restore(g, st))
	})

	t.Run("cleared-tail", func(t *testing.T) {
		liveG, kg, live := tracedFoodKG(t)
		b := boot(t, liveG, live, func() []Record {
			return []Record{
				commitTraced(liveG, live, func() { askAbout(liveG, tIRI("before"), kg.Recipes[0]) }),
				commitTraced(liveG, live, func() {
					liveG.Clear()
					liveG.Merge(ontology.TBox())
					liveG.Merge(ontology.ABox(ontology.CQAll))
				}),
				commitTraced(liveG, live, func() { askAbout(liveG, tIRI("after"), ontology.CauliflowerPotatoCurry) }),
			}
		})
		if b.Records != 3 {
			t.Fatalf("replayed %d records, want 3", b.Records)
		}
		assertSameTrace(t, liveG, live, b.Graph, restore(b.Graph, b.Closure))
	})
}

// FuzzDecodeClosure feeds arbitrary bytes to the closure-section decoder
// and restores what it accepts into a reasoner over a small graph. Neither
// may panic, and an accepted section must survive restore → ClosureState
// → appendClosure → parseClosure as the same trace.
func FuzzDecodeClosure(f *testing.F) {
	for _, seed := range [][]byte{wireSection, wireInlineSection, wireOutOfRange, wireRefPastDict, wireOverlongRef} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, section []byte) {
		g := wireGraph()
		st, _, err := parseClosure(section, g)
		if err != nil {
			return
		}
		want := termTrace(g, st)
		r := reasoner.New(reasoner.Options{TraceDerivations: true})
		r.RestoreClosure(g, st)
		exp := r.ClosureState()
		back, rest, err := parseClosure(appendClosure(nil, exp), g)
		if err != nil || len(rest) != 0 {
			t.Fatalf("re-encoded section: %v (%d trailing bytes)", err, len(rest))
		}
		if len(back.Later) != 0 || back.TotalInferred != st.TotalInferred {
			t.Fatalf("re-encoded section: %d later entries, TotalInferred %d want %d", len(back.Later), back.TotalInferred, st.TotalInferred)
		}
		if got := termTrace(g, back); !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip changed the trace\n got %+v\nwant %+v", got, want)
		}
		for concl, td := range want {
			d, ok := r.Derivation(concl)
			if !ok || d.Rule != td.Rule || !slices.Equal(d.Premises, td.Premises) {
				t.Fatalf("Derivation(%v) = %+v, %v; want %+v", concl, d, ok, td)
			}
		}
	})
}

// TestDerivationTraceFootprint restores the closure of a synthetic FoodKG
// from its snapshot bytes and bounds what the restored trace keeps alive:
// at most 56 B of live heap per derivation: a 24-byte run entry plus its
// premises (about 2.1 of 12 B each), nothing hashed. A trace keyed and
// filled by rdf.Triple values costs about 600 B per derivation, one
// restored into a map[iTriple]derivation about 68 B.
func TestDerivationTraceFootprint(t *testing.T) {
	g, _, live := tracedFoodKG(t)
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
	n := len(st.Run) + len(st.Later)
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
	if per > 56 {
		t.Fatalf("restored trace holds %.1f B per derivation, want <= 56", per)
	}
	// The restored trace still answers.
	tr := live.ClosureState().Run[n/2].Conclusion
	concl := rdf.Triple{S: g.TermOf(tr.S), P: g.TermOf(tr.P), O: g.TermOf(tr.O)}
	if _, ok := r.Derivation(concl); !ok {
		t.Fatalf("restored trace lost %v", concl)
	}
	runtime.KeepAlive(r)
}
