package reasoner

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/turtle"
)

// ---- randomized incremental-vs-full equivalence harness ----
//
// The delta path's contract is that after every mutation step the
// incrementally maintained reasoner state is indistinguishable from
// throwing everything away and re-materializing the asserted triples from
// scratch: same closure, same set of traced (inferred) triples, same
// consistency verdict. The harness drives a random base graph through a
// random addition-only mutation schedule (instance triples, schema axioms,
// property characteristics, and OWL expressions arriving piecemeal —
// including rdf:first/rdf:rest list cells split across steps) and checks
// all three after every step against a from-scratch Materialize of the
// asserted-only mirror graph. A step whose closure gains a structural
// triple (an expression or list cell, asserted or inferred) must run full;
// every other step must take the delta path.
//
// The schedule is addition-only by design: removals are documented to fall
// back to a full monotonic re-run (covered by TestDeltaFallsBackOnRemoval),
// so from-scratch equivalence after a removal does not hold and is not
// claimed.

// tripleGen produces random triples and expression bundles over small pools.
type tripleGen struct {
	rng     *rand.Rand
	classes []rdf.Term
	props   []rdf.Term
	inds    []rdf.Term
	fresh   int
}

func newTripleGen(rng *rand.Rand) *tripleGen {
	g := &tripleGen{rng: rng}
	for i := 0; i < 6; i++ {
		g.classes = append(g.classes, iri(fmt.Sprintf("C%d", i)))
	}
	for i := 0; i < 5; i++ {
		g.props = append(g.props, iri(fmt.Sprintf("p%d", i)))
	}
	for i := 0; i < 8; i++ {
		g.inds = append(g.inds, iri(fmt.Sprintf("i%d", i)))
	}
	return g
}

func (tg *tripleGen) class() rdf.Term { return tg.classes[tg.rng.Intn(len(tg.classes))] }
func (tg *tripleGen) prop() rdf.Term  { return tg.props[tg.rng.Intn(len(tg.props))] }
func (tg *tripleGen) ind() rdf.Term   { return tg.inds[tg.rng.Intn(len(tg.inds))] }

func (tg *tripleGen) freshTerm(prefix string) rdf.Term {
	tg.fresh++
	return iri(fmt.Sprintf("%s%d", prefix, tg.fresh))
}

func tr(s, p, o rdf.Term) rdf.Triple { return rdf.Triple{S: s, P: p, O: o} }

// next returns the next random bundle of triples to assert. Expression
// bundles return several triples (class node, list cells) so the schedule
// can split them across mutation steps.
func (tg *tripleGen) next() []rdf.Triple {
	switch tg.rng.Intn(20) {
	case 0, 1, 2, 3, 4, 5: // instance property triple
		if tg.rng.Intn(5) == 0 {
			return []rdf.Triple{tr(tg.ind(), tg.prop(), rdf.NewLiteral(fmt.Sprintf("lit%d", tg.rng.Intn(4))))}
		}
		return []rdf.Triple{tr(tg.ind(), tg.prop(), tg.ind())}
	case 6, 7, 8, 9: // type assertion
		return []rdf.Triple{tr(tg.ind(), rdf.TypeIRI, tg.class())}
	case 10: // subclass / subproperty axiom
		if tg.rng.Intn(2) == 0 {
			return []rdf.Triple{tr(tg.class(), rdf.SubClassOfIRI, tg.class())}
		}
		return []rdf.Triple{tr(tg.prop(), rdf.SubPropertyOfIRI, tg.prop())}
	case 11: // domain / range
		if tg.rng.Intn(2) == 0 {
			return []rdf.Triple{tr(tg.prop(), rdf.DomainIRI, tg.class())}
		}
		return []rdf.Triple{tr(tg.prop(), rdf.RangeIRI, tg.class())}
	case 12: // inverse / equivalent
		switch tg.rng.Intn(3) {
		case 0:
			return []rdf.Triple{tr(tg.prop(), rdf.InverseOfIRI, tg.prop())}
		case 1:
			return []rdf.Triple{tr(tg.class(), rdf.EquivClassIRI, tg.class())}
		default:
			return []rdf.Triple{tr(tg.prop(), rdf.EquivPropIRI, tg.prop())}
		}
	case 13: // property characteristic
		chars := []string{
			rdf.OWLTransitiveProperty, rdf.OWLSymmetricProperty,
			rdf.OWLFunctionalProperty, rdf.OWLInverseFunctional,
		}
		return []rdf.Triple{tr(tg.prop(), rdf.TypeIRI, rdf.NewIRI(chars[tg.rng.Intn(len(chars))]))}
	case 14: // sameAs
		return []rdf.Triple{tr(tg.ind(), rdf.SameAsIRI, tg.ind())}
	case 15: // disjointness / differentFrom (consistency-relevant, no rules)
		if tg.rng.Intn(2) == 0 {
			return []rdf.Triple{tr(tg.class(), rdf.NewIRI(rdf.OWLDisjointWith), tg.class())}
		}
		return []rdf.Triple{tr(tg.ind(), rdf.NewIRI(rdf.OWLDifferentFrom), tg.ind())}
	case 16: // intersection or union class with a 2-3 member list
		kind := rdf.NewIRI(rdf.OWLIntersectionOf)
		prefix := "Int"
		if tg.rng.Intn(2) == 0 {
			kind = rdf.NewIRI(rdf.OWLUnionOf)
			prefix = "Uni"
		}
		c := tg.freshTerm(prefix)
		n := 2 + tg.rng.Intn(2)
		members := make([]rdf.Term, n)
		for i := range members {
			members[i] = tg.class()
		}
		return tg.listBundle(tr(c, kind, rdf.Term{}), members)
	case 17: // restriction, reachable via equivalentClass half the time
		node := tg.freshTerm("R")
		out := []rdf.Triple{tr(node, rdf.NewIRI(rdf.OWLOnProperty), tg.prop())}
		switch tg.rng.Intn(3) {
		case 0:
			filler := tg.class()
			if tg.rng.Intn(4) == 0 {
				filler = rdf.ThingIRI
			}
			out = append(out, tr(node, rdf.NewIRI(rdf.OWLSomeValuesFrom), filler))
		case 1:
			out = append(out, tr(node, rdf.NewIRI(rdf.OWLAllValuesFrom), tg.class()))
		default:
			out = append(out, tr(node, rdf.NewIRI(rdf.OWLHasValue), tg.ind()))
		}
		if tg.rng.Intn(2) == 0 {
			out = append(out, tr(tg.freshTerm("E"), rdf.EquivClassIRI, node))
		}
		tg.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	default: // property chain
		super := tg.prop()
		steps := []rdf.Term{tg.prop(), tg.prop()}
		return tg.listBundle(tr(super, rdf.NewIRI(rdf.OWLPropertyChainAxiom), rdf.Term{}), steps)
	}
}

// listBundle emits head plus the rdf:first/rdf:rest cells for members, in a
// shuffled order so the list is incomplete while the bundle lands.
func (tg *tripleGen) listBundle(head rdf.Triple, members []rdf.Term) []rdf.Triple {
	cells := make([]rdf.Term, len(members))
	for i := range cells {
		cells[i] = tg.freshTerm("b")
	}
	head.O = cells[0]
	out := []rdf.Triple{head}
	for i, m := range members {
		out = append(out, tr(cells[i], rdf.FirstIRI, m))
		if i == len(members)-1 {
			out = append(out, tr(cells[i], rdf.RestIRI, rdf.NilIRI))
		} else {
			out = append(out, tr(cells[i], rdf.RestIRI, cells[i+1]))
		}
	}
	tg.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func validateStrings(g *store.Graph) []string {
	var out []string
	for _, inc := range Validate(g) {
		out = append(out, inc.String())
	}
	sort.Strings(out)
	return out
}

// structuralPreds are the predicates whose triples feed the expression
// table; a run that adds one runs full.
var structuralPreds = map[rdf.Term]bool{
	rdf.NewIRI(rdf.OWLIntersectionOf):     true,
	rdf.NewIRI(rdf.OWLUnionOf):            true,
	rdf.NewIRI(rdf.OWLOnProperty):         true,
	rdf.NewIRI(rdf.OWLSomeValuesFrom):     true,
	rdf.NewIRI(rdf.OWLAllValuesFrom):      true,
	rdf.NewIRI(rdf.OWLHasValue):           true,
	rdf.NewIRI(rdf.OWLPropertyChainAxiom): true,
	rdf.FirstIRI:                          true,
	rdf.RestIRI:                           true,
}

// structuralCount counts g's triples whose predicate is structural.
func structuralCount(g *store.Graph) int {
	n := 0
	for p := range structuralPreds {
		n += g.Count(store.Wildcard, p, store.Wildcard)
	}
	return n
}

func stringSlicesEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestIncrementalFullEquivalenceRandomized(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + trial)))
			tg := newTripleGen(rng)
			opts := Options{TraceDerivations: true}
			if trial%5 == 4 {
				opts.IncludeReflexive = true
			}

			gInc := store.New()  // incrementally maintained closure
			gBase := store.New() // asserted-only mirror
			// Random base content.
			var pendingQueue []rdf.Triple
			for i := 0; i < 6+rng.Intn(8); i++ {
				pendingQueue = append(pendingQueue, tg.next()...)
			}
			baseN := rng.Intn(len(pendingQueue))
			for _, tp := range pendingQueue[:baseN] {
				gInc.AddTriple(tp)
				gBase.AddTriple(tp)
			}
			pendingQueue = pendingQueue[baseN:]
			rInc := New(opts)
			rInc.Materialize(gInc)

			// Keep a queue of future triples and feed it in random chunks.
			for i := 0; i < 8; i++ {
				pendingQueue = append(pendingQueue, tg.next()...)
			}
			step := 0
			for len(pendingQueue) > 0 {
				step++
				k := 1 + rng.Intn(4)
				if k > len(pendingQueue) {
					k = len(pendingQueue)
				}
				chunk := pendingQueue[:k]
				pendingQueue = pendingQueue[k:]

				cs := gInc.StartCapture()
				structuralBefore := structuralCount(gInc)
				for _, tp := range chunk {
					if gInc.Has(tp.S, tp.P, tp.O) {
						continue // keep asserted/inferred split unambiguous
					}
					gInc.AddTriple(tp)
					gBase.AddTriple(tp)
				}
				st := rInc.MaterializeChanges(gInc, cs)
				structural := structuralCount(gInc) > structuralBefore
				if !structural && !st.Delta {
					t.Fatalf("step %d: addition-only change set did not take the delta path", step)
				}
				if structural && st.Delta {
					t.Fatalf("step %d: a step that added a structural triple took the delta path", step)
				}

				// Reference: from-scratch closure of the asserted mirror.
				ref := gBase.Clone()
				rRef := New(opts)
				rRef.Materialize(ref)

				if !gInc.Equal(ref) {
					onlyInc, onlyRef := diff(gInc, ref)
					t.Fatalf("step %d: closures diverge\nincremental only: %v\nfrom-scratch only: %v",
						step, onlyInc, onlyRef)
				}
				// Derivation maps must trace exactly the inferred triples.
				for _, tp := range ref.Triples() {
					_, incOK := rInc.Derivation(tp)
					_, refOK := rRef.Derivation(tp)
					if incOK != refOK {
						t.Fatalf("step %d: derivation presence diverges for %v: incremental=%v from-scratch=%v",
							step, tp, incOK, refOK)
					}
					if incOK {
						d, _ := rInc.Derivation(tp)
						for _, prem := range d.Premises {
							if !gInc.Has(prem.S, prem.P, prem.O) {
								t.Fatalf("step %d: derivation of %v cites absent premise %v", step, tp, prem)
							}
						}
					}
				}
				// Consistency verdicts must agree.
				if vi, vr := validateStrings(gInc), validateStrings(ref); !stringSlicesEqual(vi, vr) {
					t.Fatalf("step %d: Validate diverges\nincremental: %v\nfrom-scratch: %v", step, vi, vr)
				}
				// Stats bookkeeping: asserted/inferred split must match the
				// asserted-only mirror exactly.
				if st.Asserted != gBase.Len() {
					t.Fatalf("step %d: stats.Asserted = %d, want %d asserted triples",
						step, st.Asserted, gBase.Len())
				}
				if st.TotalInferred != gInc.Len()-gBase.Len() {
					t.Fatalf("step %d: stats.TotalInferred = %d, want %d",
						step, st.TotalInferred, gInc.Len()-gBase.Len())
				}
			}
		})
	}
}

// materializeAdded asserts triples into g under a capture and closes them
// with MaterializeChanges: the capture + add + delta sequence every writer
// (core.Engine, feo.Session) runs.
func materializeAdded(r *Reasoner, g *store.Graph, triples []rdf.Triple) Stats {
	cs := g.StartCapture()
	for _, t := range triples {
		g.AddTriple(t)
	}
	return r.MaterializeChanges(g, cs)
}

// TestMaterializeDeltaEntryPoint: triples asserted under a capture are
// closed incrementally, and proofs work across old and new inferences.
func TestMaterializeDeltaEntryPoint(t *testing.T) {
	g, err := turtle.Parse(prelude + `
ex:A rdfs:subClassOf ex:B .
ex:B rdfs:subClassOf ex:C .
ex:x a ex:A .
`)
	if err != nil {
		t.Fatal(err)
	}
	r := New(Options{TraceDerivations: true})
	r.Materialize(g)

	st := materializeAdded(r, g, []rdf.Triple{
		tr(iri("y"), rdf.TypeIRI, iri("A")),
	})
	if !st.Delta {
		t.Fatal("expected the incremental path")
	}
	for _, c := range []string{"A", "B", "C"} {
		if !g.IsA(iri("y"), iri(c)) {
			t.Errorf("y should be a %s after delta", c)
		}
	}
	// Proofs must work across the old and the new inferences.
	oldProof := r.Proof(rdf.Triple{S: iri("x"), P: rdf.TypeIRI, O: iri("C")})
	newProof := r.Proof(rdf.Triple{S: iri("y"), P: rdf.TypeIRI, O: iri("C")})
	if len(oldProof) == 0 || len(newProof) == 0 {
		t.Fatalf("proofs lost across delta: old=%d new=%d steps", len(oldProof), len(newProof))
	}
	for _, proof := range [][]ProofStep{oldProof, newProof} {
		grounded := false
		for _, s := range proof {
			if s.Rule == "asserted" {
				grounded = true
			}
		}
		if !grounded {
			t.Error("proof should ground out in asserted triples")
		}
	}
}

// TestDeltaExpressionArrivesLate: a restriction definition (including its
// equivalence link) arriving after a completed run must classify
// pre-existing instance data. Its structural triples make the change set
// run full.
func TestDeltaExpressionArrivesLate(t *testing.T) {
	g, err := turtle.Parse(prelude + `
ex:autumn a ex:Season .
ex:squash ex:availableIn ex:autumn .
`)
	if err != nil {
		t.Fatal(err)
	}
	r := New(Options{TraceDerivations: true})
	r.Materialize(g)

	rest := rdf.NewBlank("rest1")
	st := materializeAdded(r, g, []rdf.Triple{
		tr(iri("SeasonalFood"), rdf.EquivClassIRI, rest),
		tr(rest, rdf.NewIRI(rdf.OWLOnProperty), iri("availableIn")),
		tr(rest, rdf.NewIRI(rdf.OWLSomeValuesFrom), iri("Season")),
	})
	if st.Delta {
		t.Fatal("a change set with structural triples must take the full path")
	}
	if !g.IsA(iri("squash"), iri("SeasonalFood")) {
		t.Error("delta-loaded restriction must classify existing instances")
	}
}

// TestDeltaListSplitAcrossCalls: an owl:intersectionOf whose member list
// lands one cell at a time must activate once the list completes.
func TestDeltaListSplitAcrossCalls(t *testing.T) {
	g, err := turtle.Parse(prelude + `
ex:x a ex:A , ex:B .
`)
	if err != nil {
		t.Fatal(err)
	}
	r := New(Options{})
	r.Materialize(g)

	b0, b1 := rdf.NewBlank("l0"), rdf.NewBlank("l1")
	materializeAdded(r, g, []rdf.Triple{
		tr(iri("Both"), rdf.NewIRI(rdf.OWLIntersectionOf), b0),
		tr(b0, rdf.FirstIRI, iri("A")),
	})
	if g.IsA(iri("x"), iri("Both")) {
		t.Fatal("incomplete list must not classify")
	}
	materializeAdded(r, g, []rdf.Triple{
		tr(b0, rdf.RestIRI, b1),
		tr(b1, rdf.FirstIRI, iri("B")),
		tr(b1, rdf.RestIRI, rdf.NilIRI),
	})
	if !g.IsA(iri("x"), iri("Both")) {
		t.Error("completed list must classify existing instances")
	}
}

// TestDeltaInferredStructuralReseeds: a structural triple that is only
// inferred — owl:onProperty through a sub-property of it, or restriction
// triples copied across owl:sameAs — must still reach the expression
// table. Each document is closed by a full run and by a delta run whose
// change set holds no structural triple, and both must equal the naive
// reference, which rebuilds the table every round. The delta run escalates
// to a full pass and says so. In both documents ex:x is a ex:D only
// through the inferred expression.
func TestDeltaInferredStructuralReseeds(t *testing.T) {
	for _, tc := range []struct {
		name string
		base string     // asserted before the first run
		late rdf.Triple // asserted in the delta
	}{
		{
			name: "subPropertyOf owl:onProperty",
			base: `
ex:onProp2 rdfs:subPropertyOf owl:onProperty .
ex:R owl:someValuesFrom ex:C .
ex:D owl:equivalentClass ex:R .
ex:x ex:p ex:y .
ex:y a ex:C .
`,
			late: tr(iri("R"), iri("onProp2"), iri("p")),
		},
		{
			name: "sameAs between restriction nodes",
			base: `
ex:R1 owl:onProperty ex:p .
ex:R2 owl:hasValue ex:v .
ex:D owl:equivalentClass ex:R2 .
ex:x ex:p ex:v .
`,
			late: tr(iri("R1"), rdf.SameAsIRI, iri("R2")),
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			parse := func() *store.Graph {
				g, err := turtle.Parse(prelude + tc.base)
				if err != nil {
					t.Fatal(err)
				}
				return g
			}
			ref := parse()
			ref.AddTriple(tc.late)
			full := ref.Clone()
			New(Options{Naive: true}).Materialize(ref)
			if !ref.IsA(iri("x"), iri("D")) {
				t.Fatal("naive reference lacks ex:x a ex:D")
			}
			check := func(mode string, g *store.Graph) {
				t.Helper()
				if !g.Equal(ref) {
					onlyG, onlyRef := diff(g, ref)
					t.Fatalf("%s run diverges from the naive reference\n%s only: %v\nreference only: %v",
						mode, mode, onlyG, onlyRef)
				}
			}

			New(Options{TraceDerivations: true}).Materialize(full)
			check("full", full)

			g := parse()
			r := New(Options{TraceDerivations: true})
			r.Materialize(g)
			st := materializeAdded(r, g, []rdf.Triple{tc.late})
			if st.Delta {
				t.Error("a delta that infers a structural triple must report the full pass")
			}
			check("delta", g)
			if st.Asserted+st.TotalInferred != g.Len() {
				t.Errorf("stats: asserted=%d + total-inferred=%d, want %d triples",
					st.Asserted, st.TotalInferred, g.Len())
			}
		})
	}
}

// ---- fallback conditions ----

func TestDeltaFallsBackOnRemoval(t *testing.T) {
	g, err := turtle.Parse(prelude + `
ex:A rdfs:subClassOf ex:B .
ex:x a ex:A .
`)
	if err != nil {
		t.Fatal(err)
	}
	r := New(Options{TraceDerivations: true})
	r.Materialize(g)

	cs := g.StartCapture()
	g.Remove(iri("x"), rdf.TypeIRI, iri("A"))
	g.Add(iri("y"), rdf.TypeIRI, iri("A"))
	st := r.MaterializeChanges(g, cs)
	if st.Delta {
		t.Fatal("change set with removals must take the full path")
	}
	// Monotonic contract: the old consequence is NOT retracted.
	if !g.IsA(iri("x"), iri("B")) {
		t.Error("full re-run must keep monotonic consequences")
	}
	if !g.IsA(iri("y"), iri("B")) {
		t.Error("full re-run must close the new assertion")
	}
}

func TestDeltaFallsBackOnUncapturedMutation(t *testing.T) {
	g, _ := turtle.Parse(prelude + `ex:A rdfs:subClassOf ex:B .`)
	r := New(Options{})
	r.Materialize(g)

	g.Add(iri("z"), rdf.TypeIRI, iri("A")) // not captured
	cs := g.StartCapture()
	g.Add(iri("x"), rdf.TypeIRI, iri("A"))
	st := r.MaterializeChanges(g, cs)
	if st.Delta {
		t.Fatal("version gap must force the full path")
	}
	if !g.IsA(iri("z"), iri("B")) {
		t.Error("uncaptured triple must still be closed by the fallback")
	}
}

func TestDeltaFallsBackOnForeignGraphAndClear(t *testing.T) {
	g1, _ := turtle.Parse(prelude + `ex:A rdfs:subClassOf ex:B .`)
	r := New(Options{})
	r.Materialize(g1)

	g2, _ := turtle.Parse(prelude + `ex:C rdfs:subClassOf ex:D . ex:x a ex:C .`)
	cs := g2.StartCapture()
	g2.Add(iri("y"), rdf.TypeIRI, iri("C"))
	if st := r.MaterializeChanges(g2, cs); st.Delta {
		t.Fatal("foreign graph must take the full path")
	}
	if !g2.IsA(iri("y"), iri("D")) {
		t.Error("foreign graph not closed")
	}

	cs2 := g2.StartCapture()
	g2.Clear()
	g2.Add(iri("a"), rdf.SubClassOfIRI, iri("b"))
	g2.Add(iri("i"), rdf.TypeIRI, iri("a"))
	st := r.MaterializeChanges(g2, cs2)
	if st.Delta {
		t.Fatal("cleared graph must take the full path")
	}
	if !g2.IsA(iri("i"), iri("b")) {
		t.Error("post-Clear closure incomplete (stale vocabulary?)")
	}
	// Clear swaps the dictionary: the cumulative inferred count and the
	// derivation trace must restart with it, not misreport the fresh load.
	if st.Asserted != 2 || st.TotalInferred != 1 {
		t.Errorf("post-Clear stats: asserted=%d total-inferred=%d, want 2/1",
			st.Asserted, st.TotalInferred)
	}
}

func TestNaiveReasonerNeverTakesDeltaPath(t *testing.T) {
	g, _ := turtle.Parse(prelude + `ex:A rdfs:subClassOf ex:B .`)
	r := New(Options{Naive: true})
	r.Materialize(g)
	cs := g.StartCapture()
	g.Add(iri("x"), rdf.TypeIRI, iri("A"))
	if st := r.MaterializeChanges(g, cs); st.Delta {
		t.Fatal("naive reasoner must not take the delta path")
	}
	if !g.IsA(iri("x"), iri("B")) {
		t.Error("naive fallback incomplete")
	}
}

// ---- Stats reporting across repeated runs (satellite bugfix) ----

func TestStatsAcrossRepeatedRuns(t *testing.T) {
	g, _ := turtle.Parse(prelude + `
ex:A rdfs:subClassOf ex:B .
ex:x a ex:A .
`)
	r := New(Options{})
	st1 := r.Materialize(g)
	if st1.Asserted != 2 || st1.Inferred != 1 || st1.TotalInferred != 1 {
		t.Fatalf("run 1: asserted=%d inferred=%d total=%d, want 2/1/1",
			st1.Asserted, st1.Inferred, st1.TotalInferred)
	}
	// Re-running on the unchanged graph must NOT count the first run's
	// inference as asserted (the historical misreport).
	st2 := r.Materialize(g)
	if st2.Asserted != 2 {
		t.Errorf("run 2: Asserted = %d, want 2 (prior inferences are not assertions)", st2.Asserted)
	}
	if st2.Inferred != 0 || st2.TotalInferred != 1 {
		t.Errorf("run 2: inferred=%d total=%d, want 0/1", st2.Inferred, st2.TotalInferred)
	}
	// One more asserted triple, one more inference: per-run vs cumulative.
	g.Add(iri("y"), rdf.TypeIRI, iri("A"))
	st3 := r.Materialize(g)
	if st3.Asserted != 3 || st3.Inferred != 1 || st3.TotalInferred != 2 {
		t.Errorf("run 3: asserted=%d inferred=%d total=%d, want 3/1/2",
			st3.Asserted, st3.Inferred, st3.TotalInferred)
	}
	// The delta path reports the same split.
	cs := g.StartCapture()
	g.Add(iri("z"), rdf.TypeIRI, iri("A"))
	st4 := r.MaterializeChanges(g, cs)
	if !st4.Delta {
		t.Fatal("expected delta path")
	}
	if st4.Asserted != 4 || st4.Inferred != 1 || st4.TotalInferred != 3 {
		t.Errorf("run 4: asserted=%d inferred=%d total=%d, want 4/1/3",
			st4.Asserted, st4.Inferred, st4.TotalInferred)
	}
	// Rebinding to a different graph resets the cumulative counter.
	g2, _ := turtle.Parse(prelude + `ex:o a ex:K .`)
	st5 := r.Materialize(g2)
	if st5.Asserted != 1 || st5.TotalInferred != 0 {
		t.Errorf("fresh graph: asserted=%d total=%d, want 1/0", st5.Asserted, st5.TotalInferred)
	}
}

// ---- deletion staleness detection ----

func TestStaleDerivations(t *testing.T) {
	g, _ := turtle.Parse(prelude + `
ex:A rdfs:subClassOf ex:B .
ex:B rdfs:subClassOf ex:C .
ex:x a ex:A .
ex:u ex:p ex:v .
`)
	r := New(Options{TraceDerivations: true})
	r.Materialize(g)

	premise := tr(iri("x"), rdf.TypeIRI, iri("A"))
	g.Remove(premise.S, premise.P, premise.O)
	stale := r.StaleDerivations([]rdf.Triple{premise})
	want := map[rdf.Triple]bool{
		tr(iri("x"), rdf.TypeIRI, iri("B")): true, // direct
		tr(iri("x"), rdf.TypeIRI, iri("C")): true, // transitive
	}
	if len(stale) != len(want) {
		t.Fatalf("stale = %v, want %d triples", stale, len(want))
	}
	for _, s := range stale {
		if !want[s] {
			t.Errorf("unexpected stale triple %v", s)
		}
	}

	// A premise that was deleted but re-inserted supports its proofs again.
	g.AddTriple(premise)
	if stale := r.StaleDerivations([]rdf.Triple{premise}); len(stale) != 0 {
		t.Errorf("re-inserted premise should not leave stale proofs, got %v", stale)
	}

	// Removing an unrelated asserted triple leaves no stale proofs.
	unrelated := tr(iri("u"), iri("p"), iri("v"))
	g.Remove(unrelated.S, unrelated.P, unrelated.O)
	if stale := r.StaleDerivations([]rdf.Triple{unrelated}); len(stale) != 0 {
		t.Errorf("unrelated removal flagged stale proofs: %v", stale)
	}

	// A removed CONCLUSION is not reported (it is gone, not stale).
	conclB := tr(iri("x"), rdf.TypeIRI, iri("B"))
	g.Remove(conclB.S, conclB.P, conclB.O)
	g.Remove(premise.S, premise.P, premise.O)
	stale = r.StaleDerivations([]rdf.Triple{premise, conclB})
	for _, s := range stale {
		if s == conclB {
			t.Errorf("removed conclusion reported as stale: %v", s)
		}
	}
}

func TestStaleDerivationsRequiresTracing(t *testing.T) {
	g, _ := turtle.Parse(prelude + `
ex:A rdfs:subClassOf ex:B .
ex:x a ex:A .
`)
	r := New(Options{})
	r.Materialize(g)
	prem := tr(iri("x"), rdf.TypeIRI, iri("A"))
	g.Remove(prem.S, prem.P, prem.O)
	if stale := r.StaleDerivations([]rdf.Triple{prem}); stale != nil {
		t.Errorf("tracing off: want nil, got %v", stale)
	}
}

// TestMaterializeDeltaRejectsInvalidTriples: a triple the graph rejects
// (literal subject) is never captured, so it cannot feed the rules — the
// full path drops it via Triple.Valid, and the delta path must agree.
func TestMaterializeDeltaRejectsInvalidTriples(t *testing.T) {
	g, _ := turtle.Parse(prelude + `ex:p owl:inverseOf ex:q .`)
	r := New(Options{})
	r.Materialize(g)
	before := g.Len()
	materializeAdded(r, g, []rdf.Triple{
		{S: rdf.NewLiteral("not-a-subject"), P: iri("p"), O: iri("y")},
	})
	if g.Len() != before {
		t.Errorf("graph grew by %d from an invalid delta triple", g.Len()-before)
	}
	if g.Exists(iri("y"), iri("q"), store.Wildcard) {
		t.Error("rules fired on a triple the graph rejected")
	}
}
