// Package reasoner implements a forward-chaining materializer for the OWL 2
// RL fragment that the Food Explanation Ontology (FEO) uses. It substitutes
// for the Pellet reasoner the paper runs before exporting inferred axioms:
// after Materialize, the graph contains every triple Listings 1-3 of the
// paper query for — transitive characteristic closures, inverse-property
// completions, sub-property inheritance, and equivalent-class membership
// (including intersection and restriction classes such as eo:Fact/eo:Foil).
//
// Two evaluation strategies are provided: semi-naive (delta-driven, the
// default) and naive (full re-evaluation each round, kept for the ablation
// benchmark that reproduces the paper's "a reasoner known to handle
// individuals more efficiently" motivation for choosing Pellet).
//
// The semi-naive engine is additionally *incremental across runs*: after a
// completed materialization, MaterializeChanges seeds the queue with only
// the newly added triples, so re-classifying the graph after a small
// assertion (the explain-time question individuals, an INSERT DATA, a
// loaded document) costs time proportional to the delta's consequences,
// not the graph. The expression table is only ever built whole, from the
// graph: a change that alters it (a structural triple asserted, or
// inferred mid-run) re-runs the closure over the whole graph. See the
// Reasoner type's doc comment for the exact contract and fallback
// conditions.
//
// The engine is dictionary-encoded end to end: triples enter the rule queue
// as store.ID triples, rule joins probe the store's ID indexes, and terms
// are only decoded at the public API boundary (Derivation, Proof) or when
// TraceDerivations is on.
package reasoner

import (
	"repro/internal/store"
)

// restriction describes an owl:Restriction node after structural parsing.
// Exactly one of SomeFrom, AllFrom, HasValue is set (the others are NoID).
type restriction struct {
	Node     store.ID // the restriction class node (usually a blank node)
	Prop     store.ID // owl:onProperty
	SomeFrom store.ID // owl:someValuesFrom filler, or NoID
	AllFrom  store.ID // owl:allValuesFrom filler, or NoID
	HasValue store.ID // owl:hasValue value, or NoID
}

// exprTable indexes OWL class expressions (intersections, unions,
// restrictions, property chains) for O(1) lookup during rule application,
// keyed by term ID. It is built from the whole graph by buildExprTable and
// never patched: a run that adds a structural triple (see structuralIDs)
// rebuilds it and re-queues every triple, so rule joins never read a
// stale table at the fixpoint.
type exprTable struct {
	// intersections maps a class to its owl:intersectionOf member list.
	intersections map[store.ID][]store.ID
	// memberOfIntersection maps a member class to the intersection classes
	// that contain it.
	memberOfIntersection map[store.ID][]store.ID
	// memberOfUnion maps a member class to the union classes that contain
	// it.
	memberOfUnion map[store.ID][]store.ID
	// restrictionsByProp maps a property to the restrictions on it.
	restrictionsByProp map[store.ID][]restriction
	// byNode maps a restriction node to its parsed form.
	byNode map[store.ID]restriction
	// svfByFiller maps a someValuesFrom filler class to restrictions using it.
	svfByFiller map[store.ID][]restriction
	// chainsByStep maps a property to the owl:propertyChainAxiom chains it
	// is a step of.
	chainsByStep map[store.ID][]chain
}

// chain is one owl:propertyChainAxiom: steps[0] ∘ steps[1] ∘ … ⊑ super.
type chain struct {
	Super store.ID
	Steps []store.ID
}

// buildExprTable parses every class expression in g.
func buildExprTable(g *store.Graph, v vocab) *exprTable {
	t := &exprTable{
		intersections:        make(map[store.ID][]store.ID),
		memberOfIntersection: make(map[store.ID][]store.ID),
		memberOfUnion:        make(map[store.ID][]store.ID),
		restrictionsByProp:   make(map[store.ID][]restriction),
		byNode:               make(map[store.ID]restriction),
		svfByFiller:          make(map[store.ID][]restriction),
		chainsByStep:         make(map[store.ID][]chain),
	}
	g.ForEachID(store.NoID, v.inter, store.NoID, func(s, _, o store.ID) bool {
		if members, ok := g.ReadListID(o); ok && len(members) > 0 {
			t.intersections[s] = members
			for _, m := range members {
				t.memberOfIntersection[m] = append(t.memberOfIntersection[m], s)
			}
		}
		return true
	})
	g.ForEachID(store.NoID, v.union, store.NoID, func(s, _, o store.ID) bool {
		if members, ok := g.ReadListID(o); ok && len(members) > 0 {
			for _, m := range members {
				t.memberOfUnion[m] = append(t.memberOfUnion[m], s)
			}
		}
		return true
	})
	g.ForEachID(store.NoID, v.onProp, store.NoID, func(s, _, o store.ID) bool {
		r := restriction{Node: s, Prop: o,
			SomeFrom: g.FirstObjectID(s, v.svf),
			AllFrom:  g.FirstObjectID(s, v.avf),
			HasValue: g.FirstObjectID(s, v.hv),
		}
		if r.SomeFrom == store.NoID && r.AllFrom == store.NoID && r.HasValue == store.NoID {
			return true // cardinality or other unsupported restriction
		}
		t.restrictionsByProp[r.Prop] = append(t.restrictionsByProp[r.Prop], r)
		t.byNode[r.Node] = r
		if r.SomeFrom != store.NoID {
			t.svfByFiller[r.SomeFrom] = append(t.svfByFiller[r.SomeFrom], r)
		}
		return true
	})
	g.ForEachID(store.NoID, v.chain, store.NoID, func(s, _, o store.ID) bool {
		steps, ok := g.ReadListID(o)
		if !ok || len(steps) < 2 {
			return true
		}
		c := chain{Super: s, Steps: steps}
		seen := store.NewIDSet()
		for _, st := range steps {
			if seen.Add(st) {
				t.chainsByStep[st] = append(t.chainsByStep[st], c)
			}
		}
		return true
	})
	return t
}
