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
// the newly added triples and patches the expression table in place, so
// re-classifying the graph after a small assertion (the explain-time
// question individuals, an INSERT DATA, a loaded document) costs time
// proportional to the delta's consequences, not the graph. See the
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
// keyed by term ID. It is built from the whole graph once per full
// Materialize and then maintained incrementally: every structural triple
// that arrives later — in a delta seed or as a fresh inference — patches
// exactly the entries it touches (updateExpr), and the patched expression
// is re-activated against existing instances. rdf:first/rdf:rest triples
// patch the expressions whose member lists they extend, found by walking
// rest-edges back to the list head. Only removals of structural triples
// invalidate the table wholesale (the delta path falls back to a full
// rebuild in that case).
type exprTable struct {
	// intersections maps a class to its owl:intersectionOf member list.
	intersections map[store.ID][]store.ID
	// memberOfIntersection maps a member class to the intersection classes
	// that contain it.
	memberOfIntersection map[store.ID][]store.ID
	unions               map[store.ID][]store.ID
	memberOfUnion        map[store.ID][]store.ID
	// restrictionsByProp maps a property to the restrictions on it.
	restrictionsByProp map[store.ID][]restriction
	// byNode maps a restriction node to its parsed form.
	byNode map[store.ID]restriction
	// svfByFiller maps a someValuesFrom filler class to restrictions using it.
	svfByFiller map[store.ID][]restriction
	// chains holds owl:propertyChainAxiom definitions: super-property and
	// the chain of step properties. Re-parsed entries leave a nil-Steps
	// placeholder (index stability) but are unlinked from chainsByStep.
	chains []chain
	// chainsByStep indexes live chains by each property appearing in them.
	chainsByStep map[store.ID][]int
	// chainsBySuper indexes live chains by super-property, for re-parsing.
	chainsBySuper map[store.ID][]int
}

// chain is one owl:propertyChainAxiom: steps[0] ∘ steps[1] ∘ … ⊑ super.
type chain struct {
	Super store.ID
	Steps []store.ID
}

func newExprTable() *exprTable {
	return &exprTable{
		intersections:        make(map[store.ID][]store.ID),
		memberOfIntersection: make(map[store.ID][]store.ID),
		unions:               make(map[store.ID][]store.ID),
		memberOfUnion:        make(map[store.ID][]store.ID),
		restrictionsByProp:   make(map[store.ID][]restriction),
		byNode:               make(map[store.ID]restriction),
		svfByFiller:          make(map[store.ID][]restriction),
		chainsByStep:         make(map[store.ID][]int),
		chainsBySuper:        make(map[store.ID][]int),
	}
}

func buildExprTable(g *store.Graph, v vocab) *exprTable {
	t := newExprTable()
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
			t.unions[s] = members
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
		idx := len(t.chains)
		t.chains = append(t.chains, chain{Super: s, Steps: steps})
		t.chainsBySuper[s] = append(t.chainsBySuper[s], idx)
		seen := store.NewIDSet()
		for _, st := range steps {
			if seen.Add(st) {
				t.chainsByStep[st] = append(t.chainsByStep[st], idx)
			}
		}
		return true
	})
	return t
}

// ---- incremental maintenance ----

// updateExpr patches the expression table for one newly added structural
// triple and re-activates the affected expressions against the instance
// data already in the graph. This replaces the historical whole-graph
// rebuild: cost is proportional to the touched expressions (plus their
// activation scans), not to the graph.
func (r *Reasoner) updateExpr(t iTriple) {
	switch t.P {
	case r.v.inter:
		r.reparseIntersection(t.S)
	case r.v.union:
		r.reparseUnion(t.S)
	case r.v.onProp, r.v.svf, r.v.avf, r.v.hv:
		r.reparseRestriction(t.S)
	case r.v.chain:
		r.reparseChains(t.S)
	case r.v.first, r.v.rest:
		r.updateListNode(t.S)
	}
}

// updateListNode handles an rdf:first/rdf:rest triple: the subject is a
// list cell, and extending a list can complete (or alter) the member list
// of any expression whose head reaches this cell. Walk rest-edges backward
// to every ancestor cell and re-parse the expressions that use one of them
// as a list head.
func (r *Reasoner) updateListNode(node store.ID) {
	seen := store.NewIDSet()
	seen.Add(node)
	stack := []store.ID{node}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range r.g.SubjectsID(r.v.inter, n) {
			r.reparseIntersection(c)
		}
		for _, c := range r.g.SubjectsID(r.v.union, n) {
			r.reparseUnion(c)
		}
		for _, sup := range r.g.SubjectsID(r.v.chain, n) {
			r.reparseChains(sup)
		}
		for _, pred := range r.g.SubjectsID(r.v.rest, n) {
			if seen.Add(pred) {
				stack = append(stack, pred)
			}
		}
	}
}

func (r *Reasoner) reparseIntersection(c store.ID) {
	members := r.readExprList(c, r.v.inter)
	old := r.expr.intersections[c]
	if idSlicesEqual(old, members) {
		return
	}
	for _, m := range old {
		r.expr.memberOfIntersection[m] = removeID(r.expr.memberOfIntersection[m], c)
	}
	if len(members) == 0 {
		delete(r.expr.intersections, c)
		return
	}
	r.expr.intersections[c] = members
	for _, m := range members {
		r.expr.memberOfIntersection[m] = append(r.expr.memberOfIntersection[m], c)
	}
	r.activateIntersection(c, members)
}

func (r *Reasoner) reparseUnion(c store.ID) {
	members := r.readExprList(c, r.v.union)
	old := r.expr.unions[c]
	if idSlicesEqual(old, members) {
		return
	}
	for _, m := range old {
		r.expr.memberOfUnion[m] = removeID(r.expr.memberOfUnion[m], c)
	}
	if len(members) == 0 {
		delete(r.expr.unions, c)
		return
	}
	r.expr.unions[c] = members
	for _, m := range members {
		r.expr.memberOfUnion[m] = append(r.expr.memberOfUnion[m], c)
	}
	r.activateUnion(c, members)
}

// readExprList reads the member list of (c pred listHead), or nil when the
// list is absent, still incomplete, or empty.
func (r *Reasoner) readExprList(c, pred store.ID) []store.ID {
	head := r.g.FirstObjectID(c, pred)
	if head == store.NoID {
		return nil
	}
	members, ok := r.g.ReadListID(head)
	if !ok || len(members) == 0 {
		return nil
	}
	return members
}

func (r *Reasoner) reparseRestriction(node store.ID) {
	var nr restriction
	have := false
	if prop := r.g.FirstObjectID(node, r.v.onProp); prop != store.NoID {
		nr = restriction{Node: node, Prop: prop,
			SomeFrom: r.g.FirstObjectID(node, r.v.svf),
			AllFrom:  r.g.FirstObjectID(node, r.v.avf),
			HasValue: r.g.FirstObjectID(node, r.v.hv),
		}
		have = nr.SomeFrom != store.NoID || nr.AllFrom != store.NoID || nr.HasValue != store.NoID
	}
	old, hadOld := r.expr.byNode[node]
	if hadOld && have && old == nr {
		return
	}
	if hadOld {
		r.expr.restrictionsByProp[old.Prop] = removeRestrictionByNode(r.expr.restrictionsByProp[old.Prop], node)
		if old.SomeFrom != store.NoID {
			r.expr.svfByFiller[old.SomeFrom] = removeRestrictionByNode(r.expr.svfByFiller[old.SomeFrom], node)
		}
		delete(r.expr.byNode, node)
	}
	if !have {
		return
	}
	r.expr.restrictionsByProp[nr.Prop] = append(r.expr.restrictionsByProp[nr.Prop], nr)
	r.expr.byNode[node] = nr
	if nr.SomeFrom != store.NoID {
		r.expr.svfByFiller[nr.SomeFrom] = append(r.expr.svfByFiller[nr.SomeFrom], nr)
	}
	r.activateRestriction(nr)
}

// reparseChains re-reads every owl:propertyChainAxiom of one super-property,
// retiring the old entries — their indexes are removed from chainsByStep so
// instance-triple dispatch never scans dead chains (piecemeal list arrival
// reparses once per cell) — and activating the fresh ones. The chains slice
// keeps a nil-Steps placeholder per retired entry to preserve index
// stability; that growth is bounded by the number of chain-axiom reparses,
// not by instance traffic.
func (r *Reasoner) reparseChains(super store.ID) {
	for _, ci := range r.expr.chainsBySuper[super] {
		for _, st := range r.expr.chains[ci].Steps {
			r.expr.chainsByStep[st] = removeInt(r.expr.chainsByStep[st], ci)
		}
		r.expr.chains[ci].Steps = nil
	}
	r.expr.chainsBySuper[super] = nil
	for _, head := range r.g.ObjectsID(super, r.v.chain) {
		steps, ok := r.g.ReadListID(head)
		if !ok || len(steps) < 2 {
			continue
		}
		idx := len(r.expr.chains)
		r.expr.chains = append(r.expr.chains, chain{Super: super, Steps: steps})
		r.expr.chainsBySuper[super] = append(r.expr.chainsBySuper[super], idx)
		seen := store.NewIDSet()
		for _, st := range steps {
			if seen.Add(st) {
				r.expr.chainsByStep[st] = append(r.expr.chainsByStep[st], idx)
			}
		}
		r.activateChain(idx)
	}
}

// ---- expression activation ----
//
// A structural definition arriving AFTER instance data (in a delta, or
// inferred mid-run) must re-fire its rules against the instances already in
// the graph: the instance-side premises were processed before the
// expression existed, so nothing else will revisit them. Activation scans
// are bounded by the affected extents and every inference is idempotent.

// activateIntersection re-fires cls-int1/cls-int2 for one intersection.
func (r *Reasoner) activateIntersection(ic store.ID, members []store.ID) {
	// cls-int2: existing instances of the intersection gain each member.
	for _, x := range r.g.SubjectsID(r.v.typ, ic) {
		t := iTriple{x, r.v.typ, ic}
		for _, m := range members {
			r.infer("cls-int2", x, r.v.typ, m, t)
		}
	}
	// cls-int1: instances holding every member type gain the intersection.
	// Scan the member with the smallest extent and probe the rest.
	pivot := members[0]
	pivotN := r.g.CountID(store.NoID, r.v.typ, pivot)
	for _, m := range members[1:] {
		if n := r.g.CountID(store.NoID, r.v.typ, m); n < pivotN {
			pivot, pivotN = m, n
		}
	}
	for _, x := range r.g.SubjectsID(r.v.typ, pivot) {
		all := true
		for _, m := range members {
			if m != pivot && !r.g.HasID(x, r.v.typ, m) {
				all = false
				break
			}
		}
		if !all {
			continue
		}
		premises := make([]iTriple, 0, len(members))
		for _, m := range members {
			premises = append(premises, iTriple{x, r.v.typ, m})
		}
		r.infer("cls-int1", x, r.v.typ, ic, premises...)
	}
}

// activateUnion re-fires cls-uni for one union.
func (r *Reasoner) activateUnion(uc store.ID, members []store.ID) {
	for _, m := range members {
		for _, x := range r.g.SubjectsID(r.v.typ, m) {
			r.infer("cls-uni", x, r.v.typ, uc, iTriple{x, r.v.typ, m})
		}
	}
}

// activateRestriction re-fires cls-svf1/cls-hv1/cls-hv2/cls-avf for one
// freshly parsed restriction.
func (r *Reasoner) activateRestriction(rest restriction) {
	if rest.SomeFrom != store.NoID {
		r.g.ForEachID(store.NoID, rest.Prop, store.NoID, func(x, p, y store.ID) bool {
			if rest.SomeFrom == r.v.thing {
				r.infer("cls-svf1", x, r.v.typ, rest.Node, iTriple{x, p, y})
			} else if r.g.HasID(y, r.v.typ, rest.SomeFrom) {
				r.infer("cls-svf1", x, r.v.typ, rest.Node,
					iTriple{x, p, y}, iTriple{y, r.v.typ, rest.SomeFrom})
			}
			return true
		})
	}
	if rest.HasValue != store.NoID {
		for _, x := range r.g.SubjectsID(rest.Prop, rest.HasValue) {
			r.infer("cls-hv2", x, r.v.typ, rest.Node, iTriple{x, rest.Prop, rest.HasValue})
		}
		for _, x := range r.g.SubjectsID(r.v.typ, rest.Node) {
			r.infer("cls-hv1", x, rest.Prop, rest.HasValue, iTriple{x, r.v.typ, rest.Node})
		}
	}
	if rest.AllFrom != store.NoID {
		for _, x := range r.g.SubjectsID(r.v.typ, rest.Node) {
			t := iTriple{x, r.v.typ, rest.Node}
			r.g.ForEachID(x, rest.Prop, store.NoID, func(s, p, o store.ID) bool {
				r.infer("cls-avf", o, r.v.typ, rest.AllFrom, t, iTriple{s, p, o})
				return true
			})
		}
	}
}

// activateChain re-fires prp-spo2 for one chain against the existing
// instance data. Every full instantiation of the chain uses one triple of
// every step, so scanning the step with the smallest extent and expanding
// outward from each of its triples covers all instantiations.
func (r *Reasoner) activateChain(ci int) {
	c := r.expr.chains[ci]
	best := c.Steps[0]
	bestN := r.g.CountID(store.NoID, best, store.NoID)
	for _, st := range c.Steps[1:] {
		if n := r.g.CountID(store.NoID, st, store.NoID); n < bestN {
			best, bestN = st, n
		}
	}
	r.g.ForEachID(store.NoID, best, store.NoID, func(s, p, o store.ID) bool {
		r.applyChain(c, iTriple{s, p, o})
		return true
	})
}

// ---- small slice helpers ----

func idSlicesEqual(a, b []store.ID) bool {
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

func removeID(list []store.ID, id store.ID) []store.ID {
	out := list[:0]
	for _, x := range list {
		if x != id {
			out = append(out, x)
		}
	}
	return out
}

func removeInt(list []int, v int) []int {
	out := list[:0]
	for _, x := range list {
		if x != v {
			out = append(out, x)
		}
	}
	return out
}

func removeRestrictionByNode(list []restriction, node store.ID) []restriction {
	out := list[:0]
	for _, x := range list {
		if x.Node != node {
			out = append(out, x)
		}
	}
	return out
}
