package reasoner

import (
	"repro/internal/store"
)

// The rule bodies below run entirely on dictionary IDs: premise joins probe
// the store's ID indexes (ObjectsID / SubjectsID / HasID / ForEachID) and
// conclusions are asserted with AddID. The indexes' innermost levels are
// the store's roaring bitmaps, so a membership premise (HasID) is a bitmap
// Contains and the candidate lists the joins iterate arrive in ascending
// ID order. No term is decoded unless tracing is enabled. Kind guards that
// used to call Term.IsIRI/IsBlank use the dictionary's kind table
// (IsResourceID) instead.

// applyDelta fires every rule in which the triple t can serve as a premise,
// joining the remaining premises against the current graph.
func (r *Reasoner) applyDelta(t iTriple) {
	switch t.P {
	case r.v.sco:
		r.onSubClassOf(t)
	case r.v.spo:
		r.onSubPropertyOf(t)
	case r.v.typ:
		r.onType(t)
	case r.v.dom:
		r.onDomain(t)
	case r.v.rng:
		r.onRange(t)
	case r.v.inv:
		r.onInverseOf(t)
	case r.v.eqc:
		r.onEquivalentClass(t)
	case r.v.eqp:
		r.onEquivalentProperty(t)
	case r.v.same:
		r.onSameAs(t)
	}
	// Every triple is also a candidate instance assertion (x p y).
	r.onAssertion(t)
}

// onSubClassOf: scm-sco (transitivity), cax-sco (type propagation),
// scm-eqc2 (mutual subclass → equivalence), scm-dom1, scm-rng1.
func (r *Reasoner) onSubClassOf(t iTriple) {
	c1, c2 := t.S, t.O
	// scm-sco: (c1 sco c2) ∧ (c2 sco c3) → (c1 sco c3)
	for _, c3 := range r.g.ObjectsID(c2, r.v.sco) {
		if c3 != c1 {
			r.infer("scm-sco", c1, r.v.sco, c3, t, iTriple{c2, r.v.sco, c3})
		}
	}
	// scm-sco (other side): (c0 sco c1) ∧ (c1 sco c2) → (c0 sco c2)
	for _, c0 := range r.g.SubjectsID(r.v.sco, c1) {
		if c0 != c2 {
			r.infer("scm-sco", c0, r.v.sco, c2, iTriple{c0, r.v.sco, c1}, t)
		}
	}
	// cax-sco: (x type c1) → (x type c2)
	for _, x := range r.g.SubjectsID(r.v.typ, c1) {
		r.infer("cax-sco", x, r.v.typ, c2, iTriple{x, r.v.typ, c1}, t)
	}
	// scm-eqc2: (c1 sco c2) ∧ (c2 sco c1) → equivalence
	if c1 != c2 && r.g.HasID(c2, r.v.sco, c1) {
		r.infer("scm-eqc2", c1, r.v.eqc, c2, t, iTriple{c2, r.v.sco, c1})
	}
	// cls-int1 via subclass: if c2 is a member of an intersection, x may now
	// qualify — handled by the type-propagation above reaching onType.
}

// onSubPropertyOf: scm-spo (transitivity), prp-spo1 (triple propagation),
// scm-eqp2, scm-dom2, scm-rng2.
func (r *Reasoner) onSubPropertyOf(t iTriple) {
	p1, p2 := t.S, t.O
	for _, p3 := range r.g.ObjectsID(p2, r.v.spo) {
		if p3 != p1 {
			r.infer("scm-spo", p1, r.v.spo, p3, t, iTriple{p2, r.v.spo, p3})
		}
	}
	for _, p0 := range r.g.SubjectsID(r.v.spo, p1) {
		if p0 != p2 {
			r.infer("scm-spo", p0, r.v.spo, p2, iTriple{p0, r.v.spo, p1}, t)
		}
	}
	// prp-spo1: (x p1 y) → (x p2 y)
	r.g.ForEachID(store.NoID, p1, store.NoID, func(s, p, o store.ID) bool {
		r.infer("prp-spo1", s, p2, o, iTriple{s, p, o}, t)
		return true
	})
	// scm-eqp2
	if p1 != p2 && r.g.HasID(p2, r.v.spo, p1) {
		r.infer("scm-eqp2", p1, r.v.eqp, p2, t, iTriple{p2, r.v.spo, p1})
	}
	// scm-dom2: (p2 dom c) → (p1 dom c); scm-rng2 analog.
	for _, c := range r.g.ObjectsID(p2, r.v.dom) {
		r.infer("scm-dom2", p1, r.v.dom, c, iTriple{p2, r.v.dom, c}, t)
	}
	for _, c := range r.g.ObjectsID(p2, r.v.rng) {
		r.infer("scm-rng2", p1, r.v.rng, c, iTriple{p2, r.v.rng, c}, t)
	}
}

// onType handles (x rdf:type c): subclass propagation, intersection and
// union membership, restriction consequences, and property-characteristic
// activation when c is an owl property class.
func (r *Reasoner) onType(t iTriple) {
	x, c := t.S, t.O
	// cax-sco: (c sco c2) → (x type c2)
	for _, c2 := range r.g.ObjectsID(c, r.v.sco) {
		r.infer("cax-sco", x, r.v.typ, c2, t, iTriple{c, r.v.sco, c2})
	}
	// cls-int2: x ∈ intersection c → x ∈ every member.
	if members, ok := r.expr.intersections[c]; ok {
		for _, m := range members {
			r.infer("cls-int2", x, r.v.typ, m, t)
		}
	}
	// cls-int1: c is a member of intersection classes; x qualifies when it
	// has every member type.
	for _, ic := range r.expr.memberOfIntersection[c] {
		all := true
		for _, m := range r.expr.intersections[ic] {
			if m != c && !r.g.HasID(x, r.v.typ, m) {
				all = false
				break
			}
		}
		if all {
			premises := []iTriple{t}
			for _, m := range r.expr.intersections[ic] {
				if m != c {
					premises = append(premises, iTriple{x, r.v.typ, m})
				}
			}
			r.infer("cls-int1", x, r.v.typ, ic, premises...)
		}
	}
	// cls-uni: c is a member of union classes → x ∈ union.
	for _, uc := range r.expr.memberOfUnion[c] {
		r.infer("cls-uni", x, r.v.typ, uc, t)
	}
	// cls-hv1: c is a hasValue restriction → (x prop value).
	if rest, ok := r.expr.byNode[c]; ok {
		if rest.HasValue != store.NoID {
			r.infer("cls-hv1", x, rest.Prop, rest.HasValue, t)
		}
		// cls-avf: c = allValuesFrom(p, f): (x p v) → (v type f)
		if rest.AllFrom != store.NoID {
			r.g.ForEachID(x, rest.Prop, store.NoID, func(s, p, o store.ID) bool {
				r.infer("cls-avf", o, r.v.typ, rest.AllFrom, t, iTriple{s, p, o})
				return true
			})
		}
	}
	// cls-svf1 (filler side): x just became an instance of a someValuesFrom
	// filler; every (u p x) now makes u an instance of the restriction.
	for _, rest := range r.expr.svfByFiller[c] {
		for _, u := range r.g.SubjectsID(rest.Prop, x) {
			r.infer("cls-svf1", u, r.v.typ, rest.Node, iTriple{u, rest.Prop, x}, t)
		}
	}
	// scm-cls: (x type owl:Class) → reflexive subclass axioms. Handled here
	// (rather than by a whole-graph seed pass) so class declarations
	// arriving in a delta get their reflexive triples too.
	if c == r.v.class && r.opts.IncludeReflexive {
		r.infer("scm-cls", x, r.v.sco, x, t)
		r.infer("scm-cls", x, r.v.sco, r.v.thing, t)
	}
	// Property-characteristic activation: (p type TransitiveProperty) etc.
	// arriving after instance triples requires a batch pass.
	switch c {
	case r.v.trans:
		r.g.ForEachID(store.NoID, x, store.NoID, func(s, p, o store.ID) bool {
			r.transClose(x, iTriple{s, p, o})
			return true
		})
	case r.v.sym:
		r.g.ForEachID(store.NoID, x, store.NoID, func(s, p, o store.ID) bool {
			if r.g.IsResourceID(o) {
				r.infer("prp-symp", o, x, s, iTriple{s, p, o}, t)
			}
			return true
		})
	case r.v.funcP:
		r.g.ForEachID(store.NoID, x, store.NoID, func(s, p, o store.ID) bool {
			r.funcProp(x, iTriple{s, p, o})
			return true
		})
	case r.v.invFunc:
		r.g.ForEachID(store.NoID, x, store.NoID, func(s, p, o store.ID) bool {
			r.invFuncProp(x, iTriple{s, p, o})
			return true
		})
	}
}

// onDomain applies prp-dom to all existing triples of the property.
func (r *Reasoner) onDomain(t iTriple) {
	p, c := t.S, t.O
	r.g.ForEachID(store.NoID, p, store.NoID, func(s, pp, o store.ID) bool {
		r.infer("prp-dom", s, r.v.typ, c, iTriple{s, pp, o}, t)
		return true
	})
}

// onRange applies prp-rng to all existing triples of the property.
func (r *Reasoner) onRange(t iTriple) {
	p, c := t.S, t.O
	r.g.ForEachID(store.NoID, p, store.NoID, func(s, pp, o store.ID) bool {
		if r.g.IsResourceID(o) {
			r.infer("prp-rng", o, r.v.typ, c, iTriple{s, pp, o}, t)
		}
		return true
	})
}

// onInverseOf applies prp-inv1/2 to existing triples of both properties.
func (r *Reasoner) onInverseOf(t iTriple) {
	p1, p2 := t.S, t.O
	r.g.ForEachID(store.NoID, p1, store.NoID, func(s, p, o store.ID) bool {
		if r.g.IsResourceID(o) {
			r.infer("prp-inv1", o, p2, s, iTriple{s, p, o}, t)
		}
		return true
	})
	r.g.ForEachID(store.NoID, p2, store.NoID, func(s, p, o store.ID) bool {
		if r.g.IsResourceID(o) {
			r.infer("prp-inv2", o, p1, s, iTriple{s, p, o}, t)
		}
		return true
	})
}

// onEquivalentClass: scm-eqc1 both directions plus symmetry.
func (r *Reasoner) onEquivalentClass(t iTriple) {
	c1, c2 := t.S, t.O
	r.infer("scm-eqc1", c1, r.v.sco, c2, t)
	r.infer("scm-eqc1", c2, r.v.sco, c1, t)
	r.infer("eq-sym(c)", c2, r.v.eqc, c1, t)
}

// onEquivalentProperty: scm-eqp1 both directions plus symmetry.
func (r *Reasoner) onEquivalentProperty(t iTriple) {
	p1, p2 := t.S, t.O
	r.infer("scm-eqp1", p1, r.v.spo, p2, t)
	r.infer("scm-eqp1", p2, r.v.spo, p1, t)
	r.infer("eq-sym(p)", p2, r.v.eqp, p1, t)
}

// onSameAs: eq-sym, eq-trans, eq-rep-s/o (predicate replacement is omitted:
// sameAs between properties does not occur in FEO).
func (r *Reasoner) onSameAs(t iTriple) {
	x, y := t.S, t.O
	if x == y {
		return
	}
	r.infer("eq-sym", y, r.v.same, x, t)
	for _, z := range r.g.ObjectsID(y, r.v.same) {
		if z != x {
			r.infer("eq-trans", x, r.v.same, z, t, iTriple{y, r.v.same, z})
		}
	}
	// eq-rep-s: (x same y) ∧ (x p o) → (y p o)
	r.g.ForEachID(x, store.NoID, store.NoID, func(s, p, o store.ID) bool {
		if p != r.v.same {
			r.infer("eq-rep-s", y, p, o, iTriple{s, p, o}, t)
		}
		return true
	})
	// eq-rep-o: (x same y) ∧ (s p x) → (s p y)
	r.g.ForEachID(store.NoID, store.NoID, x, func(s, p, o store.ID) bool {
		if p != r.v.same {
			r.infer("eq-rep-o", s, p, y, iTriple{s, p, o}, t)
		}
		return true
	})
}

// onAssertion handles a generic triple (x p y) as an instance assertion.
func (r *Reasoner) onAssertion(t iTriple) {
	x, p, y := t.S, t.P, t.O
	yRes := r.g.IsResourceID(y)
	// prp-spo1: superproperties carry the triple.
	for _, sup := range r.g.ObjectsID(p, r.v.spo) {
		if sup != p {
			r.infer("prp-spo1", x, sup, y, t, iTriple{p, r.v.spo, sup})
		}
	}
	// prp-dom / prp-rng.
	for _, c := range r.g.ObjectsID(p, r.v.dom) {
		r.infer("prp-dom", x, r.v.typ, c, t, iTriple{p, r.v.dom, c})
	}
	if yRes {
		for _, c := range r.g.ObjectsID(p, r.v.rng) {
			r.infer("prp-rng", y, r.v.typ, c, t, iTriple{p, r.v.rng, c})
		}
	}
	// prp-inv1/2.
	if yRes {
		for _, q := range r.g.ObjectsID(p, r.v.inv) {
			r.infer("prp-inv1", y, q, x, t, iTriple{p, r.v.inv, q})
		}
		for _, q := range r.g.SubjectsID(r.v.inv, p) {
			r.infer("prp-inv2", y, q, x, t, iTriple{q, r.v.inv, p})
		}
		// prp-symp.
		if r.g.HasID(p, r.v.typ, r.v.sym) {
			r.infer("prp-symp", y, p, x, t, iTriple{p, r.v.typ, r.v.sym})
		}
		// prp-trp.
		if r.g.HasID(p, r.v.typ, r.v.trans) {
			r.transClose(p, t)
		}
		// prp-fp / prp-ifp.
		if r.g.HasID(p, r.v.typ, r.v.funcP) {
			r.funcProp(p, t)
		}
		if r.g.HasID(p, r.v.typ, r.v.invFunc) {
			r.invFuncProp(p, t)
		}
	}
	// cls-svf1: (x p y) ∧ (y type filler) → (x type restriction).
	for _, rest := range r.expr.restrictionsByProp[p] {
		if rest.SomeFrom != store.NoID {
			if rest.SomeFrom == r.v.thing || r.g.HasID(y, r.v.typ, rest.SomeFrom) {
				prem := []iTriple{t}
				if rest.SomeFrom != r.v.thing {
					prem = append(prem, iTriple{y, r.v.typ, rest.SomeFrom})
				}
				r.infer("cls-svf1", x, r.v.typ, rest.Node, prem...)
			}
		}
		// cls-hv2: (x p v) with v the hasValue → (x type restriction).
		if rest.HasValue != store.NoID && rest.HasValue == y {
			r.infer("cls-hv2", x, r.v.typ, rest.Node, t)
		}
		// cls-avf: (x type restriction) ∧ (x p y) → (y type filler).
		if rest.AllFrom != store.NoID && r.g.HasID(x, r.v.typ, rest.Node) {
			r.infer("cls-avf", y, r.v.typ, rest.AllFrom, t, iTriple{x, r.v.typ, rest.Node})
		}
	}
	// prp-spo2: property chains. Any triple whose predicate appears in a
	// chain may complete an instantiation of that chain.
	for _, c := range r.expr.chainsByStep[p] {
		r.applyChain(c, t)
	}
	// eq-rep: replicate through sameAs aliases of x and y.
	if p != r.v.same {
		for _, alias := range r.g.ObjectsID(x, r.v.same) {
			if alias != x {
				r.infer("eq-rep-s", alias, p, y, t, iTriple{x, r.v.same, alias})
			}
		}
		if yRes {
			for _, alias := range r.g.ObjectsID(y, r.v.same) {
				if alias != y {
					r.infer("eq-rep-o", x, p, alias, t, iTriple{y, r.v.same, alias})
				}
			}
		}
	}
}

// transClose extends the transitive closure of property p around the new
// edge a = (x p y): joins on both sides.
func (r *Reasoner) transClose(p store.ID, a iTriple) {
	x, y := a.S, a.O
	charPremise := iTriple{p, r.v.typ, r.v.trans}
	for _, z := range r.g.ObjectsID(y, p) {
		if z != x {
			r.infer("prp-trp", x, p, z, a, iTriple{y, p, z}, charPremise)
		}
	}
	for _, w := range r.g.SubjectsID(p, x) {
		if w != y {
			r.infer("prp-trp", w, p, y, iTriple{w, p, x}, a, charPremise)
		}
	}
}

// applyChain applies prp-spo2 for one chain, seeded by the new triple t.
// It enumerates every full instantiation of the chain that uses t in at
// least one step position, joining the other steps against the graph.
func (r *Reasoner) applyChain(c chain, t iTriple) {
	for pos, step := range c.Steps {
		if step != t.P {
			continue
		}
		// Walk backward from t.S through steps[0..pos-1] and forward from
		// t.O through steps[pos+1..], collecting premise sets.
		starts := []chainPath{{node: t.S, premises: nil}}
		for i := pos - 1; i >= 0; i-- {
			var next []chainPath
			for _, cp := range starts {
				for _, prev := range r.g.SubjectsID(c.Steps[i], cp.node) {
					prem := append([]iTriple{{prev, c.Steps[i], cp.node}}, cp.premises...)
					next = append(next, chainPath{node: prev, premises: prem})
				}
			}
			starts = next
			if len(starts) == 0 {
				return
			}
		}
		ends := []chainPath{{node: t.O, premises: nil}}
		for i := pos + 1; i < len(c.Steps); i++ {
			var next []chainPath
			for _, cp := range ends {
				for _, nxt := range r.g.ObjectsID(cp.node, c.Steps[i]) {
					prem := append(append([]iTriple{}, cp.premises...), iTriple{cp.node, c.Steps[i], nxt})
					next = append(next, chainPath{node: nxt, premises: prem})
				}
			}
			ends = next
			if len(ends) == 0 {
				return
			}
		}
		for _, s := range starts {
			for _, e := range ends {
				premises := make([]iTriple, 0, len(s.premises)+1+len(e.premises))
				premises = append(premises, s.premises...)
				premises = append(premises, t)
				premises = append(premises, e.premises...)
				r.infer("prp-spo2", s.node, c.Super, e.node, premises...)
			}
		}
	}
}

// chainPath tracks one partial chain instantiation during prp-spo2.
type chainPath struct {
	node     store.ID
	premises []iTriple
}

// funcProp applies prp-fp: two objects of a functional property are sameAs.
func (r *Reasoner) funcProp(p store.ID, a iTriple) {
	if !r.g.IsResourceID(a.O) {
		return
	}
	for _, other := range r.g.ObjectsID(a.S, p) {
		if other != a.O && r.g.IsResourceID(other) {
			r.infer("prp-fp", a.O, r.v.same, other, a, iTriple{a.S, p, other})
		}
	}
}

// invFuncProp applies prp-ifp: two subjects sharing an object of an
// inverse-functional property are sameAs.
func (r *Reasoner) invFuncProp(p store.ID, a iTriple) {
	for _, other := range r.g.SubjectsID(p, a.O) {
		if other != a.S {
			r.infer("prp-ifp", a.S, r.v.same, other, a, iTriple{other, p, a.O})
		}
	}
}
