package store

import (
	"fmt"
	"sort"

	"repro/internal/rdf"
)

// Isomorphic reports whether two graphs are equal up to blank node renaming.
//
// The algorithm is iterative color refinement (hashing each blank node by
// the multiset of its ground neighborhood signatures) followed, when
// refinement leaves ambiguous groups, by backtracking search over the small
// candidate sets. Ontology documents have few and shallow blank nodes
// (OWL restrictions and RDF lists), so the search space stays tiny; the
// worst case is exponential, as graph isomorphism demands.
func Isomorphic(a, b *Graph) bool {
	if a.Len() != b.Len() {
		return false
	}
	// Ground triples (no blank nodes) must match exactly.
	groundA, bnodeA := splitGround(a)
	groundB, bnodeB := splitGround(b)
	if len(groundA) != len(groundB) || len(bnodeA) != len(bnodeB) {
		return false
	}
	gset := make(map[rdf.Triple]struct{}, len(groundB))
	for _, t := range groundB {
		gset[t] = struct{}{}
	}
	for _, t := range groundA {
		if _, ok := gset[t]; !ok {
			return false
		}
	}
	blanksA := collectBlanks(bnodeA)
	blanksB := collectBlanks(bnodeB)
	if len(blanksA) != len(blanksB) {
		return false
	}
	if len(blanksA) == 0 {
		return true
	}
	sigA := refine(bnodeA, blanksA)
	sigB := refine(bnodeB, blanksB)
	// Group by signature; candidate targets for each A-blank are B-blanks
	// sharing its signature.
	groupsB := make(map[string][]rdf.Term)
	for n, s := range sigB {
		groupsB[s] = append(groupsB[s], n)
	}
	for _, g := range groupsB {
		sort.Slice(g, func(i, j int) bool { return rdf.Compare(g[i], g[j]) < 0 })
	}
	order := make([]rdf.Term, 0, len(blanksA))
	for n := range sigA {
		order = append(order, n)
	}
	// Match most-constrained nodes first.
	sort.Slice(order, func(i, j int) bool {
		gi, gj := len(groupsB[sigA[order[i]]]), len(groupsB[sigA[order[j]]])
		if gi != gj {
			return gi < gj
		}
		return rdf.Compare(order[i], order[j]) < 0
	})
	mapping := make(map[rdf.Term]rdf.Term, len(order))
	used := make(map[rdf.Term]bool, len(order))
	return matchBlanks(order, 0, sigA, groupsB, mapping, used, bnodeA, b)
}

func matchBlanks(order []rdf.Term, i int, sigA map[rdf.Term]string,
	groupsB map[string][]rdf.Term, mapping map[rdf.Term]rdf.Term,
	used map[rdf.Term]bool, bnodeA []rdf.Triple, b *Graph) bool {
	if i == len(order) {
		// Verify every bnode triple of A maps into B.
		for _, t := range bnodeA {
			if !b.Has(applyMapping(t.S, mapping), t.P, applyMapping(t.O, mapping)) {
				return false
			}
		}
		return true
	}
	n := order[i]
	for _, cand := range groupsB[sigA[n]] {
		if used[cand] {
			continue
		}
		mapping[n] = cand
		used[cand] = true
		if matchBlanks(order, i+1, sigA, groupsB, mapping, used, bnodeA, b) {
			return true
		}
		delete(mapping, n)
		used[cand] = false
	}
	return false
}

func applyMapping(t rdf.Term, m map[rdf.Term]rdf.Term) rdf.Term {
	if t.IsBlank() {
		if mapped, ok := m[t]; ok {
			return mapped
		}
	}
	return t
}

func splitGround(g *Graph) (ground, withBlank []rdf.Triple) {
	g.ForEach(Wildcard, Wildcard, Wildcard, func(t rdf.Triple) bool {
		if t.S.IsBlank() || t.O.IsBlank() {
			withBlank = append(withBlank, t)
		} else {
			ground = append(ground, t)
		}
		return true
	})
	return ground, withBlank
}

func collectBlanks(ts []rdf.Triple) []rdf.Term {
	set := make(map[rdf.Term]struct{})
	for _, t := range ts {
		if t.S.IsBlank() {
			set[t.S] = struct{}{}
		}
		if t.O.IsBlank() {
			set[t.O] = struct{}{}
		}
	}
	out := make([]rdf.Term, 0, len(set))
	//feo:unordered // sorted below
	for n := range set {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return rdf.Compare(out[i], out[j]) < 0 })
	return out
}

// refine computes a stable signature for each blank node by iteratively
// hashing its incident triples, replacing blank neighbors with their
// previous-round signatures.
func refine(ts []rdf.Triple, blanks []rdf.Term) map[rdf.Term]string {
	sig := make(map[rdf.Term]string, len(blanks))
	for _, n := range blanks {
		sig[n] = "b"
	}
	termSig := func(t rdf.Term) string {
		if t.IsBlank() {
			return "{" + sig[t] + "}"
		}
		return t.String()
	}
	for round := 0; round < len(blanks)+1; round++ {
		next := make(map[rdf.Term]string, len(blanks))
		for _, n := range blanks {
			var parts []string
			for _, t := range ts {
				if t.S == n {
					parts = append(parts, "out|"+t.P.String()+"|"+termSig(t.O))
				}
				if t.O == n {
					parts = append(parts, "in|"+t.P.String()+"|"+termSig(t.S))
				}
			}
			sort.Strings(parts)
			next[n] = fmt.Sprintf("%x", fnv64(parts))
		}
		changed := false
		//feo:unordered // convergence check only
		for n := range sig {
			if sig[n] != next[n] {
				changed = true
				break
			}
		}
		sig = next
		if !changed {
			break
		}
	}
	return sig
}

func fnv64(parts []string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, p := range parts {
		for i := 0; i < len(p); i++ {
			h ^= uint64(p[i])
			h *= prime
		}
		h ^= 0xff
		h *= prime
	}
	return h
}

// Stats summarizes the shape of a graph; used by the CLI and benchmarks.
type Stats struct {
	Triples    int
	Subjects   int
	Predicates int
	Objects    int
	Classes    int // distinct objects of rdf:type
	Instances  int // distinct subjects of rdf:type
	Blanks     int // distinct blank nodes in any position
}

// Statistics computes summary statistics for the graph in one pass.
// Statistics only counts set cardinalities, so enumeration order is
// immaterial.
//
//feo:frozen-safe
func (g *Graph) Statistics() Stats {
	st := Stats{Triples: g.n, Subjects: g.spo.nonZero(), Predicates: g.pos.nonZero(), Objects: g.objN.nonZero()}
	classes := make(map[rdf.Term]struct{})
	instances := make(map[rdf.Term]struct{})
	blanks := make(map[rdf.Term]struct{})
	g.ForEach(Wildcard, Wildcard, Wildcard, func(t rdf.Triple) bool {
		if t.P == rdf.TypeIRI {
			classes[t.O] = struct{}{}
			instances[t.S] = struct{}{}
		}
		if t.S.IsBlank() {
			blanks[t.S] = struct{}{}
		}
		if t.O.IsBlank() {
			blanks[t.O] = struct{}{}
		}
		return true
	})
	st.Classes = len(classes)
	st.Instances = len(instances)
	st.Blanks = len(blanks)
	return st
}
