package store

import (
	"fmt"
	"testing"

	"repro/internal/rdf"
)

// The bitset benchmarks are part of the gated trajectory (see
// scripts/bench_compare.sh): And/Or/iteration over dense and sparse
// container mixes, plus pattern matching against a dense predicate level —
// the rdf:type-shaped workload the roaring layout exists for.

// benchSets builds two overlapping sets: a dense one (every ID in [0, n))
// and a sparse one (every third ID, offset so containers overlap).
func benchSets(n int) (*IDSet, *IDSet) {
	a, b := NewIDSet(), NewIDSet()
	for i := 0; i < n; i++ {
		a.Add(ID(i))
		if i%3 == 0 {
			b.Add(ID(i + n/2))
		}
	}
	return a, b
}

func BenchmarkBitsetAnd(b *testing.B) {
	x, y := benchSets(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if x.And(y).Len() == 0 {
			b.Fatal("empty intersection")
		}
	}
}

func BenchmarkBitsetOr(b *testing.B) {
	x, y := benchSets(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if x.Or(y).Len() == 0 {
			b.Fatal("empty union")
		}
	}
}

func BenchmarkBitsetAndNot(b *testing.B) {
	x, y := benchSets(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if x.AndNot(y).Len() == 0 {
			b.Fatal("empty difference")
		}
	}
}

func BenchmarkBitsetIterate(b *testing.B) {
	x, _ := benchSets(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		x.ForEach(func(ID) bool {
			n++
			return true
		})
		if n != x.Len() {
			b.Fatalf("iterated %d of %d", n, x.Len())
		}
	}
}

func BenchmarkBitsetContains(b *testing.B) {
	x, _ := benchSets(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !x.Contains(ID(i % 100_000)) {
			b.Fatal("missing member")
		}
	}
}

// denseGraph types every subject with one shared class (the dense POS
// level) and a second class for every third subject.
func denseGraph(n int) (*Graph, ID, ID, ID) {
	g := New()
	classA := rdf.NewIRI("http://bench/ClassA")
	classB := rdf.NewIRI("http://bench/ClassB")
	for i := 0; i < n; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://bench/s%d", i))
		g.Add(s, rdf.TypeIRI, classA)
		if i%3 == 0 {
			g.Add(s, rdf.TypeIRI, classB)
		}
	}
	p, _ := g.LookupID(rdf.TypeIRI)
	a, _ := g.LookupID(classA)
	bID, _ := g.LookupID(classB)
	return g, p, a, bID
}

// BenchmarkStoreMatchDensePredicate iterates the full (?, rdf:type, ClassA)
// POS level — the hottest single pattern shape of the paper's workload.
func BenchmarkStoreMatchDensePredicate(b *testing.B) {
	g, p, a, _ := denseGraph(50_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		g.ForEachID(NoID, p, a, func(_, _, _ ID) bool {
			n++
			return true
		})
		if n != 50_000 {
			b.Fatalf("matched %d", n)
		}
	}
}

// BenchmarkStoreMatchDenseIntersect intersects the two dense class levels
// through MatchSetID — the word-level join the SPARQL ID pipeline fuses
// `?x a :A . ?x a :B` runs into.
func BenchmarkStoreMatchDenseIntersect(b *testing.B) {
	g, p, a, cb := denseGraph(50_000)
	want := g.MatchSetID(NoID, p, a).And(g.MatchSetID(NoID, p, cb)).Len()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got := g.MatchSetID(NoID, p, a).And(g.MatchSetID(NoID, p, cb))
		if got.Len() != want {
			b.Fatalf("intersection %d, want %d", got.Len(), want)
		}
	}
}

// predicateGraph holds 20 000 triples over 999 subjects, preds predicates
// and 1 000 objects: triple i is (s[i%999], p[i%preds], o[i%1000]). It
// returns the graph and the triples' IDs, so every probe matches.
func predicateGraph(preds int) (*Graph, []IDTriple) {
	g := New()
	ts := make([]IDTriple, 0, 20_000)
	for i := 0; i < 20_000; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://bench/s%d", i%999))
		p := rdf.NewIRI(fmt.Sprintf("http://bench/p%d", i%preds))
		o := rdf.NewIRI(fmt.Sprintf("http://bench/o%d", i%1000))
		g.Add(s, p, o)
		sID, _ := g.LookupID(s)
		pID, _ := g.LookupID(p)
		oID, _ := g.LookupID(o)
		ts = append(ts, IDTriple{sID, pID, oID})
	}
	return g, ts
}

// BenchmarkObjectPattern times the two object-bound shapes without a
// bound predicate, (?, ?, o) and (s, ?, o), on a fixed-size graph whose
// predicate count grows from 10 to 10 000. Each op probes the next
// triple's object (or subject and object) and visits every match.
func BenchmarkObjectPattern(b *testing.B) {
	for _, preds := range []int{10, 100, 1_000, 10_000} {
		g, ts := predicateGraph(preds)
		for _, shape := range []string{"??o", "s?o"} {
			b.Run(fmt.Sprintf("%s/preds=%d", shape, preds), func(b *testing.B) {
				b.ReportAllocs()
				n := 0
				for i := 0; i < b.N; i++ {
					t := ts[i%len(ts)]
					if shape == "??o" {
						t.S = NoID
					}
					g.ForEachID(t.S, NoID, t.O, func(_, _, _ ID) bool {
						n++
						return true
					})
				}
				if n < b.N {
					b.Fatalf("%d matches in %d probes", n, b.N)
				}
			})
		}
	}
}
