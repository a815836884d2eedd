package repro

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/foodkg"
	"repro/internal/ontology"
	"repro/internal/paper"
	"repro/internal/reasoner"
	"repro/internal/sparql"
	"repro/internal/store"
)

// The engine's parallelism is across requests (see doc.go, Concurrency).
// These suites run the paper's queries and artifacts the way a server
// does — several callers at once over one graph — and require each caller
// to get exactly what a lone caller gets.

const parallelCallers = 4

// inParallel calls f from parallelCallers goroutines at once and returns
// their results in caller order.
func inParallel[T any](f func() T) []T {
	out := make([]T, parallelCallers)
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = f()
		}(i)
	}
	wg.Wait()
	return out
}

// assertParallelRuns evaluates query alone, then from parallelCallers
// goroutines at once, requires the identical solution multiset from every
// caller, and returns the lone run's row count.
func assertParallelRuns(t *testing.T, g *store.Graph, query string) int {
	t.Helper()
	run := func() []string {
		res, err := sparql.Run(g, query)
		if err != nil {
			t.Error(err)
			return nil
		}
		return canonRows(res)
	}
	want := run()
	for i, got := range inParallel(run) {
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("caller %d: solutions differ\nbeside others:\n%s\nalone:\n%s",
				i, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
	return len(want)
}

// TestParallelEquivalenceListings evaluates every paper listing on every
// competency dataset.
func TestParallelEquivalenceListings(t *testing.T) {
	cases := []struct {
		name  string
		cq    ontology.CompetencyQuestion
		query string
	}{
		{"listing1/cq1", ontology.CQ1, paper.Listing1Query},
		{"listing2/cq2", ontology.CQ2, paper.Listing2Query},
		{"listing3/cq3", ontology.CQ3, paper.Listing3Query},
		{"listing1/cqall", ontology.CQAll, paper.Listing1Query},
		{"listing2/cqall", ontology.CQAll, paper.Listing2Query},
		{"listing3/cqall", ontology.CQAll, paper.Listing3Query},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, _ := ontology.Dataset(tc.cq)
			assertParallelRuns(t, g, tc.query)
		})
	}
}

// TestParallelEquivalenceOperators runs the A4 operator suite over the
// synthetic FoodKG, whose row sets run to thousands of rows.
func TestParallelEquivalenceOperators(t *testing.T) {
	kg := foodkg.Generate(foodkg.DefaultConfig())
	g := ontology.TBox()
	g.Merge(kg.Graph)
	reasoner.New(reasoner.Options{}).Materialize(g)
	queries := []struct{ name, query string }{
		{"bgp-join", `SELECT ?r ?i WHERE { ?r a food:Recipe . ?r feo:hasIngredient ?i }`},
		{"filter", `SELECT ?r WHERE { ?r food:calories ?c . FILTER(?c > 400) }`},
		{"not-exists", `SELECT ?r WHERE { ?r a food:Recipe . FILTER NOT EXISTS { ?r feo:compatibleWithDiet ?d } }`},
		{"optional", `SELECT ?r ?d WHERE { ?r a food:Recipe . OPTIONAL { ?r feo:compatibleWithDiet ?d } }`},
		{"union", `SELECT ?x WHERE { { ?x a food:Recipe } UNION { ?x a food:Ingredient } }`},
		{"path-plus", `SELECT ?c WHERE { ?r a food:Recipe . ?r (feo:hasIngredient|feo:availableIn)+ ?c }`},
		{"aggregate", `SELECT ?i (COUNT(?r) AS ?n) WHERE { ?r feo:hasIngredient ?i } GROUP BY ?i`},
	}
	for _, tc := range queries {
		t.Run(tc.name, func(t *testing.T) {
			if rows := assertParallelRuns(t, g, tc.query); rows == 0 {
				t.Fatalf("corpus query %s returned no rows; equivalence check is vacuous", tc.name)
			}
		})
	}
}

// TestParallelArtifactsByteIdentical renders every paper artifact —
// listings, Table I, Figures 1-4 — alone and then from several goroutines
// at once, and requires byte-identical output every time. (The listing
// renderer sorts its rows, so this is a real guarantee, not map-order
// luck.)
func TestParallelArtifactsByteIdentical(t *testing.T) {
	artifacts := []struct {
		name   string
		render func() string
	}{
		{"listing1", func() string { out, _ := paper.Listing(1); return out }},
		{"listing2", func() string { out, _ := paper.Listing(2); return out }},
		{"listing3", func() string { out, _ := paper.Listing(3); return out }},
		{"table1", func() string { out, _ := paper.Table1(); return out }},
		{"figure1", paper.Figure1},
		{"figure2", paper.Figure2},
		{"figure3", paper.Figure3},
		{"figure4", paper.Figure4},
	}
	for _, a := range artifacts {
		t.Run(a.name, func(t *testing.T) {
			want := a.render()
			if want == "" {
				t.Fatalf("%s rendered empty", a.name)
			}
			for i, got := range inParallel(a.render) {
				if got != want {
					t.Errorf("%s: render %d differs from the lone render", a.name, i)
				}
			}
		})
	}
}
