package healthcoach

import (
	"sync"
	"testing"

	"repro/internal/foodkg"
	"repro/internal/ontology"
	"repro/internal/rdf"
	"repro/internal/reasoner"
	"repro/internal/store"
)

var (
	kgMidOnce  sync.Once
	kgMidGraph *store.Graph
	kgMidUsers []rdf.Term
)

// kgMid is the benchmark's kg-mid dataset shape (2000 recipes, 200
// ingredients, 100 users, generator seed 1) over the TBox, materialized.
// Built once per test binary and only read afterwards.
func kgMid(tb testing.TB) (*store.Graph, []rdf.Term) {
	tb.Helper()
	kgMidOnce.Do(func() {
		cfg := foodkg.DefaultConfig()
		cfg.Recipes, cfg.Ingredients, cfg.Users = 2000, 200, 100
		kg := foodkg.Generate(cfg)
		g := ontology.TBox()
		g.Merge(kg.Graph)
		reasoner.New(reasoner.Options{}).Materialize(g)
		kgMidGraph, kgMidUsers = g, kg.Users
	})
	return kgMidGraph, kgMidUsers
}

func BenchmarkRecommend(b *testing.B) {
	g, users := kgMid(b)
	c := New(g, DefaultWeights())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Recommend(users[i%len(users)], 5)
	}
}

// TestRecommendAllocationBound pins the pipeline's allocation profile: a
// top-5 ranking over kg-mid resolves one profile, two set differences and
// five rendered traces, not a label and a trace per recipe (the
// per-recipe scorer it replaced allocated ≈ 80 000 times per call).
func TestRecommendAllocationBound(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 2000-recipe graph")
	}
	g, users := kgMid(t)
	c := New(g, DefaultWeights())
	allocs := testing.AllocsPerRun(10, func() { c.Recommend(users[3], 5) })
	if allocs > 2000 {
		t.Fatalf("Recommend(user, 5) on kg-mid allocates %.0f times, want ≤ 2000", allocs)
	}
}
