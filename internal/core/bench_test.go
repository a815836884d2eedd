package core

import (
	"testing"

	"repro/internal/foodkg"
	"repro/internal/healthcoach"
	"repro/internal/ontology"
)

// BenchmarkTraceBasedExplain explains one coach recommendation per
// iteration on the kg-mid dataset shape (2000 recipes, 200 ingredients,
// 100 users), rotating over users and recipes.
func BenchmarkTraceBasedExplain(b *testing.B) {
	cfg := foodkg.DefaultConfig()
	cfg.Recipes, cfg.Ingredients, cfg.Users = 2000, 200, 100
	kg := foodkg.Generate(cfg)
	g := ontology.TBox()
	g.Merge(kg.Graph)
	e := NewEngine(g, nil)
	e.SetCoach(healthcoach.New(g, healthcoach.DefaultWeights()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := Question{
			Type:    TraceBased,
			Primary: kg.Recipes[(i*7)%len(kg.Recipes)],
			User:    kg.Users[i%len(kg.Users)],
		}
		if _, err := e.Explain(q); err != nil {
			b.Fatal(err)
		}
	}
}
