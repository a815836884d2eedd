package healthcoach

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/foodkg"
	"repro/internal/ontology"
	"repro/internal/rdf"
	"repro/internal/reasoner"
	"repro/internal/store"
)

// BuildDifferentialWorld is buildWorld for the external test package.
var BuildDifferentialWorld = buildWorld

// buildWorld generates a seeded FoodKG graph over the TBox, unmaterialized.
// With edgeCases it also adds what the generator never produces:
// condition forbids/recommends edges, users with several allergens
// (one of them a recipe), conditions and diets, a user who both likes and
// dislikes a recipe, recipes sharing a label (the term tie-break), an
// unlabeled recipe (the label fallback) and one without a cost level.
func buildWorld(seed int64, recipes, ingredients, users int, edgeCases bool) *store.Graph {
	cfg := foodkg.DefaultConfig()
	cfg.Seed, cfg.Recipes, cfg.Ingredients, cfg.Users = seed, recipes, ingredients, users
	kg := foodkg.Generate(cfg)
	g := ontology.TBox()
	g.Merge(kg.Graph)
	if !edgeCases {
		return g
	}
	rng := rand.New(rand.NewSource(seed))
	pick := func(ts []rdf.Term) rdf.Term { return ts[rng.Intn(len(ts))] }
	for _, cond := range kg.Conditions {
		for i := 0; i < 3; i++ {
			g.Add(cond, ontology.FEORecommends, pick(kg.Ingredients))
		}
		g.Add(cond, ontology.FEOForbids, pick(kg.Ingredients))
		g.Add(cond, ontology.FEOForbids, pick(kg.Recipes))
	}
	for i := 0; i < 6; i++ {
		u := rdf.NewIRI(rdf.KGNS + fmt.Sprintf("user/edge%d", i))
		g.Add(u, rdf.TypeIRI, ontology.FoodUser)
		for j := 0; j < 4; j++ {
			g.Add(u, ontology.FEOLike, pick(kg.Recipes))
		}
		both := pick(kg.Recipes)
		g.Add(u, ontology.FEOLike, both)
		g.Add(u, ontology.FEODislike, both)
		if i%2 == 0 {
			for j := 0; j < 3; j++ {
				g.Add(u, ontology.FEOAllergicTo, pick(kg.Ingredients))
			}
			g.Add(u, ontology.FEOAllergicTo, pick(kg.Recipes))
		}
		for j := 0; j < 1+i%3; j++ {
			g.Add(u, ontology.FEOHasCondition, pick(kg.Conditions))
		}
		for j := 0; j < 3; j++ {
			g.Add(u, ontology.FEOHasDiet, pick(kg.Diets))
		}
	}
	dup := rdf.NewLiteral("Duplicate Dish")
	for i := 0; i < 4; i++ {
		r := rdf.NewIRI(rdf.KGNS + fmt.Sprintf("recipe/dup%d", 3-i))
		g.Add(r, rdf.TypeIRI, ontology.FoodRecipe)
		g.Add(r, rdf.LabelIRI, dup)
		g.Add(r, ontology.FEOHasIngredient, pick(kg.Ingredients))
		g.Add(r, ontology.FEOCompatibleWithDiet, pick(kg.Diets))
	}
	bare := rdf.NewIRI(rdf.KGNS + "recipe/UnlabeledHarvestBowl")
	g.Add(bare, rdf.TypeIRI, ontology.FoodRecipe)
	g.Add(bare, ontology.FEOHasIngredient, pick(kg.Ingredients))
	g.Add(bare, ontology.FEOHasIngredient, pick(kg.Ingredients))
	g.Add(bare, ontology.FoodCostLevel, rdf.NewInt(3))
	return g
}

type world struct {
	name string
	g    *store.Graph
	w    Weights
}

var (
	worldsOnce sync.Once
	worlds     []world
)

// differentialWorlds builds the graphs once per test binary; the tests
// only read them.
func differentialWorlds(t *testing.T) []world {
	t.Helper()
	worldsOnce.Do(func() {
		materialize := func(g *store.Graph) *store.Graph {
			reasoner.New(reasoner.Options{}).Materialize(g)
			return g
		}
		cq, _ := ontology.Dataset(ontology.CQAll)
		edge := materialize(buildWorld(7, 200, 120, 20, true))
		worlds = []world{
			{"small-world", smallWorld(t), DefaultWeights()},
			{"cq-all", cq, DefaultWeights()},
			{"gen-40", materialize(buildWorld(1, 40, 30, 8, false)), DefaultWeights()},
			{"gen-200", materialize(buildWorld(2, 200, 120, 25, false)), DefaultWeights()},
			{"gen-500", materialize(buildWorld(3, 500, 150, 20, false)), DefaultWeights()},
			{"edge-cases", edge, DefaultWeights()},
			{"edge-cases/diet-only", edge, Weights{DietMatch: 2.5}},
		}
	})
	return worlds
}

// probeUsers is every food:User plus an IRI that is none.
func probeUsers(g *store.Graph) []rdf.Term {
	return append(g.InstancesOf(ontology.FoodUser), rdf.NewIRI(rdf.KGNS+"user/nobody"))
}

func limitsFor(g *store.Graph) []int {
	n := len(g.InstancesOf(ontology.FoodRecipe))
	return []int{1, 5, n - 1, 0}
}

// truncate is the reference's own limit rule (rank all, then cut), so
// one reference ranking per user or group serves every limit.
func truncate(recs []Recommendation, limit int) []Recommendation {
	if limit > 0 && limit < len(recs) {
		return recs[:limit]
	}
	return recs
}

func diffRecs(t *testing.T, what string, got, want []Recommendation) {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d recommendations, reference has %d", what, len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: first difference at %d:\n got  %+v\n want %+v", what, i, got[i], want[i])
		}
	}
	t.Fatalf("%s: results differ (nil vs empty slice?)", what)
}

func TestDifferentialRecommend(t *testing.T) {
	for _, wd := range differentialWorlds(t) {
		t.Run(wd.name, func(t *testing.T) {
			c := New(wd.g, wd.w)
			for _, u := range probeUsers(wd.g) {
				want := c.referenceRecommend(u, 0)
				for _, limit := range limitsFor(wd.g) {
					diffRecs(t, fmt.Sprintf("Recommend(%s, %d)", u.Value, limit),
						c.Recommend(u, limit), truncate(want, limit))
				}
			}
		})
	}
}

func TestDifferentialRecommendGroup(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, wd := range differentialWorlds(t) {
		t.Run(wd.name, func(t *testing.T) {
			c := New(wd.g, wd.w)
			users := probeUsers(wd.g)
			for i := 0; i < 15; i++ {
				group := make([]rdf.Term, 1+rng.Intn(4))
				for j := range group {
					group[j] = users[rng.Intn(len(users))]
				}
				want := c.referenceRecommendGroup(group, 0)
				for _, limit := range limitsFor(wd.g) {
					diffRecs(t, fmt.Sprintf("RecommendGroup(%v, %d)", group, limit),
						c.RecommendGroup(group, limit), truncate(want, limit))
				}
			}
			if c.RecommendGroup(nil, 0) != nil {
				t.Error("empty group should return nil")
			}
		})
	}
}

// TestDifferentialExplain checks Coach.Explain against the reference
// ranking: the rendered recommendation equals the reference entry and the
// rank is its 1-based position (0 for an excluded recipe). Each call
// scores every survivor, so past the top 25 it samples every 7th recipe.
func TestDifferentialExplain(t *testing.T) {
	for _, wd := range differentialWorlds(t) {
		t.Run(wd.name, func(t *testing.T) {
			c := New(wd.g, wd.w)
			users := probeUsers(wd.g)
			if len(users) > 6 {
				users = append(users[:3], users[len(users)-3:]...)
			}
			for _, u := range users {
				for i, want := range c.referenceRecommend(u, 0) {
					if i >= 25 && i%7 != 0 {
						continue
					}
					got, rank, ok := c.Explain(u, want.Recipe)
					wantRank := i + 1
					if want.Excluded {
						wantRank = 0
					}
					if !ok || rank != wantRank {
						t.Fatalf("Explain(%s, %s): rank %d ok %v, want rank %d", u.Value, want.Recipe.Value, rank, ok, wantRank)
					}
					diffRecs(t, fmt.Sprintf("Explain(%s, %s)", u.Value, want.Recipe.Value),
						[]Recommendation{got}, []Recommendation{want})
				}
				if _, _, ok := c.Explain(u, ontology.FoodRecipe); ok {
					t.Fatal("Explain accepted a term that is not a recipe")
				}
				if _, _, ok := c.Explain(u, rdf.NewIRI(rdf.KGNS+"recipe/none")); ok {
					t.Fatal("Explain accepted an unknown recipe")
				}
			}
		})
	}
}
