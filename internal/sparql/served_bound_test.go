package sparql_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/foodkg"
	"repro/internal/healthcoach"
	"repro/internal/ontology"
	"repro/internal/paper"
	"repro/internal/rdf"
	"repro/internal/reasoner"
	"repro/internal/sparql"
	"repro/internal/store"
)

// TestServedShapesPlanFromStaticBoundSets: every BGP of the queries the
// system serves — the Table I generators, the paper's Listings 1-3 and the
// repository benchmark's query shapes — is planned from a static
// bound-slot set equal to the slots bound in every row that reaches it,
// so its plan is the one a planner reading those rows would build.
func TestServedShapesPlanFromStaticBoundSets(t *testing.T) {
	check := func(label string, g *store.Graph, src string) {
		t.Helper()
		bad, err := sparql.StaticBoundMismatches(g, src)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for _, m := range bad {
			t.Errorf("%s: %s", label, m)
		}
	}

	for n, cq := range []ontology.CompetencyQuestion{ontology.CQ1, ontology.CQ2, ontology.CQ3} {
		src, _ := map[int]string{0: paper.Listing1Query, 1: paper.Listing2Query, 2: paper.Listing3Query}[n]
		g, _ := ontology.Dataset(cq)
		check(fmt.Sprintf("listing %d", n+1), g, src)
	}

	// The Table I generators, on paper.Table1's dataset and questions.
	g, r := ontology.Dataset(ontology.CQAll)
	g.Add(ontology.Sushi, ontology.FoodCalories, rdf.NewInt(450))
	engine := core.NewEngine(g, r)
	engine.SetCoach(healthcoach.New(g, healthcoach.DefaultWeights()))
	vegan := rdf.NewIRI(rdf.KGNS + "diet/Vegan")
	g.Add(vegan, rdf.TypeIRI, ontology.FoodDiet)
	questions := []core.Question{
		{Type: core.CaseBased, Primary: ontology.BroccoliCheddarSoup, User: ontology.User1},
		{Type: core.Contextual, Primary: ontology.CauliflowerPotatoCurry},
		{Type: core.Contrastive, Primary: ontology.ButternutSquashSoup, Secondary: ontology.BroccoliCheddarSoup},
		{Type: core.Counterfactual, Primary: ontology.Pregnancy},
		{Type: core.Everyday, Primary: ontology.Spinach},
		{Type: core.Everyday},
		{Type: core.Scientific, Primary: ontology.Spinach},
		{Type: core.SimulationBased, Primary: ontology.Sushi},
		{Type: core.Statistical, Primary: vegan, User: ontology.User2},
		{Type: core.Statistical, Primary: vegan},
	}
	for _, q := range questions {
		q.Text = "bound check " + q.Type.String()
		ex, err := engine.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		// The statistical generator reports its two queries as one text.
		for i, src := range strings.Split("\n"+ex.Query, "\nSELECT")[1:] {
			check(fmt.Sprintf("%s query %d", q.Type, i), engine.Graph(), "SELECT"+src)
		}
	}
	// coach_dialogue's follow-ups, on the questions just asked.
	for _, text := range []string{"bound check contextual", "bound check contrastive"} {
		check("follow-up 1", g, fmt.Sprintf("SELECT ?q ?e ?summary WHERE { ?q rdfs:comment %q . ?q a feo:FoodQuestion . "+
			"?e eo:addresses ?q . ?e rdfs:comment ?summary }", text))
		check("follow-up 2", g, fmt.Sprintf("SELECT ?q ?p ?c WHERE { ?q rdfs:comment %q . "+
			"{ ?q feo:hasParameter ?p } UNION { ?q feo:hasPrimaryParameter ?p } UNION { ?q feo:hasSecondaryParameter ?p } . "+
			"OPTIONAL { ?p feo:hasCharacteristic ?c } }", text))
	}
	check("churn listing", g, "SELECT ?q ?p WHERE { ?q a feo:FoodQuestion . ?q feo:hasParameter ?p } LIMIT 50")

	// The benchmark's kbqa_lookup templates and bulk_export texts
	// (bench/workload), on a synthetic FoodKG.
	cfg := foodkg.DefaultConfig()
	cfg.Recipes, cfg.Ingredients, cfg.Users = 200, 100, 20
	kg := foodkg.Generate(cfg)
	kgg := ontology.TBox()
	kgg.Merge(kg.Graph)
	reasoner.New(reasoner.Options{}).Materialize(kgg)
	recipe, user, ing, diet := kg.Recipes[0].Value, kg.Users[0].Value, kg.Ingredients[0].Value, kg.Diets[0].Value
	for _, src := range []string{
		fmt.Sprintf("SELECT ?i ?n WHERE { <%s> feo:hasIngredient ?i . ?i feo:hasNutrient ?n }", recipe),
		fmt.Sprintf("SELECT ?r WHERE { <%s> feo:like ?r }", user),
		fmt.Sprintf("ASK { <%s> feo:allergicTo ?i . <%s> feo:hasIngredient ?i }", user, recipe),
		fmt.Sprintf("SELECT ?r WHERE { ?r feo:hasIngredient <%s> . ?r feo:compatibleWithDiet <%s> } ORDER BY ?r LIMIT 20", ing, diet),
		fmt.Sprintf("SELECT ?r ?c WHERE { <%s> feo:like ?r . ?r food:calories ?c . FILTER(?c >= 150 && ?c <= 450) }", user),
		fmt.Sprintf("SELECT ?i WHERE { <%s> feo:hasIngredient ?i }", recipe),
		"SELECT ?r ?i WHERE { ?r feo:hasIngredient ?i }",
		"SELECT ?r ?l ?c WHERE { ?r a food:Recipe . ?r rdfs:label ?l . ?r food:calories ?c }",
		"SELECT ?r ?i ?n WHERE { ?r feo:hasIngredient ?i . ?i feo:hasNutrient ?n }",
		"SELECT ?r ?c ?p WHERE { ?r food:calories ?c . ?r food:proteinGrams ?p . FILTER(?c > 300) }",
		"SELECT ?r ?i ?s WHERE { ?r feo:hasIngredient ?i . ?i feo:availableIn ?s }",
		"SELECT ?i ?r WHERE { ?i feo:isIngredientOf ?r }",
		"SELECT ?s ?c WHERE { ?s a ?c . ?c rdfs:subClassOf food:Food }",
		"SELECT ?r ?d ?l WHERE { ?r feo:compatibleWithDiet ?d . ?r rdfs:label ?l }",
		"CONSTRUCT { ?r feo:hasIngredient ?i } WHERE { ?r feo:hasIngredient ?i }",
	} {
		check("workload", kgg, src)
	}
}
