package core

import (
	"strings"
	"testing"

	"repro/internal/healthcoach"
	"repro/internal/ontology"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
)

func engineFor(t *testing.T, cq ontology.CompetencyQuestion) *Engine {
	t.Helper()
	g, r := ontology.Dataset(cq)
	return NewEngine(g, r)
}

func TestContextualCQ1(t *testing.T) {
	e := engineFor(t, ontology.CQ1)
	ex, err := e.Explain(Question{
		IRI:     ontology.QWhyEatCauliflowerPotatoCurry,
		Type:    Contextual,
		Primary: ontology.CauliflowerPotatoCurry,
		Text:    "Why should I eat Cauliflower Potato Curry?",
	})
	if err != nil {
		t.Fatal(err)
	}
	// The paper's possible answer mentions the season.
	if !strings.Contains(ex.Summary, "Autumn is the current season") {
		t.Errorf("summary = %q, want season mention", ex.Summary)
	}
	if len(ex.Evidence) == 0 {
		t.Fatal("no evidence")
	}
	// Provenance triples must exist in the graph.
	for _, ev := range ex.Evidence {
		for _, tr := range ev.Triples {
			if !e.Graph().Has(tr.S, tr.P, tr.O) {
				t.Errorf("evidence triple %v not in graph", tr)
			}
		}
	}
}

func TestContrastiveCQ2(t *testing.T) {
	e := engineFor(t, ontology.CQ2)
	ex, err := e.Explain(Question{
		IRI:       ontology.QWhyEatButternutOverBroccoli,
		Type:      Contrastive,
		Primary:   ontology.ButternutSquashSoup,
		Secondary: ontology.BroccoliCheddarSoup,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The paper's possible answer: in season + allergy.
	if !strings.Contains(ex.Summary, "Butternut Squash Soup is better than Broccoli Cheddar Soup") {
		t.Errorf("summary framing wrong: %q", ex.Summary)
	}
	if !strings.Contains(ex.Summary, "current season") {
		t.Errorf("summary should mention the season fact: %q", ex.Summary)
	}
	if !strings.Contains(ex.Summary, "allergic to Broccoli") {
		t.Errorf("summary should mention the allergy foil: %q", ex.Summary)
	}
}

func TestContrastiveNeedsSecondary(t *testing.T) {
	e := engineFor(t, ontology.CQ2)
	_, err := e.Explain(Question{Type: Contrastive, Primary: ontology.ButternutSquashSoup})
	if err == nil {
		t.Error("contrastive without secondary should fail")
	}
}

func TestCounterfactualCQ3(t *testing.T) {
	e := engineFor(t, ontology.CQ3)
	ex, err := e.Explain(Question{
		IRI:     ontology.QWhatIfIWasPregnant,
		Type:    Counterfactual,
		Primary: ontology.Pregnancy,
		Text:    "What if I was pregnant?",
	})
	if err != nil {
		t.Fatal(err)
	}
	// The paper's possible answer: forbidden sushi, suggested spinach
	// frittata.
	if !strings.Contains(ex.Summary, "forbidden from eating Sushi") {
		t.Errorf("summary should forbid sushi: %q", ex.Summary)
	}
	if !strings.Contains(ex.Summary, "Spinach") || !strings.Contains(ex.Summary, "Spinach Frittata") {
		t.Errorf("summary should suggest spinach (frittata): %q", ex.Summary)
	}
}

func TestAdHocQuestionAssertion(t *testing.T) {
	// Asking about a parameter with no pre-asserted question must mint a
	// question individual, re-reason, and still find the context.
	e := engineFor(t, ontology.CQ1)
	ex, err := e.Explain(Question{
		Type:    Contextual,
		Primary: ontology.CauliflowerPotatoCurry,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex.Summary, "Autumn") {
		t.Errorf("ad-hoc contextual lost the season: %q", ex.Summary)
	}
	if !ex.Question.IRI.IsValid() {
		t.Error("question IRI should have been minted")
	}
	if !e.Graph().IsA(ex.Question.IRI, ontology.FEOFoodQuestion) {
		t.Error("minted question not asserted into graph")
	}
}

func TestCaseBased(t *testing.T) {
	e := engineFor(t, ontology.CQ2)
	// User2 likes BroccoliCheddarSoup; ask from another user's view.
	ex, err := e.Explain(Question{
		Type:    CaseBased,
		Primary: ontology.BroccoliCheddarSoup,
		User:    ontology.User1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex.Summary, "1 other user") {
		t.Errorf("case-based summary = %q", ex.Summary)
	}
	// Asking as the liker excludes self.
	ex2, err := e.Explain(Question{
		Type:    CaseBased,
		Primary: ontology.BroccoliCheddarSoup,
		User:    ontology.User2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex2.Summary, "No other user") {
		t.Errorf("self-excluding case-based = %q", ex2.Summary)
	}
}

func TestEverydayForIngredient(t *testing.T) {
	e := engineFor(t, ontology.CQ3)
	ex, err := e.Explain(Question{Type: Everyday, Primary: ontology.Spinach})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex.Summary, "Egg") {
		t.Errorf("spinach should pair with egg (via frittata): %q", ex.Summary)
	}
}

func TestEverydayForRecipe(t *testing.T) {
	e := engineFor(t, ontology.CQ3)
	ex, err := e.Explain(Question{Type: Everyday, Primary: ontology.Sushi})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex.Summary, "Rice") {
		t.Errorf("sushi pairings should list rice: %q", ex.Summary)
	}
}

func TestEverydayGlobal(t *testing.T) {
	e := engineFor(t, ontology.CQ3)
	ex, err := e.Explain(Question{Type: Everyday})
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Evidence) == 0 {
		t.Errorf("global everyday should find co-occurrences: %q", ex.Summary)
	}
}

func TestScientific(t *testing.T) {
	e := engineFor(t, ontology.CQ3)
	ex, err := e.Explain(Question{Type: Scientific, Primary: ontology.SpinachFrittata})
	if err != nil {
		t.Fatal(err)
	}
	// The frittata's spinach/folate chain should surface the CDC guidance.
	if !strings.Contains(ex.Summary, "CDC folic acid guidance") {
		t.Errorf("scientific summary = %q", ex.Summary)
	}
	// Direct evidence on the food itself also works.
	ex2, err := e.Explain(Question{Type: Scientific, Primary: ontology.Spinach})
	if err != nil {
		t.Fatal(err)
	}
	if len(ex2.Evidence) == 0 {
		t.Error("spinach should have direct evidence")
	}
}

func TestScientificNoEvidence(t *testing.T) {
	e := engineFor(t, ontology.CQ1)
	ex, err := e.Explain(Question{Type: Scientific, Primary: ontology.Potato})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex.Summary, "No literature") {
		t.Errorf("expected empty-evidence summary, got %q", ex.Summary)
	}
}

func TestSimulationBased(t *testing.T) {
	g, r := ontology.Dataset(ontology.CQ1)
	g.Add(ontology.CauliflowerPotatoCurry, ontology.FoodCalories, rdf.NewInt(500))
	g.Add(ontology.CauliflowerPotatoCurry, ontology.FoodProtein, rdf.NewInt(20))
	e := NewEngine(g, r)
	ex, err := e.Explain(Question{Type: SimulationBased, Primary: ontology.CauliflowerPotatoCurry})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex.Summary, "500 kcal") || !strings.Contains(ex.Summary, "25%") {
		t.Errorf("simulation summary = %q", ex.Summary)
	}
}

func TestSimulationNoData(t *testing.T) {
	e := engineFor(t, ontology.CQ1)
	ex, err := e.Explain(Question{Type: SimulationBased, Primary: ontology.Potato})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex.Summary, "cannot simulate") {
		t.Errorf("expected no-data summary: %q", ex.Summary)
	}
}

func TestStatistical(t *testing.T) {
	g, r := ontology.Dataset(ontology.CQ2)
	// Build a small cohort: three users share a liked food with User2; two
	// of them follow the vegan diet.
	vegan := rdf.NewIRI(rdf.KGNS + "diet/Vegan")
	g.Add(vegan, rdf.TypeIRI, ontology.FoodDiet)
	g.Add(vegan, rdf.LabelIRI, rdf.NewLiteral("Vegan"))
	for i, hasDiet := range []bool{true, true, false} {
		u := rdf.NewIRI(rdf.KGNS + "user/peer" + string(rune('a'+i)))
		g.Add(u, rdf.TypeIRI, ontology.FoodUser)
		g.Add(u, ontology.FEOLike, ontology.BroccoliCheddarSoup)
		if hasDiet {
			g.Add(u, ontology.FEOHasDiet, vegan)
		}
	}
	r.Materialize(g)
	e := NewEngine(g, r)
	ex, err := e.Explain(Question{Type: Statistical, Primary: vegan, User: ontology.User2})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex.Summary, "2 of 3") {
		t.Errorf("statistical summary = %q", ex.Summary)
	}
	// Without a user: global rates.
	ex2, err := e.Explain(Question{Type: Statistical, Primary: vegan})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex2.Summary, "follow the Vegan diet") {
		t.Errorf("global statistical summary = %q", ex2.Summary)
	}
}

func TestTraceBasedWithCoach(t *testing.T) {
	g, r := ontology.Dataset(ontology.CQ2)
	e := NewEngine(g, r)
	coach := healthcoach.New(g, healthcoach.DefaultWeights())
	e.SetCoach(coach)
	ex, err := e.Explain(Question{
		Type:    TraceBased,
		Primary: ontology.ButternutSquashSoup,
		User:    ontology.User2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex.Summary, "scoring steps") {
		t.Errorf("trace summary = %q", ex.Summary)
	}
	if len(ex.Evidence) == 0 {
		t.Error("trace should carry steps")
	}
}

func TestTraceBasedExcludedRecipe(t *testing.T) {
	g, r := ontology.Dataset(ontology.CQ2)
	e := NewEngine(g, r)
	e.SetCoach(healthcoach.New(g, healthcoach.DefaultWeights()))
	ex, err := e.Explain(Question{
		Type:    TraceBased,
		Primary: ontology.BroccoliCheddarSoup,
		User:    ontology.User2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex.Summary, "not recommended") {
		t.Errorf("excluded trace summary = %q", ex.Summary)
	}
}

func TestTraceBasedReasonerFallback(t *testing.T) {
	e := engineFor(t, ontology.CQ3)
	ex, err := e.Explain(Question{Type: TraceBased, Primary: ontology.Sushi})
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Evidence) == 0 {
		t.Errorf("reasoner fallback should produce proof steps: %q", ex.Summary)
	}
}

func TestAllNineTypesProduceAnswers(t *testing.T) {
	// Table I reproduction at the engine level: every explanation type
	// yields a non-empty summary on the combined dataset.
	g, r := ontology.Dataset(ontology.CQAll)
	g.Add(ontology.Sushi, ontology.FoodCalories, rdf.NewInt(450))
	e := NewEngine(g, r)
	e.SetCoach(healthcoach.New(g, healthcoach.DefaultWeights()))
	vegan := rdf.NewIRI(rdf.KGNS + "diet/Vegan")
	g.Add(vegan, rdf.TypeIRI, ontology.FoodDiet)

	questions := map[ExplanationType]Question{
		CaseBased:       {Type: CaseBased, Primary: ontology.BroccoliCheddarSoup, User: ontology.User1},
		Contextual:      {Type: Contextual, Primary: ontology.CauliflowerPotatoCurry},
		Contrastive:     {Type: Contrastive, Primary: ontology.ButternutSquashSoup, Secondary: ontology.BroccoliCheddarSoup},
		Counterfactual:  {Type: Counterfactual, Primary: ontology.Pregnancy},
		Everyday:        {Type: Everyday, Primary: ontology.Spinach},
		Scientific:      {Type: Scientific, Primary: ontology.Spinach},
		SimulationBased: {Type: SimulationBased, Primary: ontology.Sushi},
		Statistical:     {Type: Statistical, Primary: vegan, User: ontology.User2},
		TraceBased:      {Type: TraceBased, Primary: ontology.ButternutSquashSoup, User: ontology.User2},
	}
	for _, et := range AllExplanationTypes() {
		q, ok := questions[et]
		if !ok {
			t.Fatalf("no question for %v", et)
		}
		ex, err := e.Explain(q)
		if err != nil {
			t.Errorf("%v: %v", et, err)
			continue
		}
		if ex.Summary == "" {
			t.Errorf("%v: empty summary", et)
		}
		if ex.Type != et {
			t.Errorf("%v: type mismatch %v", et, ex.Type)
		}
	}
}

func TestParseExplanationType(t *testing.T) {
	for _, et := range AllExplanationTypes() {
		parsed, err := ParseExplanationType(et.String())
		if err != nil || parsed != et {
			t.Errorf("round trip failed for %v", et)
		}
		if et.ExampleQuestion() == "" {
			t.Errorf("%v missing example question", et)
		}
		if !et.ClassIRI().IsValid() {
			t.Errorf("%v missing class IRI", et)
		}
	}
	if _, err := ParseExplanationType("bogus"); err == nil {
		t.Error("bogus type should fail")
	}
}

func TestQuestionRequiresParameter(t *testing.T) {
	e := engineFor(t, ontology.CQ1)
	if _, err := e.Explain(Question{Type: Contextual}); err == nil {
		t.Error("contextual without parameter should fail")
	}
}

func TestSpaceCamel(t *testing.T) {
	for in, want := range map[string]string{
		"CauliflowerPotatoCurry": "Cauliflower Potato Curry",
		"Autumn":                 "Autumn",
		"rawFish":                "raw Fish",
		"ABC":                    "ABC",
		"":                       "",
	} {
		if got := spaceCamel(in); got != want {
			t.Errorf("spaceCamel(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestJoinPhrases(t *testing.T) {
	if joinPhrases(nil) != "" {
		t.Error("empty join")
	}
	if joinPhrases([]string{"a"}) != "a" {
		t.Error("single join")
	}
	if joinPhrases([]string{"a", "b"}) != "a and b" {
		t.Error("pair join")
	}
	if joinPhrases([]string{"a", "b", "c"}) != "a, b, and c" {
		t.Error("oxford join")
	}
}

func TestEngineBuildsOwnReasoner(t *testing.T) {
	g := ontology.TBox()
	g.Merge(ontology.ABox(ontology.CQ1))
	e := NewEngine(g, nil)
	if e.Reasoner() == nil {
		t.Fatal("engine should create a reasoner")
	}
	// The graph must be materialized (season classified).
	if !g.IsA(ontology.Autumn, ontology.FEOSeason) {
		t.Error("NewEngine(nil reasoner) must materialize")
	}
	_ = store.Wildcard // keep import for clarity of intent
}

func TestExplanationAssertedIntoGraph(t *testing.T) {
	e := engineFor(t, ontology.CQ1)
	ex, err := e.Explain(Question{
		IRI:     ontology.QWhyEatCauliflowerPotatoCurry,
		Type:    Contextual,
		Primary: ontology.CauliflowerPotatoCurry,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ex.IRI.IsValid() {
		t.Fatal("explanation IRI missing")
	}
	g := e.Graph()
	if !g.IsA(ex.IRI, ontology.EOContextualExplanation) {
		t.Error("explanation individual missing its type class")
	}
	if !g.Has(ex.IRI, ontology.EOAddresses, ontology.QWhyEatCauliflowerPotatoCurry) {
		t.Error("explanation should address its question")
	}
	if !g.Exists(ex.IRI, ontology.EOUsesKnowledge, store.Wildcard) {
		t.Error("explanation should record the knowledge it uses")
	}
	// The system recommended the curry, so the explanation explains it.
	if !g.Has(ex.IRI, ontology.EOExplains, ontology.CauliflowerPotatoCurry) {
		t.Error("explanation should link to the recommendation")
	}
	// Idempotence: asking again reuses the individual.
	ex2, err := e.Explain(Question{
		IRI:     ontology.QWhyEatCauliflowerPotatoCurry,
		Type:    Contextual,
		Primary: ontology.CauliflowerPotatoCurry,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ex2.IRI != ex.IRI {
		t.Error("repeated asks should reuse the explanation individual")
	}
}

func TestExplanationsAreQueryable(t *testing.T) {
	// The paper's premise: explanations are semantic objects. After
	// explaining, SPARQL can find them.
	e := engineFor(t, ontology.CQ3)
	if _, err := e.Explain(Question{
		IRI:     ontology.QWhatIfIWasPregnant,
		Type:    Counterfactual,
		Primary: ontology.Pregnancy,
	}); err != nil {
		t.Fatal(err)
	}
	res, err := sparql.Run(e.Graph(), `
SELECT ?ex ?summary WHERE {
  ?ex a eo:CounterfactualExplanation .
  ?ex eo:addresses feo:WhatIfIWasPregnant .
  ?ex rdfs:comment ?summary .
}`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("explanations found = %d, want 1", res.Len())
	}
	if !strings.Contains(res.Get(0, "summary").Value, "Sushi") {
		t.Errorf("stored summary = %q", res.Get(0, "summary").Value)
	}
}

// TestExplainIdempotentGraphSize: repeated asks of the same question must
// not grow the graph — the question individual, its comment, and the
// explanation individual are all reused.
func TestExplainIdempotentGraphSize(t *testing.T) {
	e := engineFor(t, ontology.CQ1)
	q := Question{
		Type:    Contextual,
		Primary: ontology.CauliflowerPotatoCurry,
		Text:    "Why should I eat Cauliflower Potato Curry?",
	}
	if _, err := e.Explain(q); err != nil {
		t.Fatal(err)
	}
	n := e.Graph().Len()
	for i := 0; i < 3; i++ {
		if _, err := e.Explain(q); err != nil {
			t.Fatal(err)
		}
		if got := e.Graph().Len(); got != n {
			t.Fatalf("repeat %d: graph grew %d -> %d triples; Explain not idempotent", i+1, n, got)
		}
	}
}

// TestQuestionTextKeysCache: asks that differ only in free-form text get
// their own question individuals, each carrying exactly one rdfs:comment —
// the historical bug piled every phrasing onto one shared individual.
func TestQuestionTextKeysCache(t *testing.T) {
	e := engineFor(t, ontology.CQ1)
	ex1, err := e.Explain(Question{
		Type: Contextual, Primary: ontology.CauliflowerPotatoCurry,
		Text: "Why should I eat this curry?",
	})
	if err != nil {
		t.Fatal(err)
	}
	ex2, err := e.Explain(Question{
		Type: Contextual, Primary: ontology.CauliflowerPotatoCurry,
		Text: "Is the curry good for me?",
	})
	if err != nil {
		t.Fatal(err)
	}
	if ex1.Question.IRI == ex2.Question.IRI {
		t.Fatal("different question texts must mint different individuals")
	}
	for _, iri := range []rdf.Term{ex1.Question.IRI, ex2.Question.IRI} {
		if n := len(e.Graph().Objects(iri, rdf.CommentIRI)); n != 1 {
			t.Errorf("question %s carries %d comments, want exactly 1", iri, n)
		}
	}
	// Same text again: reuse, and still one comment.
	ex3, err := e.Explain(Question{
		Type: Contextual, Primary: ontology.CauliflowerPotatoCurry,
		Text: "Why should I eat this curry?",
	})
	if err != nil {
		t.Fatal(err)
	}
	if ex3.Question.IRI != ex1.Question.IRI {
		t.Error("same text must reuse the cached individual")
	}
	if n := len(e.Graph().Objects(ex1.Question.IRI, rdf.CommentIRI)); n != 1 {
		t.Errorf("reused question carries %d comments, want 1", n)
	}
}

// TestEngineRematerializeDelta: the engine's change capture hands the
// reasoner an exact delta, so a direct graph write re-classifies
// incrementally; a removal falls back to the full path.
func TestEngineRematerializeDelta(t *testing.T) {
	e := engineFor(t, ontology.CQ1)
	mango := rdf.NewIRI(rdf.KGNS + "ingredient/Mango")
	e.Graph().Add(mango, rdf.TypeIRI, ontology.FoodIngredient)
	st := e.Rematerialize()
	if !st.Delta {
		t.Fatal("addition-only span must take the incremental path")
	}
	if st.Inferred == 0 {
		t.Error("ingredient classification should infer at least one triple")
	}
	e.Graph().Remove(mango, rdf.TypeIRI, ontology.FoodIngredient)
	if st := e.Rematerialize(); st.Delta {
		t.Error("a span containing a removal must fall back to the full path")
	}
	// Explain itself rides the delta path end to end.
	if _, err := e.Explain(Question{
		Type: Contextual, Primary: ontology.CauliflowerPotatoCurry, Text: "delta probe",
	}); err != nil {
		t.Fatal(err)
	}
	if st := e.Rematerialize(); st.Delta != true {
		t.Error("explanation assertions should leave a clean addition-only capture")
	}
}

// TestSortedSolutionsIgnoresRowOrder: solutions that tie on the sort keys
// come out in one order whatever order the engine produced them in — by
// every other binding, in variable-name order, unbound first.
func TestSortedSolutionsIgnoresRowOrder(t *testing.T) {
	iri := func(s string) rdf.Term { return rdf.NewIRI("http://e/" + s) }
	sols := []sparql.Solution{
		{"k": iri("a"), "z": iri("2"), "b": iri("x")},
		{"k": iri("a"), "z": iri("1"), "b": iri("x")},
		{"k": iri("a"), "b": iri("x")},
		{"k": iri("a"), "z": iri("1"), "b": iri("w")},
		{"k": iri("0")},
	}
	var want string
	for perm := 0; perm < len(sols); perm++ {
		rotated := append(append([]sparql.Solution(nil), sols[perm:]...), sols[:perm]...)
		var b strings.Builder
		for _, sol := range sortedSolutions(rotated, "k") {
			for _, v := range []string{"k", "b", "z"} {
				if t, ok := sol[v]; ok {
					b.WriteString(t.Value)
				} else {
					b.WriteString("-")
				}
			}
			b.WriteString(" ")
		}
		if perm == 0 {
			want = b.String()
			continue
		}
		if b.String() != want {
			t.Fatalf("rotation %d sorted as %s, want %s", perm, b.String(), want)
		}
	}
	const wantOrder = "http://e/0-- http://e/ahttp://e/whttp://e/1 http://e/ahttp://e/x- " +
		"http://e/ahttp://e/xhttp://e/1 http://e/ahttp://e/xhttp://e/2 "
	if want != wantOrder {
		t.Fatalf("sorted as %s, want %s", want, wantOrder)
	}
}
