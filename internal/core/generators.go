package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/ontology"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// contextual implements the paper's Listing 1 (CQ1) with the question bound
// and a most-specific-class filter added for clean rendering: surface the
// external (non-food) characteristics of the parameter that hold in the
// current user/system ecosystem.
func (e *Engine) contextual(q Question) (*Explanation, error) {
	query := fmt.Sprintf(`
SELECT DISTINCT ?parameter ?characteristic ?classes WHERE {
  BIND(<%s> AS ?question) .
  ?question feo:hasParameter ?parameter .
  ?parameter feo:hasCharacteristic ?characteristic .
  ?characteristic feo:isInternal false .
  { ?characteristic a feo:SystemCharacteristic } UNION { ?characteristic a feo:UserCharacteristic } .
  ?characteristic a ?classes .
  ?classes rdfs:subClassOf feo:Characteristic .
  FILTER NOT EXISTS { ?classes rdfs:subClassOf eo:knowledge } .
  FILTER NOT EXISTS { ?sub rdfs:subClassOf ?classes } .
}`, q.IRI.Value)
	res, err := sparql.Run(e.g, query)
	if err != nil {
		return nil, fmt.Errorf("core: contextual query: %w", err)
	}
	ex := &Explanation{Type: Contextual, Question: q, Query: query}
	for _, sol := range sortedSolutions(res.Solutions, "characteristic", "classes") {
		char, class, param := sol["characteristic"], sol["classes"], sol["parameter"]
		ev := Evidence{
			Bindings: sol,
			Triples: []rdf.Triple{
				{S: param, P: ontology.FEOHasCharacteristic, O: char},
				{S: char, P: rdf.TypeIRI, O: class},
			},
			Phrase: e.characteristicPhrase(class, char),
		}
		ex.Evidence = append(ex.Evidence, ev)
	}
	subject := e.label(q.Primary)
	if subject == "" && len(ex.Evidence) > 0 {
		subject = "this food"
	}
	if len(ex.Evidence) == 0 {
		ex.Summary = fmt.Sprintf("No external context supports eating %s right now.", subject)
	} else {
		ex.Summary = fmt.Sprintf("You should eat %s because %s.",
			subject, joinPhrases(phrases(ex.Evidence)))
	}
	return ex, nil
}

// contrastive implements the paper's Listing 2 (CQ2): facts supporting the
// primary parameter versus foils opposing the secondary parameter.
func (e *Engine) contrastive(q Question) (*Explanation, error) {
	if !q.Secondary.IsValid() {
		return nil, fmt.Errorf("core: contrastive questions need a secondary parameter")
	}
	query := fmt.Sprintf(`
SELECT DISTINCT ?factType ?factA ?foilType ?foilB WHERE {
  BIND(<%s> AS ?question) .
  ?question feo:hasPrimaryParameter ?parameterA .
  ?question feo:hasSecondaryParameter ?parameterB .
  ?parameterA feo:hasCharacteristic ?factA .
  ?factA a eo:Fact .
  ?factA a ?factType .
  ?factType (rdfs:subClassOf+) feo:Characteristic .
  FILTER NOT EXISTS { ?factType rdfs:subClassOf eo:knowledge } .
  FILTER NOT EXISTS { ?s rdfs:subClassOf ?factType } .
  ?parameterB feo:hasCharacteristic ?foilB .
  ?foilB a eo:Foil .
  ?foilB a ?foilType .
  ?foilType (rdfs:subClassOf+) feo:Characteristic .
  FILTER NOT EXISTS { ?foilType rdfs:subClassOf eo:knowledge } .
  FILTER NOT EXISTS { ?t rdfs:subClassOf ?foilType } .
}`, q.IRI.Value)
	res, err := sparql.Run(e.g, query)
	if err != nil {
		return nil, fmt.Errorf("core: contrastive query: %w", err)
	}
	ex := &Explanation{Type: Contrastive, Question: q, Query: query}
	factSet := map[string]bool{}
	foilSet := map[string]bool{}
	var factPhrases, foilPhrases []string
	for _, sol := range sortedSolutions(res.Solutions, "factA", "foilB") {
		fact, factType := sol["factA"], sol["factType"]
		foil, foilType := sol["foilB"], sol["foilType"]
		fp := e.characteristicPhrase(factType, fact)
		op := e.opposingPhrase(foilType, foil, q.Secondary)
		if !factSet[fp] {
			factSet[fp] = true
			factPhrases = append(factPhrases, fp)
		}
		if !foilSet[op] {
			foilSet[op] = true
			foilPhrases = append(foilPhrases, op)
		}
		ex.Evidence = append(ex.Evidence, Evidence{
			Bindings: sol,
			Triples: []rdf.Triple{
				{S: fact, P: rdf.TypeIRI, O: ontology.EOFact},
				{S: foil, P: rdf.TypeIRI, O: ontology.EOFoil},
			},
			Phrase: fp + "; " + op,
		})
	}
	a, b := e.label(q.Primary), e.label(q.Secondary)
	if len(ex.Evidence) == 0 {
		ex.Summary = fmt.Sprintf("No decisive facts distinguish %s from %s.", a, b)
	} else {
		ex.Summary = fmt.Sprintf("%s is better than %s because %s, and %s.",
			a, b, joinPhrases(factPhrases), joinPhrases(foilPhrases))
	}
	return ex, nil
}

// counterfactual implements the paper's Listing 3 (CQ3): project the
// consequences of a hypothetical parameter (condition, ingredient change)
// through the forbids/recommends lattice.
func (e *Engine) counterfactual(q Question) (*Explanation, error) {
	query := fmt.Sprintf(`
SELECT DISTINCT ?property ?baseFood ?inheritedFood WHERE {
  BIND(<%s> AS ?question) .
  ?question feo:hasParameter ?parameter .
  ?parameter ?property ?baseFood .
  ?property rdfs:subPropertyOf feo:isCharacteristicOf .
  ?baseFood a food:Food .
  OPTIONAL { ?baseFood feo:isIngredientOf ?inheritedFood . }
}`, q.IRI.Value)
	res, err := sparql.Run(e.g, query)
	if err != nil {
		return nil, fmt.Errorf("core: counterfactual query: %w", err)
	}
	ex := &Explanation{Type: Counterfactual, Question: q, Query: query}
	var forbidden, suggested []string
	for _, sol := range sortedSolutions(res.Solutions, "property", "baseFood") {
		prop, food := sol["property"], sol["baseFood"]
		inherited, hasInherited := sol["inheritedFood"]
		ev := Evidence{Bindings: sol, Triples: []rdf.Triple{{S: q.Primary, P: prop, O: food}}}
		switch prop {
		case ontology.FEOForbids:
			ev.Phrase = fmt.Sprintf("you would be forbidden from eating %s", e.label(food))
			forbidden = append(forbidden, e.label(food))
		case ontology.FEORecommends:
			if hasInherited {
				ev.Phrase = fmt.Sprintf("you would be suggested to eat %s (for example in %s)",
					e.label(food), e.label(inherited))
				suggested = append(suggested, fmt.Sprintf("%s (for example in %s)",
					e.label(food), e.label(inherited)))
			} else {
				ev.Phrase = fmt.Sprintf("you would be suggested to eat %s", e.label(food))
				suggested = append(suggested, e.label(food))
			}
		default:
			ev.Phrase = fmt.Sprintf("%s would apply to %s", e.label(prop), e.label(food))
		}
		ex.Evidence = append(ex.Evidence, ev)
	}
	cond := e.label(q.Primary)
	var parts []string
	if len(forbidden) > 0 {
		parts = append(parts, fmt.Sprintf("you would be forbidden from eating %s", joinPhrases(dedupe(forbidden))))
	}
	if len(suggested) > 0 {
		parts = append(parts, fmt.Sprintf("you would be suggested to eat %s", joinPhrases(dedupe(suggested))))
	}
	if len(parts) == 0 {
		ex.Summary = fmt.Sprintf("If %s applied, nothing would change.", cond)
	} else {
		ex.Summary = fmt.Sprintf("If %s applied, %s.", cond, strings.Join(parts, ", and "))
	}
	return ex, nil
}

// caseBased answers "What results from other users recommend food A?" by
// surveying peers who like the parameter.
func (e *Engine) caseBased(q Question) (*Explanation, error) {
	filter := ""
	if q.User.IsValid() {
		filter = fmt.Sprintf("FILTER(?other != <%s>) .", q.User.Value)
	}
	query := fmt.Sprintf(`
SELECT DISTINCT ?other WHERE {
  ?other feo:like <%s> .
  ?other a food:User .
  %s
}`, q.Primary.Value, filter)
	res, err := sparql.Run(e.g, query)
	if err != nil {
		return nil, fmt.Errorf("core: case-based query: %w", err)
	}
	ex := &Explanation{Type: CaseBased, Question: q, Query: query}
	for _, sol := range sortedSolutions(res.Solutions, "other") {
		other := sol["other"]
		ex.Evidence = append(ex.Evidence, Evidence{
			Bindings: sol,
			Triples:  []rdf.Triple{{S: other, P: ontology.FEOLike, O: q.Primary}},
			Phrase:   fmt.Sprintf("%s likes it", e.label(other)),
		})
	}
	subject := e.label(q.Primary)
	switch n := len(ex.Evidence); n {
	case 0:
		ex.Summary = fmt.Sprintf("No other user has tried %s yet.", subject)
	case 1:
		ex.Summary = fmt.Sprintf("1 other user with a similar profile likes %s.", subject)
	default:
		ex.Summary = fmt.Sprintf("%d other users with similar profiles like %s.", n, subject)
	}
	return ex, nil
}

// everyday answers "What foods go together?" from ingredient co-occurrence
// across recipes.
func (e *Engine) everyday(q Question) (*Explanation, error) {
	var query string
	switch {
	case q.Primary.IsValid() && e.g.IsA(q.Primary, ontology.FoodRecipe):
		query = fmt.Sprintf(`
SELECT DISTINCT ?companion WHERE { <%s> feo:hasIngredient ?companion . }`, q.Primary.Value)
	case q.Primary.IsValid():
		query = fmt.Sprintf(`
SELECT ?companion (COUNT(?recipe) AS ?n) WHERE {
  ?recipe feo:hasIngredient <%s> .
  ?recipe feo:hasIngredient ?companion .
  FILTER(?companion != <%s>)
} GROUP BY ?companion ORDER BY DESC(?n) LIMIT 7`, q.Primary.Value, q.Primary.Value)
	default:
		query = `
SELECT ?a ?b (COUNT(?r) AS ?n) WHERE {
  ?r feo:hasIngredient ?a .
  ?r feo:hasIngredient ?b .
  FILTER(STR(?a) < STR(?b))
} GROUP BY ?a ?b ORDER BY DESC(?n) LIMIT 7`
	}
	res, err := sparql.Run(e.g, query)
	if err != nil {
		return nil, fmt.Errorf("core: everyday query: %w", err)
	}
	ex := &Explanation{Type: Everyday, Question: q, Query: query}
	var items []string
	for _, sol := range res.Solutions {
		var phrase string
		if a, ok := sol["a"]; ok {
			phrase = fmt.Sprintf("%s with %s", e.label(a), e.label(sol["b"]))
		} else {
			phrase = e.label(sol["companion"])
		}
		if n, ok := sol["n"]; ok {
			if c, ok2 := n.Int(); ok2 && c > 1 {
				phrase += fmt.Sprintf(" (in %d recipes)", c)
			}
		}
		items = append(items, phrase)
		ex.Evidence = append(ex.Evidence, Evidence{Bindings: sol, Phrase: phrase})
	}
	if len(items) == 0 {
		ex.Summary = "No common pairings found."
	} else if q.Primary.IsValid() {
		ex.Summary = fmt.Sprintf("%s goes together with %s.", e.label(q.Primary), joinPhrases(items))
	} else {
		ex.Summary = fmt.Sprintf("Foods that commonly go together: %s.", joinPhrases(items))
	}
	return ex, nil
}

// scientific answers "What literature recommends Food A?" from
// eo:ScientificKnowledge records tied to the food or its characteristics.
func (e *Engine) scientific(q Question) (*Explanation, error) {
	query := fmt.Sprintf(`
SELECT DISTINCT ?study ?source ?subject WHERE {
  { BIND(<%s> AS ?subject) . ?study eo:evidenceFor ?subject . }
  UNION
  { <%s> feo:hasCharacteristic ?subject . ?study eo:evidenceFor ?subject . }
  ?study eo:citesSource ?source .
}`, q.Primary.Value, q.Primary.Value)
	res, err := sparql.Run(e.g, query)
	if err != nil {
		return nil, fmt.Errorf("core: scientific query: %w", err)
	}
	ex := &Explanation{Type: Scientific, Question: q, Query: query}
	var cites []string
	seen := map[string]bool{}
	for _, sol := range sortedSolutions(res.Solutions, "source", "subject") {
		src := sol["source"].Value
		phrase := fmt.Sprintf("%s (evidence concerning %s)", src, e.label(sol["subject"]))
		ex.Evidence = append(ex.Evidence, Evidence{
			Bindings: sol,
			Triples:  []rdf.Triple{{S: sol["study"], P: ontology.EOBasedOnEvidence, O: sol["subject"]}},
			Phrase:   phrase,
		})
		if !seen[src] {
			seen[src] = true
			cites = append(cites, src)
		}
	}
	subject := e.label(q.Primary)
	if len(cites) == 0 {
		ex.Summary = fmt.Sprintf("No literature in the knowledge base covers %s.", subject)
	} else {
		ex.Summary = fmt.Sprintf("Literature relevant to %s: %s.", subject, strings.Join(cites, "; "))
	}
	return ex, nil
}

// simulationBased answers "What if I ate food A every day?" by projecting
// its nutrition against daily guidelines.
func (e *Engine) simulationBased(q Question) (*Explanation, error) {
	query := fmt.Sprintf(`
SELECT ?cal ?protein WHERE {
  <%s> food:calories ?cal .
  OPTIONAL { <%s> food:proteinGrams ?protein . }
}`, q.Primary.Value, q.Primary.Value)
	res, err := sparql.Run(e.g, query)
	if err != nil {
		return nil, fmt.Errorf("core: simulation query: %w", err)
	}
	ex := &Explanation{Type: SimulationBased, Question: q, Query: query}
	subject := e.label(q.Primary)
	if res.Len() == 0 {
		ex.Summary = fmt.Sprintf("No nutrition data for %s; cannot simulate.", subject)
		return ex, nil
	}
	const dailyKcal = 2000.0
	cal, _ := res.Get(0, "cal").Float()
	pct := cal / dailyKcal * 100
	phrase := fmt.Sprintf("one serving is ~%.0f kcal (%.0f%% of a %v kcal guideline); a week adds up to ~%.0f kcal",
		cal, pct, dailyKcal, cal*7)
	ex.Evidence = append(ex.Evidence, Evidence{Bindings: res.Solutions[0], Phrase: phrase})
	if protein, ok := res.Get(0, "protein").Float(); ok {
		ex.Evidence = append(ex.Evidence, Evidence{
			Bindings: res.Solutions[0],
			Phrase:   fmt.Sprintf("daily protein would be ~%.0f g", protein),
		})
	}
	verdict := "that is a sustainable staple"
	switch {
	case pct > 40:
		verdict = "that would crowd out a balanced diet"
	case pct > 25:
		verdict = "that is substantial; balance the rest of the day carefully"
	}
	ex.Summary = fmt.Sprintf("If you ate %s every day, %s — %s.", subject, phrase, verdict)
	return ex, nil
}

// statistical answers "What evidence from data suggests I follow diet D?"
// by aggregating over users with overlapping tastes.
func (e *Engine) statistical(q Question) (*Explanation, error) {
	var peersQuery, withDietQuery string
	if q.User.IsValid() {
		peersQuery = fmt.Sprintf(`
SELECT (COUNT(DISTINCT ?peer) AS ?n) WHERE {
  <%s> feo:like ?f . ?peer feo:like ?f . FILTER(?peer != <%s>)
}`, q.User.Value, q.User.Value)
		withDietQuery = fmt.Sprintf(`
SELECT (COUNT(DISTINCT ?peer) AS ?n) WHERE {
  <%s> feo:like ?f . ?peer feo:like ?f . ?peer feo:hasDiet <%s> . FILTER(?peer != <%s>)
}`, q.User.Value, q.Primary.Value, q.User.Value)
	} else {
		peersQuery = `SELECT (COUNT(DISTINCT ?u) AS ?n) WHERE { ?u a food:User }`
		withDietQuery = fmt.Sprintf(
			`SELECT (COUNT(DISTINCT ?u) AS ?n) WHERE { ?u feo:hasDiet <%s> }`, q.Primary.Value)
	}
	peers, err := sparql.Run(e.g, peersQuery)
	if err != nil {
		return nil, fmt.Errorf("core: statistical peers query: %w", err)
	}
	withDiet, err := sparql.Run(e.g, withDietQuery)
	if err != nil {
		return nil, fmt.Errorf("core: statistical diet query: %w", err)
	}
	nPeers, _ := peers.Get(0, "n").Int()
	nDiet, _ := withDiet.Get(0, "n").Int()
	ex := &Explanation{Type: Statistical, Question: q, Query: peersQuery + "\n" + withDietQuery}
	ex.Evidence = append(ex.Evidence,
		Evidence{Bindings: peers.Solutions[0], Phrase: fmt.Sprintf("%d comparable users", nPeers)},
		Evidence{Bindings: withDiet.Solutions[0], Phrase: fmt.Sprintf("%d of them follow the diet", nDiet)},
	)
	diet := e.label(q.Primary)
	if nPeers == 0 {
		ex.Summary = fmt.Sprintf("Not enough data to assess the %s diet for you.", diet)
	} else {
		ex.Summary = fmt.Sprintf("%d of %d comparable users (%.0f%%) follow the %s diet.",
			nDiet, nPeers, float64(nDiet)/float64(nPeers)*100, diet)
	}
	return ex, nil
}

// traceBased answers "What steps led to recommendation E?" from the Health
// Coach scoring trace when available, falling back to the reasoner's
// derivation proof for the recommendation triple. The coach renders the
// trace of E alone; the other recipes are only scored, to rank E.
func (e *Engine) traceBased(q Question) (*Explanation, error) {
	ex := &Explanation{Type: TraceBased, Question: q}
	subject := e.label(q.Primary)
	if e.coach != nil && q.User.IsValid() {
		if rec, rank, ok := e.coach.Explain(q.User, q.Primary); ok {
			if rec.Excluded {
				ex.Evidence = append(ex.Evidence, Evidence{Phrase: "excluded: " + rec.Reason})
				ex.Summary = fmt.Sprintf("%s was not recommended: %s.", subject, rec.Reason)
				return ex, nil
			}
			for _, step := range rec.Trace {
				ex.Evidence = append(ex.Evidence, Evidence{
					Phrase: fmt.Sprintf("%s (%+.1f)", step.Detail, step.Delta),
				})
			}
			ex.Summary = fmt.Sprintf("%s scored %.1f (rank %d) via %d scoring steps: %s.",
				subject, rec.Score, rank, len(rec.Trace), joinPhrases(phrases(ex.Evidence)))
			return ex, nil
		}
	}
	// Fallback: reasoner proof of the system recommendation triple.
	systems := e.g.InstancesOf(ontology.EOSystem)
	for _, sys := range systems {
		target := rdf.Triple{S: sys, P: ontology.EORecommends, O: q.Primary}
		if !e.g.Has(target.S, target.P, target.O) {
			continue
		}
		proof := e.r.Proof(target)
		for _, step := range proof {
			ex.Evidence = append(ex.Evidence, Evidence{
				Triples: []rdf.Triple{step.Conclusion},
				Phrase:  fmt.Sprintf("[%s] %s", step.Rule, e.renderTriple(step.Conclusion)),
			})
		}
		ex.Summary = fmt.Sprintf("%d knowledge-base steps led to recommending %s.", len(proof), subject)
		return ex, nil
	}
	ex.Summary = fmt.Sprintf("No recorded trace for %s.", subject)
	return ex, nil
}

// ---- rendering helpers ----

// characteristicPhrase renders a (class, instance) pair as supporting text.
func (e *Engine) characteristicPhrase(class, char rdf.Term) string {
	name := e.label(char)
	switch class {
	case ontology.FEOSeason:
		return fmt.Sprintf("%s is the current season", name)
	case ontology.FEOLocation:
		return fmt.Sprintf("the system is located in %s", name)
	case ontology.FEOTime:
		return fmt.Sprintf("it suits the current time (%s)", name)
	case ontology.FEOLikedFood:
		return fmt.Sprintf("you like %s", name)
	case ontology.FEOGoal:
		return fmt.Sprintf("it aligns with your goal (%s)", name)
	case ontology.FEOBudget:
		return fmt.Sprintf("it fits your budget (%s)", name)
	case ontology.FEOCondition:
		return fmt.Sprintf("it suits your condition (%s)", name)
	case ontology.FEODiet:
		return fmt.Sprintf("it matches your %s diet", name)
	case ontology.FEOAllergicFood:
		return fmt.Sprintf("you are allergic to %s", name)
	case ontology.FEODislikedFood:
		return fmt.Sprintf("you dislike %s", name)
	default:
		return fmt.Sprintf("%s (%s) applies", name, e.label(class))
	}
}

// opposingPhrase renders a foil with its containing parameter for context
// ("you are allergic to Broccoli [in Broccoli Cheddar Soup]").
func (e *Engine) opposingPhrase(class, foil, parameter rdf.Term) string {
	base := e.characteristicPhrase(class, foil)
	if parameter.IsValid() && e.g.Has(parameter, ontology.FEOHasCharacteristic, foil) && foil != parameter {
		return fmt.Sprintf("%s (in %s)", base, e.label(parameter))
	}
	return base
}

func (e *Engine) renderTriple(t rdf.Triple) string {
	return fmt.Sprintf("%s %s %s",
		e.label(t.S), e.label(t.P), e.label(t.O))
}

func phrases(evidence []Evidence) []string {
	out := make([]string, 0, len(evidence))
	for _, ev := range evidence {
		out = append(out, ev.Phrase)
	}
	return out
}

// joinPhrases joins with commas and a final "and".
func joinPhrases(ps []string) string {
	switch len(ps) {
	case 0:
		return ""
	case 1:
		return ps[0]
	case 2:
		return ps[0] + " and " + ps[1]
	default:
		return strings.Join(ps[:len(ps)-1], ", ") + ", and " + ps[len(ps)-1]
	}
}

func dedupe(ss []string) []string {
	seen := make(map[string]bool, len(ss))
	var out []string
	for _, s := range ss {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// sortedSolutions orders solutions by the given keys, then breaks ties on
// every other variable in name order (unbound first), so the output does
// not depend on the order the engine produced the rows in.
func sortedSolutions(sols []sparql.Solution, keys ...string) []sparql.Solution {
	out := make([]sparql.Solution, len(sols))
	copy(out, sols)
	var rest []string
	for _, sol := range sols {
		for v := range sol {
			if !slices.Contains(keys, v) && !slices.Contains(rest, v) {
				rest = append(rest, v)
			}
		}
	}
	sort.Strings(rest)
	order := append(slices.Clip(keys), rest...)
	sort.SliceStable(out, func(i, j int) bool {
		for _, k := range order {
			if c := rdf.Compare(out[i][k], out[j][k]); c != 0 {
				return c < 0
			}
		}
		return false
	})
	return out
}
