// Package paper regenerates every artifact of the paper's evaluation: the
// one table (Table I), the four figures (Figures 1-4), and the three
// listings with their result rows (Listings 1-3). The CLI's `bench`
// subcommand prints these artifacts and the repository's benchmark suite
// times them; EXPERIMENTS.md records the paper-vs-measured comparison.
package paper

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/healthcoach"
	"repro/internal/ontology"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
)

// Listing1Query is the paper's Listing 1 verbatim (CQ1, contextual).
const Listing1Query = `
SELECT DISTINCT ?characteristic ?classes
WHERE{
?WhyEatCauliflowerPotatoCurry feo:hasParameter ?parameter .
?parameter feo:hasCharacteristic ?characteristic .
?characteristic feo:isInternal False .
?systemChar a feo:SystemCharacteristic .
?userChar a feo:UserCharacteristic .
Filter ( ?characteristic = ?systemChar || ?characteristic = ?userChar ) .
?characteristic a ?classes .
?classes rdfs:subClassOf feo:Characteristic .
Filter Not Exists{?classes rdfs:subClassOf eo:knowledge }.
}`

// Listing2Query is the paper's Listing 2 verbatim (CQ2, contrastive).
const Listing2Query = `
Select DISTINCT ?factType ?factA ?foilType ?foilB
Where{
BIND (feo:WhyEatButternutSquashSoupOverBroccoliCheddarSoup as ?question) .
?question feo:hasPrimaryParameter ?parameterA .
?question feo:hasSecondaryParameter ?parameterB .
?parameterA feo:hasCharacteristic ?factA .
?factA a <https://purl.org/heals/eo#Fact>.
?factA a ?factType .
?factType (rdfs:subClassOf+) feo:Characteristic .
Filter Not Exists{?factType rdfs:subClassOf <https://purl.org/heals/eo#knowledge> }.
Filter Not Exists{?s rdfs:subClassOf ?factType}.
?parameterB feo:hasCharacteristic ?foilB .
?foilB a <https://purl.org/heals/eo#Foil> .
?foilB a ?foilType.
?foilType (rdfs:subClassOf+) feo:Characteristic .
Filter Not Exists{?foilType rdfs:subClassOf <https://purl.org/heals/eo#knowledge> }.
Filter Not Exists{?t rdfs:subClassOf ?foilType}.
}`

// Listing3Query is the paper's Listing 3 verbatim (CQ3, counterfactual).
const Listing3Query = `
SELECT Distinct ?property ?baseFood ?inheritedFood
WHERE{
feo:WhatIfIWasPregnant feo:hasParameter ?parameter .
?parameter ?property ?baseFood .
?property rdfs:subPropertyOf feo:isCharacteristicOf.
?baseFood a food:Food .
OPTIONAL { ?baseFood feo:isIngredientOf ?inheritedFood.}
}`

// Listing runs one of the paper's listings (1-3) against its competency
// dataset and returns the rendered result table.
//
//feo:emit
func Listing(n int) (string, error) {
	var query string
	var cq ontology.CompetencyQuestion
	switch n {
	case 1:
		query, cq = Listing1Query, ontology.CQ1
	case 2:
		query, cq = Listing2Query, ontology.CQ2
	case 3:
		query, cq = Listing3Query, ontology.CQ3
	default:
		return "", fmt.Errorf("paper: no listing %d", n)
	}
	g, _ := ontology.Dataset(cq)
	res, err := sparql.Run(g, query)
	if err != nil {
		return "", err
	}
	// The listings carry no ORDER BY; sort so the rendered artifact is
	// byte-stable across runs.
	res.Sort()
	var b strings.Builder
	fmt.Fprintf(&b, "Listing %d (competency question %d)\n\n", n, n)
	b.WriteString(res.Table())
	return b.String(), nil
}

// Table1 regenerates Table I: the nine explanation types with their
// example questions and the answers this reproduction generates for them
// on the combined competency dataset.
//
//feo:emit
func Table1() (string, error) {
	g, r := ontology.Dataset(ontology.CQAll)
	g.Add(ontology.Sushi, ontology.FoodCalories, rdf.NewInt(450))
	engine := core.NewEngine(g, r)
	engine.SetCoach(healthcoach.New(g, healthcoach.DefaultWeights()))
	vegan := rdf.NewIRI(rdf.KGNS + "diet/Vegan")
	g.Add(vegan, rdf.TypeIRI, ontology.FoodDiet)
	g.Add(vegan, rdf.LabelIRI, rdf.NewLiteral("Vegan"))

	questions := map[core.ExplanationType]core.Question{
		core.CaseBased:       {Type: core.CaseBased, Primary: ontology.BroccoliCheddarSoup, User: ontology.User1},
		core.Contextual:      {Type: core.Contextual, Primary: ontology.CauliflowerPotatoCurry},
		core.Contrastive:     {Type: core.Contrastive, Primary: ontology.ButternutSquashSoup, Secondary: ontology.BroccoliCheddarSoup},
		core.Counterfactual:  {Type: core.Counterfactual, Primary: ontology.Pregnancy},
		core.Everyday:        {Type: core.Everyday, Primary: ontology.Spinach},
		core.Scientific:      {Type: core.Scientific, Primary: ontology.Spinach},
		core.SimulationBased: {Type: core.SimulationBased, Primary: ontology.Sushi},
		core.Statistical:     {Type: core.Statistical, Primary: vegan, User: ontology.User2},
		core.TraceBased:      {Type: core.TraceBased, Primary: ontology.ButternutSquashSoup, User: ontology.User2},
	}
	var b strings.Builder
	b.WriteString("Table I: Explanation types, example questions, and generated answers\n\n")
	for _, et := range core.AllExplanationTypes() {
		ex, err := engine.Explain(questions[et])
		if err != nil {
			return "", fmt.Errorf("paper: table 1 row %v: %w", et, err)
		}
		fmt.Fprintf(&b, "%-18s %s\n%-18s -> %s\n\n", et.String(), et.ExampleQuestion(), "", ex.Summary)
	}
	return b.String(), nil
}

// Figure1 regenerates Figure 1: the subclass tree under
// feo:Characteristic after reasoning.
//
//feo:emit
func Figure1() string {
	g, _ := ontology.Dataset(ontology.CQAll)
	var b strings.Builder
	b.WriteString("Figure 1: Subclasses of feo:Characteristic\n\n")
	printClassTree(&b, g, ontology.FEOCharacteristic, 0, map[rdf.Term]bool{})
	return b.String()
}

func printClassTree(b *strings.Builder, g *store.Graph, class rdf.Term, depth int, seen map[rdf.Term]bool) {
	if seen[class] || depth > 6 {
		return
	}
	seen[class] = true
	fmt.Fprintf(b, "%s%s\n", strings.Repeat("  ", depth), class.Compact(g.Namespaces()))
	// Direct subclasses: asserted subclass links whose subject is a named
	// class, skipping transitively materialized shortcuts.
	var kids []rdf.Term
	for _, sub := range g.Subjects(rdf.SubClassOfIRI, class) {
		if sub.IsBlank() || sub == class {
			continue
		}
		if isDirectSubclass(g, sub, class) {
			kids = append(kids, sub)
		}
	}
	sort.Slice(kids, func(i, j int) bool { return rdf.Compare(kids[i], kids[j]) < 0 })
	for _, k := range kids {
		printClassTree(b, g, k, depth+1, seen)
	}
}

// isDirectSubclass reports whether sub has no intermediate named class
// between itself and super.
func isDirectSubclass(g *store.Graph, sub, super rdf.Term) bool {
	for _, mid := range g.Objects(sub, rdf.SubClassOfIRI) {
		if mid == super || mid == sub || mid.IsBlank() {
			continue
		}
		if g.Has(mid, rdf.SubClassOfIRI, super) && !g.Has(super, rdf.SubClassOfIRI, mid) {
			return false
		}
	}
	return true
}

// Figure2 regenerates Figure 2: the property lattice (super-properties,
// sub-properties, and inverses), highlighting the paper's multiple
// inheritance example feo:forbids.
//
//feo:emit
func Figure2() string {
	g, _ := ontology.Dataset(ontology.CQAll)
	ns := g.Namespaces()
	var b strings.Builder
	b.WriteString("Figure 2: Exemplar property relationships\n\n")

	spo := map[string][]string{}
	g.ForEach(store.Wildcard, rdf.SubPropertyOfIRI, store.Wildcard, func(t rdf.Triple) bool {
		if strings.HasPrefix(t.S.Value, rdf.FEONS) && strings.HasPrefix(t.O.Value, rdf.FEONS) && t.S != t.O {
			spo[t.O.Compact(ns)] = append(spo[t.O.Compact(ns)], t.S.Compact(ns))
		}
		return true
	})
	supers := make([]string, 0, len(spo))
	for s := range spo {
		supers = append(supers, s)
	}
	sort.Strings(supers)
	for _, s := range supers {
		subs := spo[s]
		sort.Strings(subs)
		fmt.Fprintf(&b, "%s\n", s)
		for _, sub := range subs {
			fmt.Fprintf(&b, "  ^-- %s\n", sub)
		}
	}
	b.WriteString("\ninverses:\n")
	var invs []string
	g.ForEach(store.Wildcard, rdf.InverseOfIRI, store.Wildcard, func(t rdf.Triple) bool {
		if strings.HasPrefix(t.S.Value, rdf.FEONS) {
			invs = append(invs, fmt.Sprintf("  %s <-> %s", t.S.Compact(ns), t.O.Compact(ns)))
		}
		return true
	})
	sort.Strings(invs)
	b.WriteString(strings.Join(invs, "\n"))
	b.WriteString("\n")
	return b.String()
}

// Figure3 regenerates Figure 3: the fact/foil classification matrix for
// the CQ2 dataset. Each candidate characteristic is placed in its cell of
// the parameter × ecosystem grid.
//
//feo:emit
func Figure3() string {
	g, _ := ontology.Dataset(ontology.CQ2)
	ns := g.Namespaces()
	var facts, foils, neither []string
	seen := map[rdf.Term]bool{}
	g.ForEach(store.Wildcard, rdf.TypeIRI, ontology.FEOParameterChar, func(t rdf.Triple) bool {
		if seen[t.S] || t.S.IsBlank() {
			return true
		}
		seen[t.S] = true
		name := t.S.Compact(ns)
		switch {
		case g.IsA(t.S, ontology.EOFact):
			facts = append(facts, name)
		case g.IsA(t.S, ontology.EOFoil):
			foils = append(foils, name)
		default:
			neither = append(neither, name)
		}
		return true
	})
	sort.Strings(facts)
	sort.Strings(foils)
	sort.Strings(neither)
	var b strings.Builder
	b.WriteString("Figure 3: Facts and foils (CQ2 dataset)\n\n")
	fmt.Fprintf(&b, "facts   (supports parameter ∧ in ecosystem): %s\n", strings.Join(facts, ", "))
	fmt.Fprintf(&b, "foils   (opposes parameter ∧ in ecosystem):  %s\n", strings.Join(foils, ", "))
	fmt.Fprintf(&b, "neither (parameter characteristic only):     %s\n", strings.Join(neither, ", "))
	return b.String()
}

// Figure4 regenerates Figure 4: the inferred subsection of the ontology
// around the CQ1 parameter after reasoning — every triple within two hops
// of the parameter that the reasoner derived or that grounds the
// contextual answer.
//
//feo:emit
func Figure4() string {
	g, r := ontology.Dataset(ontology.CQ1)
	ns := g.Namespaces()
	var b strings.Builder
	b.WriteString("Figure 4: Inferred subsection for CQ1 (after reasoning)\n\n")
	focus := []rdf.Term{
		ontology.QWhyEatCauliflowerPotatoCurry,
		ontology.CauliflowerPotatoCurry,
		ontology.Cauliflower,
		ontology.Autumn,
	}
	var lines []string
	for _, f := range focus {
		g.ForEach(f, store.Wildcard, store.Wildcard, func(t rdf.Triple) bool {
			if t.O.IsBlank() {
				return true
			}
			marker := "asserted"
			if _, inferred := r.Derivation(t); inferred {
				marker = "inferred"
			}
			lines = append(lines, fmt.Sprintf("  [%s] %s %s %s",
				marker, t.S.Compact(ns), t.P.Compact(ns), t.O.Compact(ns)))
			return true
		})
	}
	sort.Strings(lines)
	b.WriteString(strings.Join(dedupeStrings(lines), "\n"))
	b.WriteString("\n")
	return b.String()
}

func dedupeStrings(ss []string) []string {
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
