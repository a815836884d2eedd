// Package healthcoach simulates the "Health Coach" food recommendation
// service (Rastogi et al., ISWC 2020 demo) that the paper evaluates FEO
// against. The real Health Coach is an ML-based application; the paper
// treats it as a black box that emits recommendations which FEO then
// explains post hoc. This simulation produces the same artifact — a ranked
// recommendation with a decision trace — from a transparent content-based
// scorer over the food knowledge graph, so every recommendation FEO
// explains here is reproducible and the trace-based explanation type has
// real steps to surface.
//
// Pipeline (all weights in Weights). Every call runs it once, in
// dictionary-ID space:
//
//	profile       the user's dislikes, allergens, conditions, diets and
//	              likes, the system's season and region ingredient sets,
//	              and a per-ingredient count of liked recipes containing
//	              it — resolved once per call, not once per recipe
//	hard          disliked recipes ∪ allergens that are recipes ∪ recipes
//	constraints   containing an allergen ∪ recipes a condition forbids,
//	              directly or through an ingredient          → excluded set
//	survivors     recipes \ excluded
//	soft signals  liked recipe overlap, in-season ingredients, regional
//	              ingredients, diet match, condition-recommended
//	              ingredients, cost vs budget  → weighted sum per survivor
//	top-k         a size-k heap: score descending, then label, then term
//	render        label, trace and exclusion reason for the returned
//	              recipes only
//
// The hard constraints are set algebra over the graph's indexes and the
// soft signals a score — the ontology-vs-heuristics split. Scoring with and
// without a trace is one function, so a rendered trace always sums to the
// score that ranked it.
//
// The group mode (the paper's seafood-allergy example) excludes the union
// of every member's excluded set and averages the members' soft scores.
//
// A Coach is stateless — two words of configuration over a graph, no
// caches — so constructing one per graph snapshot is free. feo.Snapshot
// relies on this: every pinned read handle gets its own Coach bound to
// the handle's frozen graph view, and recommendations are consistent with
// that version by construction.
package healthcoach

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/ontology"
	"repro/internal/rdf"
	"repro/internal/store"
)

// Weights tunes the soft scoring signals.
type Weights struct {
	LikedOverlap float64 // per shared ingredient with a liked recipe
	InSeason     float64 // per ingredient available in the current season
	InRegion     float64 // per ingredient available in the system's region
	DietMatch    float64 // recipe compatible with the user's diet
	Recommended  float64 // per condition-recommended ingredient
	CostPenalty  float64 // per cost level above 1
}

// DefaultWeights mirrors a plausible content-based configuration.
func DefaultWeights() Weights {
	return Weights{
		LikedOverlap: 2.0,
		InSeason:     1.5,
		InRegion:     0.5,
		DietMatch:    2.5,
		Recommended:  3.0,
		CostPenalty:  0.75,
	}
}

// TraceStep records one scoring decision; trace-based explanations render
// these verbatim.
type TraceStep struct {
	Rule   string  // short machine name, e.g. "in-season"
	Detail string  // human sentence fragment
	Delta  float64 // score contribution (0 for hard exclusions)
}

// Recommendation is a scored recipe with its decision trace.
type Recommendation struct {
	Recipe   rdf.Term
	Label    string
	Score    float64
	Excluded bool   // hard-constraint hit
	Reason   string // exclusion reason when Excluded
	Trace    []TraceStep
}

// Coach scores recipes in a knowledge graph for users. Entities (system,
// season, recipes) are resolved from the graph on every call, so data
// loaded after construction is picked up automatically. A Coach holds no
// per-call state: once the graph is quiescent, any number of goroutines
// may call Recommend/RecommendGroup/Explain concurrently (each call builds
// its own pass and never writes Coach fields).
type Coach struct {
	g *store.Graph
	w Weights
}

// New builds a Coach over a (materialized) graph.
func New(g *store.Graph, w Weights) *Coach {
	return &Coach{g: g, w: w}
}

// System returns the system individual the coach recommends on behalf of.
func (c *Coach) System() rdf.Term {
	systems := c.g.InstancesOf(ontology.EOSystem)
	if len(systems) == 0 {
		return rdf.Term{}
	}
	return systems[0]
}

// Recommend ranks the user's non-excluded recipes, best first, and keeps
// the best limit of them (all when limit <= 0). Excluded recipes follow
// the ranked ones with Excluded=true, in label order, as far as the limit
// leaves room — so explanation code can also answer "why NOT X".
func (c *Coach) Recommend(user rdf.Term, limit int) []Recommendation {
	p := c.newPass()
	u := p.profile(user)
	return p.recommend(u.excluded, limit,
		func(r store.ID, trace *[]TraceStep) float64 { return p.score(u, r, trace) },
		func(r store.ID, rec *Recommendation) { rec.Reason = p.reason(u, r) })
}

// RecommendGroup ranks recipes for a group: any member's hard constraint
// excludes the recipe (the paper's seafood-allergy family example), soft
// scores are averaged across members and traces concatenated in member
// order. An excluded recipe's reason names the first member whose
// constraint excludes it, after the traces of the members before.
func (c *Coach) RecommendGroup(users []rdf.Term, limit int) []Recommendation {
	if len(users) == 0 {
		return nil
	}
	p := c.newPass()
	members := make([]*profile, len(users))
	excluded := store.NewIDSet()
	for i, u := range users {
		members[i] = p.profile(u)
		excluded.OrWith(members[i].excluded)
	}
	return p.recommend(excluded, limit,
		func(r store.ID, trace *[]TraceStep) float64 {
			var sum float64
			for _, m := range members {
				sum += p.score(m, r, trace)
			}
			return sum / float64(len(members))
		},
		func(r store.ID, rec *Recommendation) {
			for _, m := range members {
				if m.excluded.Contains(r) {
					rec.Reason = fmt.Sprintf("%s (member %s)", p.reason(m, r), c.label(m.user))
					rec.Trace = append(rec.Trace, TraceStep{Rule: "group-exclusion", Detail: rec.Reason})
					return
				}
				p.score(m, r, &rec.Trace)
			}
		})
}

// Explain renders one recipe's recommendation for the user — the entry
// Recommend(user, 0) holds for it — without ranking or rendering the
// rest: the survivors are scored without traces only to count those that
// rank ahead. rank is the recipe's 1-based position, or 0 when it is
// excluded. ok is false when recipe is not a food:Recipe of the graph.
func (c *Coach) Explain(user, recipe rdf.Term) (rec Recommendation, rank int, ok bool) {
	p := c.newPass()
	r, found := p.g.LookupID(recipe)
	if !found || !p.recipes.Contains(r) {
		return Recommendation{}, 0, false
	}
	u := p.profile(user)
	rec = p.recommendation(r)
	if u.excluded.Contains(r) {
		rec.Excluded, rec.Reason = true, p.reason(u, r)
		return rec, 0, true
	}
	rec.Score = p.score(u, r, &rec.Trace)
	target := candidate{r, rec.Score}
	rank = 1
	p.recipes.AndNot(u.excluded).ForEach(func(s store.ID) bool {
		if p.before(candidate{s, p.score(u, s, nil)}, target) {
			rank++
		}
		return true
	})
	return rec, rank, true
}

// pass is the state of one call: the vocabulary and system context
// resolved to IDs against the graph as it is now, plus scratch space. It
// lives for one call, so concurrent calls share nothing mutable.
type pass struct {
	c *Coach
	g *store.Graph
	// Predicate IDs. A term the dictionary has never seen is NoID, which
	// every index lookup reads as empty — the same answer the term-level
	// lookups give.
	label, hasIngredient, costLevel, like, dislike, allergicTo,
	hasCondition, forbids, recommends, hasDiet, compatibleWithDiet store.ID
	recipes *store.IDSet // food:Recipe instances (a live index level: read-only)
	season  *store.IDSet // ingredients available in the system's season
	region  *store.IDSet // ingredients available in the system's region
	ings    []store.ID   // scratch for ingredients
}

func (c *Coach) newPass() *pass {
	g := c.g
	id := func(t rdf.Term) store.ID {
		i, _ := g.LookupID(t) // NoID when unknown
		return i
	}
	p := &pass{
		c: c, g: g,
		label:              id(rdf.LabelIRI),
		hasIngredient:      id(ontology.FEOHasIngredient),
		costLevel:          id(ontology.FoodCostLevel),
		like:               id(ontology.FEOLike),
		dislike:            id(ontology.FEODislike),
		allergicTo:         id(ontology.FEOAllergicTo),
		hasCondition:       id(ontology.FEOHasCondition),
		forbids:            id(ontology.FEOForbids),
		recommends:         id(ontology.FEORecommends),
		hasDiet:            id(ontology.FEOHasDiet),
		compatibleWithDiet: id(ontology.FEOCompatibleWithDiet),
	}
	p.recipes = g.MatchSetID(store.NoID, id(rdf.TypeIRI), id(ontology.FoodRecipe))
	sys := store.NoID
	if s := c.System(); s.IsValid() {
		sys = id(s)
	}
	season := g.FirstObjectID(sys, id(ontology.FEOHasSeason))
	region := g.FirstObjectID(sys, id(ontology.FEOLocatedIn))
	p.season = g.MatchSetID(store.NoID, id(ontology.FEOAvailableIn), season)
	p.region = g.MatchSetID(store.NoID, id(ontology.FEOAvailableInRegion), region)
	return p
}

// profile is one user's constraints and preferences in IDs. Lists are in
// term order — the order the scorer visits them and the trace shows them.
type profile struct {
	user       rdf.Term
	disliked   *store.IDSet
	liked      *store.IDSet
	likedCount map[store.ID]int32 // ingredient → liked recipes containing it
	allergens  []store.ID
	conditions []store.ID
	condRecs   []*store.IDSet // per condition: the ingredients it recommends
	diets      []store.ID
	dietSets   []*store.IDSet // per diet: the recipes compatible with it
	excluded   *store.IDSet   // every recipe a hard constraint rules out
}

func (p *pass) profile(user rdf.Term) *profile {
	g := p.g
	u, _ := g.LookupID(user)
	pr := &profile{
		user:       user,
		disliked:   g.MatchSetID(u, p.dislike, store.NoID),
		liked:      g.MatchSetID(u, p.like, store.NoID),
		likedCount: make(map[store.ID]int32),
		allergens:  p.byTerm(g.ObjectsID(u, p.allergicTo)),
		conditions: p.byTerm(g.ObjectsID(u, p.hasCondition)),
		diets:      p.byTerm(g.ObjectsID(u, p.hasDiet)),
	}
	pr.liked.ForEach(func(l store.ID) bool {
		g.ForEachObjectID(l, p.hasIngredient, func(i store.ID) bool {
			pr.likedCount[i]++
			return true
		})
		return true
	})
	excluded := store.NewIDSet()
	excluded.OrWith(pr.disliked)
	for _, a := range pr.allergens {
		excluded.Add(a) // an allergen that is itself a recipe
		excluded.OrWith(g.MatchSetID(store.NoID, p.hasIngredient, a))
	}
	for _, c := range pr.conditions {
		forbidden := g.MatchSetID(c, p.forbids, store.NoID)
		excluded.OrWith(forbidden)
		forbidden.ForEach(func(f store.ID) bool {
			excluded.OrWith(g.MatchSetID(store.NoID, p.hasIngredient, f))
			return true
		})
		pr.condRecs = append(pr.condRecs, g.MatchSetID(c, p.recommends, store.NoID))
	}
	for _, d := range pr.diets {
		pr.dietSets = append(pr.dietSets, g.MatchSetID(store.NoID, p.compatibleWithDiet, d))
	}
	pr.excluded = excluded
	return pr
}

// score sums the soft signals of recipe r for the user. With trace nil it
// only sums; otherwise it also appends one TraceStep per contribution, in
// the order the sum takes them — exact like, liked-recipe overlap,
// in-season then in-region per ingredient, diet match, condition-
// recommended ingredients, cost — so a trace always adds up to its score.
// Ingredients are visited in term order.
func (p *pass) score(u *profile, r store.ID, trace *[]TraceStep) float64 {
	w := p.c.w
	ings := p.ingredients(r)
	var sum float64
	liked := u.liked.Contains(r)
	if liked {
		sum += 2 * w.LikedOverlap
		p.note(trace, "liked", 2*w.LikedOverlap, "the user likes this exact recipe")
	}
	for _, i := range ings {
		n := u.likedCount[i]
		if liked {
			n-- // a liked recipe's own ingredients do not count toward its overlap
		}
		if n > 0 {
			sum += w.LikedOverlap
			p.note(trace, "liked-overlap", w.LikedOverlap, "shares %s with a liked recipe", i)
		}
	}
	for _, i := range ings {
		if p.season.Contains(i) {
			sum += w.InSeason
			p.note(trace, "in-season", w.InSeason, "%s is available in the current season", i)
		}
		if p.region.Contains(i) {
			sum += w.InRegion
			p.note(trace, "in-region", w.InRegion, "%s is local to the system's region", i)
		}
	}
	for k, d := range u.diets {
		if u.dietSets[k].Contains(r) {
			sum += w.DietMatch
			p.note(trace, "diet-match", w.DietMatch, "compatible with the user's %s diet", d)
		}
	}
	for k, c := range u.conditions {
		for _, i := range ings {
			if u.condRecs[k].Contains(i) {
				sum += w.Recommended
				p.note(trace, "condition-recommended", w.Recommended, "%s is recommended for %s", i, c)
			}
		}
	}
	if lvl := p.g.FirstObjectID(r, p.costLevel); lvl != store.NoID {
		if n, ok := p.g.TermOf(lvl).Int(); ok && n > 1 {
			delta := -w.CostPenalty * float64(n-1)
			sum += delta
			if trace != nil {
				*trace = append(*trace, TraceStep{Rule: "cost", Detail: fmt.Sprintf("cost level %d", n), Delta: delta})
			}
		}
	}
	return sum
}

// note appends one trace step when tracing. Its detail is format applied
// to the labels of ids, so nothing is decoded or formatted otherwise.
func (p *pass) note(trace *[]TraceStep, rule string, delta float64, format string, ids ...store.ID) {
	if trace == nil {
		return
	}
	args := make([]any, len(ids))
	for k, id := range ids {
		args[k] = p.labelOf(id)
	}
	*trace = append(*trace, TraceStep{Rule: rule, Detail: fmt.Sprintf(format, args...), Delta: delta})
}

// reason renders why the user's hard constraints exclude recipe r, in
// the order they are checked: dislike → allergens (the recipe itself, then
// an ingredient) → conditions (the recipe itself, then an ingredient).
func (p *pass) reason(u *profile, r store.ID) string {
	g := p.g
	if u.disliked.Contains(r) {
		return "explicitly disliked"
	}
	for _, a := range u.allergens {
		if a == r {
			return fmt.Sprintf("allergic to %s", p.labelOf(a))
		}
		if g.HasID(r, p.hasIngredient, a) {
			return fmt.Sprintf("contains allergen %s", p.labelOf(a))
		}
	}
	for _, c := range u.conditions {
		if g.HasID(c, p.forbids, r) {
			return fmt.Sprintf("forbidden by condition %s", p.labelOf(c))
		}
		for _, i := range p.ingredients(r) {
			if g.HasID(c, p.forbids, i) {
				return fmt.Sprintf("condition %s forbids ingredient %s", p.labelOf(c), p.labelOf(i))
			}
		}
	}
	return ""
}

// recommend ranks the recipes outside excluded by score, keeps the best
// limit (all when limit <= 0) and renders only those; the excluded
// recipes, rendered by exclude, fill what room the limit leaves.
func (p *pass) recommend(excluded *store.IDSet, limit int,
	score func(r store.ID, trace *[]TraceStep) float64,
	exclude func(r store.ID, rec *Recommendation)) []Recommendation {
	ranked := p.top(p.recipes.AndNot(excluded), limit, score)
	var shown []candidate
	if room := limit - len(ranked); limit <= 0 || room > 0 {
		// Excluded recipes all tie at score 0, so they go in label order.
		shown = p.top(p.recipes.And(excluded), room, func(store.ID, *[]TraceStep) float64 { return 0 })
	}
	out := make([]Recommendation, 0, len(ranked)+len(shown))
	for _, cd := range ranked {
		rec := p.recommendation(cd.id)
		rec.Score = score(cd.id, &rec.Trace)
		out = append(out, rec)
	}
	for _, cd := range shown {
		rec := p.recommendation(cd.id)
		rec.Excluded = true
		exclude(cd.id, &rec)
		out = append(out, rec)
	}
	return out
}

type candidate struct {
	id    store.ID
	score float64
}

// top scores every survivor without a trace and returns the limit best,
// best first — all of them when limit <= 0. Past limit candidates it
// keeps a heap whose root is the worst one kept.
func (p *pass) top(survivors *store.IDSet, limit int, score func(store.ID, *[]TraceStep) float64) []candidate {
	var h []candidate
	survivors.ForEach(func(r store.ID) bool {
		c := candidate{r, score(r, nil)}
		switch {
		case limit <= 0 || len(h) < limit:
			h = append(h, c)
			if len(h) == limit {
				for i := limit/2 - 1; i >= 0; i-- {
					p.siftDown(h, i)
				}
			}
		case p.before(c, h[0]):
			h[0] = c
			p.siftDown(h, 0)
		}
		return true
	})
	slices.SortFunc(h, p.compare)
	return h
}

// siftDown restores the worst-at-root heap order below index i.
func (p *pass) siftDown(h []candidate, i int) {
	for {
		worst := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(h) && p.before(h[worst], h[c]) {
				worst = c
			}
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// before reports whether a ranks ahead of b: higher score, then smaller
// label, then smaller term — the order a stable sort by (score, label)
// over the term-sorted recipe list gives. Labels are decoded only on a
// score tie.
func (p *pass) before(a, b candidate) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	if la, lb := p.labelOf(a.id), p.labelOf(b.id); la != lb {
		return la < lb
	}
	return p.compareTerms(a.id, b.id) < 0
}

func (p *pass) compare(a, b candidate) int {
	switch {
	case a.id == b.id:
		return 0
	case p.before(a, b):
		return -1
	}
	return 1
}

func (p *pass) recommendation(r store.ID) Recommendation {
	return Recommendation{Recipe: p.g.TermOf(r), Label: p.labelOf(r)}
}

// ingredients returns r's ingredients in term order (the order
// Graph.Objects gives), in scratch space the next call reuses.
func (p *pass) ingredients(r store.ID) []store.ID {
	p.ings = p.byTerm(p.g.MatchSetID(r, p.hasIngredient, store.NoID).AppendTo(p.ings[:0]))
	return p.ings
}

func (p *pass) byTerm(ids []store.ID) []store.ID {
	slices.SortFunc(ids, p.compareTerms)
	return ids
}

func (p *pass) compareTerms(a, b store.ID) int {
	return rdf.Compare(p.g.TermOf(a), p.g.TermOf(b))
}

// labelOf is label by ID: the rdfs:label decodes without a term lookup,
// and only an unlabeled individual falls back to its name.
func (p *pass) labelOf(id store.ID) string {
	if l := p.g.FirstObjectID(id, p.label); l != store.NoID {
		return p.g.TermOf(l).Value
	}
	return p.c.label(p.g.TermOf(id))
}

func (c *Coach) label(t rdf.Term) string {
	if l := c.g.FirstObject(t, rdf.LabelIRI); l.IsValid() {
		return l.Value
	}
	if q, ok := c.g.Namespaces().Shrink(t.Value); ok {
		if i := strings.IndexByte(q, ':'); i >= 0 {
			return spaceCamel(q[i+1:])
		}
		return q
	}
	return t.Value
}

// spaceCamel turns "ButternutSquashSoup" into "Butternut Squash Soup" for
// label fallbacks on unlabeled individuals.
func spaceCamel(s string) string {
	out := make([]rune, 0, len(s)+4)
	runes := []rune(s)
	for i, r := range runes {
		if i > 0 && r >= 'A' && r <= 'Z' && runes[i-1] >= 'a' && runes[i-1] <= 'z' {
			out = append(out, ' ')
		}
		out = append(out, r)
	}
	return string(out)
}

// Assert writes the recommendation into the graph in FEO terms: the system
// eo:recommends the recipe and a feo:FoodRecommendation individual links
// the pieces, so SPARQL-based explanation generators can see it.
func (c *Coach) Assert(rec Recommendation, seq int) rdf.Term {
	node := rdf.NewIRI(rdf.KGNS + fmt.Sprintf("recommendation/r%04d", seq))
	c.g.Add(node, rdf.TypeIRI, ontology.FEOFoodRecommendation)
	c.g.Add(node, ontology.EORecommends, rec.Recipe)
	if sys := c.System(); sys.IsValid() {
		c.g.Add(node, ontology.EOGeneratedBy, sys)
		c.g.Add(sys, ontology.EORecommends, rec.Recipe)
	}
	return node
}
