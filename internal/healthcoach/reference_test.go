package healthcoach

import (
	"fmt"
	"sort"

	"repro/internal/ontology"
	"repro/internal/rdf"
)

// The term-level scorer the ID-space pipeline replaced, kept verbatim as
// the oracle of the differential tests: it scores every recipe with
// per-recipe graph lookups, builds every label and trace, stable-sorts the
// whole set and then cuts it to the limit. Only the names differ.

// ReferenceRecommend and ReferenceRecommendGroup expose the oracle to the
// external test package, which compares trace-based explanations from
// internal/core (a package that imports this one) against it.
var (
	ReferenceRecommend      = (*Coach).referenceRecommend
	ReferenceRecommendGroup = (*Coach).referenceRecommendGroup
)

type referenceSysContext struct {
	season, region rdf.Term
}

func (c *Coach) referenceRefresh() (referenceSysContext, []rdf.Term) {
	sys := c.System()
	return referenceSysContext{
		season: c.g.FirstObject(sys, ontology.FEOHasSeason),
		region: c.g.FirstObject(sys, ontology.FEOLocatedIn),
	}, c.g.InstancesOf(ontology.FoodRecipe)
}

func (c *Coach) referenceRecommend(user rdf.Term, limit int) []Recommendation {
	sc, recipes := c.referenceRefresh()
	recs := make([]Recommendation, 0, len(recipes))
	for _, r := range recipes {
		recs = append(recs, c.referenceScoreOne(sc, user, r))
	}
	sort.SliceStable(recs, func(i, j int) bool {
		if recs[i].Excluded != recs[j].Excluded {
			return !recs[i].Excluded
		}
		if recs[i].Score != recs[j].Score {
			return recs[i].Score > recs[j].Score
		}
		return recs[i].Label < recs[j].Label
	})
	if limit > 0 && limit < len(recs) {
		recs = recs[:limit]
	}
	return recs
}

func (c *Coach) referenceRecommendGroup(users []rdf.Term, limit int) []Recommendation {
	if len(users) == 0 {
		return nil
	}
	sc, recipes := c.referenceRefresh()
	recs := make([]Recommendation, 0, len(recipes))
	for _, r := range recipes {
		var sum float64
		var merged Recommendation
		merged.Recipe = r
		merged.Label = c.label(r)
		for _, u := range users {
			one := c.referenceScoreOne(sc, u, r)
			if one.Excluded {
				merged.Excluded = true
				merged.Reason = fmt.Sprintf("%s (member %s)", one.Reason, c.label(u))
				merged.Trace = append(merged.Trace, TraceStep{
					Rule:   "group-exclusion",
					Detail: merged.Reason,
				})
				break
			}
			sum += one.Score
			merged.Trace = append(merged.Trace, one.Trace...)
		}
		if !merged.Excluded {
			merged.Score = sum / float64(len(users))
		}
		recs = append(recs, merged)
	}
	sort.SliceStable(recs, func(i, j int) bool {
		if recs[i].Excluded != recs[j].Excluded {
			return !recs[i].Excluded
		}
		if recs[i].Score != recs[j].Score {
			return recs[i].Score > recs[j].Score
		}
		return recs[i].Label < recs[j].Label
	})
	if limit > 0 && limit < len(recs) {
		recs = recs[:limit]
	}
	return recs
}

func (c *Coach) referenceScoreOne(sc referenceSysContext, user, recipe rdf.Term) Recommendation {
	rec := Recommendation{Recipe: recipe, Label: c.label(recipe)}
	ingredients := c.g.Objects(recipe, ontology.FEOHasIngredient)

	// Hard constraint: explicit dislike of the recipe.
	if c.g.Has(user, ontology.FEODislike, recipe) {
		rec.Excluded = true
		rec.Reason = "explicitly disliked"
		return rec
	}
	// Hard constraint: allergens.
	for _, allergen := range c.g.Objects(user, ontology.FEOAllergicTo) {
		if allergen == recipe {
			rec.Excluded = true
			rec.Reason = fmt.Sprintf("allergic to %s", c.label(allergen))
			return rec
		}
		for _, ing := range ingredients {
			if ing == allergen {
				rec.Excluded = true
				rec.Reason = fmt.Sprintf("contains allergen %s", c.label(allergen))
				return rec
			}
		}
	}
	// Hard constraint: condition-forbidden foods. feo:forbids has been
	// closed over ingredients by the reasoner, so a direct lookup suffices.
	for _, cond := range c.g.Objects(user, ontology.FEOHasCondition) {
		if c.g.Has(cond, ontology.FEOForbids, recipe) {
			rec.Excluded = true
			rec.Reason = fmt.Sprintf("forbidden by condition %s", c.label(cond))
			return rec
		}
		for _, ing := range ingredients {
			if c.g.Has(cond, ontology.FEOForbids, ing) {
				rec.Excluded = true
				rec.Reason = fmt.Sprintf("condition %s forbids ingredient %s", c.label(cond), c.label(ing))
				return rec
			}
		}
	}

	add := func(rule, detail string, delta float64) {
		rec.Score += delta
		rec.Trace = append(rec.Trace, TraceStep{Rule: rule, Detail: detail, Delta: delta})
	}

	// Liked-recipe ingredient overlap.
	likedIngredients := make(map[rdf.Term]bool)
	for _, liked := range c.g.Objects(user, ontology.FEOLike) {
		if liked == recipe {
			add("liked", "the user likes this exact recipe", 2*c.w.LikedOverlap)
			continue
		}
		for _, ing := range c.g.Objects(liked, ontology.FEOHasIngredient) {
			likedIngredients[ing] = true
		}
	}
	for _, ing := range ingredients {
		if likedIngredients[ing] {
			add("liked-overlap", fmt.Sprintf("shares %s with a liked recipe", c.label(ing)), c.w.LikedOverlap)
		}
	}
	// Seasonal and regional availability.
	for _, ing := range ingredients {
		if sc.season.IsValid() && c.g.Has(ing, ontology.FEOAvailableIn, sc.season) {
			add("in-season", fmt.Sprintf("%s is available in the current season", c.label(ing)), c.w.InSeason)
		}
		if sc.region.IsValid() && c.g.Has(ing, ontology.FEOAvailableInRegion, sc.region) {
			add("in-region", fmt.Sprintf("%s is local to the system's region", c.label(ing)), c.w.InRegion)
		}
	}
	// Diet compatibility.
	for _, diet := range c.g.Objects(user, ontology.FEOHasDiet) {
		if c.g.Has(recipe, ontology.FEOCompatibleWithDiet, diet) {
			add("diet-match", fmt.Sprintf("compatible with the user's %s diet", c.label(diet)), c.w.DietMatch)
		}
	}
	// Condition-recommended ingredients (e.g. folate for pregnancy).
	for _, cond := range c.g.Objects(user, ontology.FEOHasCondition) {
		for _, ing := range ingredients {
			if c.g.Has(cond, ontology.FEORecommends, ing) {
				add("condition-recommended",
					fmt.Sprintf("%s is recommended for %s", c.label(ing), c.label(cond)), c.w.Recommended)
			}
		}
	}
	// Cost penalty.
	if lvl, ok := c.g.FirstObject(recipe, ontology.FoodCostLevel).Int(); ok && lvl > 1 {
		add("cost", fmt.Sprintf("cost level %d", lvl), -c.w.CostPenalty*float64(lvl-1))
	}
	return rec
}
