package healthcoach_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/healthcoach"
	"repro/internal/ontology"
)

// TestDifferentialTraceBasedExplanation checks the trace-based
// explanation of every recipe, for a few users, against the reference
// ranking: an excluded recipe cites its reason, any other its reference
// trace, score and 1-based rank.
func TestDifferentialTraceBasedExplanation(t *testing.T) {
	for _, edge := range []bool{false, true} {
		t.Run(fmt.Sprintf("edge-cases=%v", edge), func(t *testing.T) {
			g := healthcoach.BuildDifferentialWorld(11, 150, 80, 10, edge)
			e := core.NewEngine(g, nil)
			coach := healthcoach.New(g, healthcoach.DefaultWeights())
			e.SetCoach(coach)
			users := g.InstancesOf(ontology.FoodUser)
			for _, u := range []int{0, len(users) / 2, len(users) - 1} {
				user := users[u]
				for rank, want := range healthcoach.ReferenceRecommend(coach, user, 0) {
					ex, err := e.Explain(core.Question{Type: core.TraceBased, Primary: want.Recipe, User: user})
					if err != nil {
						t.Fatal(err)
					}
					var phrases []string
					for _, ev := range ex.Evidence {
						phrases = append(phrases, ev.Phrase)
					}
					var wantPhrases []string
					var wantSummary string
					if want.Excluded {
						wantPhrases = []string{"excluded: " + want.Reason}
						wantSummary = fmt.Sprintf("%s was not recommended: %s.", want.Label, want.Reason)
					} else {
						for _, step := range want.Trace {
							wantPhrases = append(wantPhrases, fmt.Sprintf("%s (%+.1f)", step.Detail, step.Delta))
						}
						wantSummary = fmt.Sprintf("%s scored %.1f (rank %d) via %d scoring steps: ",
							want.Label, want.Score, rank+1, len(want.Trace))
					}
					if strings.Join(phrases, "\n") != strings.Join(wantPhrases, "\n") {
						t.Fatalf("%s / %s: evidence\n%q\nwant\n%q", user.Value, want.Label, phrases, wantPhrases)
					}
					if !strings.HasPrefix(ex.Summary, wantSummary) {
						t.Fatalf("%s / %s: summary %q, want prefix %q", user.Value, want.Label, ex.Summary, wantSummary)
					}
				}
			}
		})
	}
}
