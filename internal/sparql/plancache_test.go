package sparql

// Plan-cache behavior tests: hits on repeated execution, invalidation on
// every mutation path that bumps Graph.Version (Add, Remove, Clear, and
// the reasoner's materialization), and -race-clean concurrent Execute
// while the cache populates.

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/rdf"
	"repro/internal/reasoner"
	"repro/internal/store"
)

func planCacheGraph() *store.Graph {
	g := store.New()
	p := rdf.NewIRI("http://e/p")
	q := rdf.NewIRI("http://e/q")
	cls := rdf.NewIRI("http://e/C")
	for i := 0; i < 12; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://e/s%d", i))
		g.Add(s, p, rdf.NewInt(int64(i)))
		g.Add(s, q, rdf.NewIRI(fmt.Sprintf("http://e/s%d", (i+1)%12)))
		g.Add(s, rdf.TypeIRI, cls)
	}
	return g
}

const planCacheQuery = `SELECT ?s ?v WHERE { ?s a <http://e/C> . ?s <http://e/p> ?v . ?s <http://e/q> ?t }`

// TestPlanCacheHitOnRepeat: the first execution compiles (miss), every
// repeat on the unchanged graph reuses the compiled plan (hits, no new
// misses).
func TestPlanCacheHitOnRepeat(t *testing.T) {
	ResetPlanCache()
	g := planCacheGraph()
	q, err := ParseQuery(planCacheQuery)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(g, q); err != nil {
		t.Fatal(err)
	}
	hits0, misses0 := PlanCacheStats()
	if misses0 == 0 {
		t.Fatal("first execution should compile at least one plan (miss)")
	}
	for i := 0; i < 3; i++ {
		if _, err := Execute(g, q); err != nil {
			t.Fatal(err)
		}
	}
	hits1, misses1 := PlanCacheStats()
	if misses1 != misses0 {
		t.Errorf("repeat executions recompiled plans: misses %d -> %d", misses0, misses1)
	}
	if hits1 <= hits0 {
		t.Errorf("repeat executions did not hit the cache: hits %d -> %d", hits0, hits1)
	}
}

// TestPlanCacheInvalidation: every mutation path that bumps
// Graph.Version must force a recompile on the next execution — and the
// recompiled plan must see the new data.
func TestPlanCacheInvalidation(t *testing.T) {
	g := planCacheGraph()
	q, err := ParseQuery(planCacheQuery)
	if err != nil {
		t.Fatal(err)
	}
	mutate := []struct {
		name string
		do   func()
	}{
		{"add", func() { g.Add(rdf.NewIRI("http://e/new"), rdf.TypeIRI, rdf.NewIRI("http://e/C")) }},
		{"remove", func() { g.Remove(rdf.NewIRI("http://e/new"), rdf.TypeIRI, rdf.NewIRI("http://e/C")) }},
		{"reasoner", func() {
			g.Add(rdf.NewIRI("http://e/C"), rdf.NewIRI(rdf.RDFSNS+"subClassOf"), rdf.NewIRI("http://e/Super"))
			reasoner.New(reasoner.Options{}).Materialize(g)
		}},
		{"clear", func() { g.Clear() }},
	}
	ResetPlanCache()
	if _, err := Execute(g, q); err != nil {
		t.Fatal(err)
	}
	for _, m := range mutate {
		t.Run(m.name, func(t *testing.T) {
			before := g.Version()
			m.do()
			if g.Version() == before {
				t.Fatalf("%s did not bump Graph.Version", m.name)
			}
			_, misses0 := PlanCacheStats()
			res, err := Execute(g, q)
			if err != nil {
				t.Fatal(err)
			}
			_, misses1 := PlanCacheStats()
			if misses1 <= misses0 {
				t.Errorf("%s: execution after mutation must recompile (misses %d -> %d)", m.name, misses0, misses1)
			}
			// The recompiled plan serves the mutated graph, not the old one.
			want := refExecute(g, q)
			assertSameResult(t, m.name, planCacheQuery, want, res)
		})
	}
}

// TestPlanCacheDisabledWithJoinReorderOff: the A/B knob bypasses the
// cache entirely (plans under the knob have a different shape and must
// not pollute or read the keyed entries).
func TestPlanCacheDisabledWithJoinReorderOff(t *testing.T) {
	ResetPlanCache()
	g := planCacheGraph()
	q, err := ParseQuery(planCacheQuery)
	if err != nil {
		t.Fatal(err)
	}
	DisableJoinReorder = true
	defer func() { DisableJoinReorder = false }()
	for i := 0; i < 2; i++ {
		if _, err := Execute(g, q); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := PlanCacheStats()
	if hits != 0 || misses != 0 {
		t.Errorf("DisableJoinReorder executions touched the plan cache (hits=%d misses=%d)", hits, misses)
	}
}

// TestPlanCacheConcurrentPopulation: many goroutines execute a query mix
// against one graph starting from a cold cache. Run under -race in CI;
// results must match the single-threaded reference regardless of which
// goroutine won each LoadOrStore.
func TestPlanCacheConcurrentPopulation(t *testing.T) {
	ResetPlanCache()
	g := planCacheGraph()
	queries := []string{
		planCacheQuery,
		`SELECT ?s WHERE { ?s <http://e/q>+ <http://e/s0> }`,
		`SELECT ?s (COUNT(?t) AS ?n) WHERE { ?s <http://e/q> ?t } GROUP BY ?s`,
		`ASK { ?s a <http://e/C> . FILTER(?s = <http://e/s3>) }`,
	}
	parsed := make([]*Query, len(queries))
	wants := make([]*Result, len(queries))
	for i, src := range queries {
		q, err := ParseQuery(src)
		if err != nil {
			t.Fatalf("%v: %s", err, src)
		}
		parsed[i] = q
		wants[i] = refExecute(g, q)
	}
	ResetPlanCache() // cold again: the reference runs above must not prime it
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				qi := (w + i) % len(parsed)
				res, err := Execute(g, parsed[qi])
				if err != nil {
					errs <- fmt.Sprintf("worker %d: %v", w, err)
					return
				}
				want := wants[qi]
				if want.Kind == KindAsk {
					if res.Boolean != want.Boolean {
						errs <- fmt.Sprintf("worker %d: ASK mismatch on %s", w, queries[qi])
						return
					}
					continue
				}
				if strings.Join(canonicalRows(res), "\n") != strings.Join(canonicalRows(want), "\n") {
					errs <- fmt.Sprintf("worker %d: rows mismatch on %s", w, queries[qi])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	hits, misses := PlanCacheStats()
	if hits == 0 || misses == 0 {
		t.Errorf("concurrent run should both compile and reuse plans (hits=%d misses=%d)", hits, misses)
	}
}

// TestGroupBodiesPlanOncePerExecution: an OPTIONAL or EXISTS body is
// planned with the rest of its query, once per execution, not once per
// row that probes it — each execution looks up one plan per BGP, however
// many recipes reach the body. A single-BGP query (bulk_export's shape)
// looks up one.
func TestGroupBodiesPlanOncePerExecution(t *testing.T) {
	queries := []struct {
		src  string
		bgps int
	}{
		{`SELECT ?r ?d WHERE { ?r a food:Recipe . OPTIONAL { ?r feo:compatibleWithDiet ?d } }`, 2},
		{`SELECT ?r WHERE { ?r a food:Recipe . FILTER EXISTS { ?r feo:compatibleWithDiet ?d . ?d a food:Diet } }`, 2},
		{`SELECT ?r ?d WHERE { ?r a food:Recipe . ?r feo:compatibleWithDiet ?d }`, 1},
	}
	for _, n := range []int{4, 64} {
		g := store.New()
		diet := rdf.NewIRI(rdf.KGNS + "diet/Vegan")
		g.Add(diet, rdf.TypeIRI, rdf.NewIRI(rdf.FoodNS+"Diet"))
		for i := 0; i < n; i++ {
			r := rdf.NewIRI(fmt.Sprintf("%srecipe/%d", rdf.KGNS, i))
			g.Add(r, rdf.TypeIRI, rdf.NewIRI(rdf.FoodNS+"Recipe"))
			if i%2 == 0 {
				g.Add(r, rdf.NewIRI(rdf.FEONS+"compatibleWithDiet"), diet)
			}
		}
		for _, tc := range queries {
			src := tc.src
			q, err := ParseQuery(src)
			if err != nil {
				t.Fatal(err)
			}
			for run := 0; run < 2; run++ { // cold plans, then warm
				h0, m0 := PlanCacheStats()
				res, err := Execute(g, q)
				if err != nil {
					t.Fatal(err)
				}
				if res.Len() < n/2 {
					t.Fatalf("%d recipes, %s: %d rows", n, src, res.Len())
				}
				h1, m1 := PlanCacheStats()
				if got := (h1 - h0) + (m1 - m0); got != uint64(tc.bgps) {
					t.Errorf("%d recipes, run %d, %s: %d plan lookups, want %d", n, run, src, got, tc.bgps)
				}
			}
		}
	}
}
