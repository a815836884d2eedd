// Package repro's top-level benchmark suite regenerates and times every
// artifact of the paper's evaluation (Table I, Figures 1-4, Listings 1-3)
// plus the ablation and scaling experiments DESIGN.md motivates (A1-A4).
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// The paper reports no absolute timings (its evaluation is task-based
// competency questions), so the comparison recorded in EXPERIMENTS.md is
// about result *content*: each BenchmarkListing*/BenchmarkTable1/
// BenchmarkFigure* first asserts the paper's expected rows are present and
// then times regeneration.
package repro

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/feo"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/foodkg"
	"repro/internal/healthcoach"
	"repro/internal/ontology"
	"repro/internal/paper"
	"repro/internal/rdf"
	"repro/internal/reasoner"
	"repro/internal/sparql"
	"repro/internal/store"
	"repro/internal/turtle"
)

// requireContains fails the benchmark when the regenerated artifact lost
// one of the paper's expected values.
func requireContains(b *testing.B, artifact, out string, wants ...string) {
	b.Helper()
	for _, w := range wants {
		if !strings.Contains(out, w) {
			b.Fatalf("%s: missing expected %q in:\n%s", artifact, w, out)
		}
	}
}

// ---- Listings 1-3 (the paper's competency-question queries) ----

func BenchmarkListing1_Contextual(b *testing.B) {
	g, _ := ontology.Dataset(ontology.CQ1)
	q, err := sparql.ParseQuery(paper.Listing1Query)
	if err != nil {
		b.Fatal(err)
	}
	res, _ := sparql.Execute(g, q)
	requireContains(b, "listing1", res.Table(), "feo:Autumn", "feo:SeasonCharacteristic")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sparql.Execute(g, q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkListing2_Contrastive(b *testing.B) {
	g, _ := ontology.Dataset(ontology.CQ2)
	q, err := sparql.ParseQuery(paper.Listing2Query)
	if err != nil {
		b.Fatal(err)
	}
	res, _ := sparql.Execute(g, q)
	requireContains(b, "listing2", res.Table(),
		"feo:Autumn", "feo:SeasonCharacteristic", "feo:Broccoli", "feo:AllergicFoodCharacteristic")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sparql.Execute(g, q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkListing3_Counterfactual(b *testing.B) {
	g, _ := ontology.Dataset(ontology.CQ3)
	q, err := sparql.ParseQuery(paper.Listing3Query)
	if err != nil {
		b.Fatal(err)
	}
	res, _ := sparql.Execute(g, q)
	requireContains(b, "listing3", res.Table(),
		"feo:recommends", "feo:Spinach", "feo:SpinachFrittata", "feo:forbids", "feo:Sushi")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sparql.Execute(g, q); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Table I: one sub-benchmark per explanation type ----

func BenchmarkTable1(b *testing.B) {
	g, r := ontology.Dataset(ontology.CQAll)
	g.Add(ontology.Sushi, ontology.FoodCalories, rdf.NewInt(450))
	vegan := rdf.NewIRI(rdf.KGNS + "diet/Vegan")
	g.Add(vegan, rdf.TypeIRI, ontology.FoodDiet)
	engine := core.NewEngine(g, r)
	engine.SetCoach(healthcoach.New(g, healthcoach.DefaultWeights()))

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
	for _, et := range core.AllExplanationTypes() {
		q := questions[et]
		b.Run(et.String(), func(b *testing.B) {
			ex, err := engine.Explain(q)
			if err != nil || ex.Summary == "" {
				b.Fatalf("%v: %v", et, err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := engine.Explain(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Figures 1-4 ----

func BenchmarkFigure1_CharacteristicHierarchy(b *testing.B) {
	requireContains(b, "figure1", paper.Figure1(),
		"feo:Characteristic", "feo:Parameter", "feo:UserCharacteristic", "feo:SystemCharacteristic")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = paper.Figure1()
	}
}

func BenchmarkFigure2_PropertyGraph(b *testing.B) {
	out := paper.Figure2()
	requireContains(b, "figure2", out, "feo:forbids", "feo:isCharacteristicOf", "feo:isOpposedBy")
	if strings.Count(out, "^-- feo:forbids") < 2 {
		b.Fatal("figure2 lost the multiple-inheritance example")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = paper.Figure2()
	}
}

func BenchmarkFigure3_FactFoilMatrix(b *testing.B) {
	requireContains(b, "figure3", paper.Figure3(), "feo:Autumn", "feo:Broccoli")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = paper.Figure3()
	}
}

func BenchmarkFigure4_InferredSubgraph(b *testing.B) {
	requireContains(b, "figure4", paper.Figure4(), "[inferred]",
		"feo:CauliflowerPotatoCurry feo:hasCharacteristic feo:Autumn")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = paper.Figure4()
	}
}

// ---- A1: naive vs semi-naive reasoner (the paper's Pellet motivation:
// "a reasoner known to handle individuals more efficiently") ----

func BenchmarkReasoner_NaiveVsSemiNaive(b *testing.B) {
	for _, size := range []int{50, 200, 800} {
		cfg := foodkg.DefaultConfig()
		cfg.Recipes = size
		cfg.Ingredients = size / 2
		cfg.Users = size / 10
		base := ontology.TBox()
		base.Merge(foodkg.Generate(cfg).Graph)
		for _, mode := range []struct {
			name  string
			naive bool
		}{{"semi-naive", false}, {"naive", true}} {
			b.Run(fmt.Sprintf("%s/recipes=%d", mode.name, size), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					g := base.Clone()
					b.StartTimer()
					reasoner.New(reasoner.Options{Naive: mode.naive}).Materialize(g)
				}
			})
		}
	}
}

// ---- A2: materialized transitive closure vs SPARQL property-path ----

func BenchmarkPath_TransitiveClosure(b *testing.B) {
	g, _ := ontology.Dataset(ontology.CQAll)
	// Materialized lookup: hasCharacteristic is already closed.
	b.Run("materialized-lookup", func(b *testing.B) {
		q, _ := sparql.ParseQuery(`SELECT ?c WHERE { feo:CauliflowerPotatoCurry feo:hasCharacteristic ?c }`)
		for i := 0; i < b.N; i++ {
			res, err := sparql.Execute(g, q)
			if err != nil || res.Len() == 0 {
				b.Fatal(err)
			}
		}
	})
	// Path evaluation: recompute the closure at query time over the
	// single-step sub-properties.
	b.Run("property-path", func(b *testing.B) {
		q, _ := sparql.ParseQuery(`SELECT ?c WHERE { feo:CauliflowerPotatoCurry (feo:hasIngredient|feo:availableIn)+ ?c }`)
		for i := 0; i < b.N; i++ {
			res, err := sparql.Execute(g, q)
			if err != nil || res.Len() == 0 {
				b.Fatal(err)
			}
		}
	})
	// A closure over a composite step: recipes linked through shared
	// ingredients, any number of hops away.
	b.Run("composite-path", func(b *testing.B) {
		q, _ := sparql.ParseQuery(`SELECT ?r WHERE { feo:CauliflowerPotatoCurry (feo:hasIngredient/^feo:hasIngredient)+ ?r }`)
		for i := 0; i < b.N; i++ {
			res, err := sparql.Execute(g, q)
			if err != nil || res.Len() == 0 {
				b.Fatal(err)
			}
		}
	})
}

// ---- A3: scaling sweep over FoodKG size (load, reason, query) ----

func BenchmarkScale_ReasonAndQuery(b *testing.B) {
	for _, recipes := range []int{100, 400, 1600} {
		cfg := foodkg.DefaultConfig()
		cfg.Recipes = recipes
		cfg.Ingredients = recipes / 2
		cfg.Users = recipes / 20
		kg := foodkg.Generate(cfg)
		b.Run(fmt.Sprintf("reason/recipes=%d", recipes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g := ontology.TBox()
				g.Merge(kg.Graph)
				b.StartTimer()
				reasoner.New(reasoner.Options{}).Materialize(g)
			}
		})
		// Contextual explanation latency at scale.
		g := ontology.TBox()
		g.Merge(kg.Graph)
		r := reasoner.New(reasoner.Options{})
		r.Materialize(g)
		engine := core.NewEngine(g, r)
		q := core.Question{Type: core.Contextual, Primary: kg.Recipes[0]}
		// Warm up once: the first ask asserts the question individual and
		// re-materializes; steady-state latency is what A3 measures.
		if _, err := engine.Explain(q); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("explain/recipes=%d", recipes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := engine.Explain(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- A5: incremental (delta) re-materialization at serve shape ----

// benchQuestion builds the triples the explanation engine asserts for one
// ad-hoc question: the shape every /explain request writes.
func benchQuestion(i int, recipe rdf.Term) []rdf.Triple {
	q := rdf.NewIRI(rdf.KGNS + fmt.Sprintf("question/bench%d", i))
	return []rdf.Triple{
		{S: q, P: rdf.TypeIRI, O: ontology.FEOFoodQuestion},
		{S: q, P: rdf.TypeIRI, O: ontology.EOContextualExplanation},
		{S: q, P: rdf.CommentIRI, O: rdf.NewLiteral(fmt.Sprintf("bench ask %d", i))},
		{S: q, P: ontology.FEOHasParameter, O: recipe},
	}
}

// BenchmarkMaterializeDelta measures re-classification after asserting one
// question into a large synthetic FoodKG: the delta path (capture, add,
// MaterializeChanges — what every session commit runs) against the
// historical full re-run it replaces. The delta number must not scale with
// graph size — that gap is the PR's headline claim, and bench_compare
// gates both sub-benchmarks.
func BenchmarkMaterializeDelta(b *testing.B) {
	cfg := foodkg.DefaultConfig()
	cfg.Recipes = 800
	cfg.Ingredients = 400
	cfg.Users = 40
	kg := foodkg.Generate(cfg)
	base := ontology.TBox()
	base.Merge(kg.Graph)
	recipe := kg.Recipes[0]

	b.Run("delta", func(b *testing.B) {
		g := base.Clone()
		r := reasoner.New(reasoner.Options{TraceDerivations: true})
		r.Materialize(g)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cs := g.StartCapture()
			for _, t := range benchQuestion(i, recipe) {
				g.AddTriple(t)
			}
			if st := r.MaterializeChanges(g, cs); !st.Delta {
				b.Fatal("expected the incremental path")
			}
		}
	})
	b.Run("full", func(b *testing.B) {
		g := base.Clone()
		r := reasoner.New(reasoner.Options{TraceDerivations: true})
		r.Materialize(g)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, t := range benchQuestion(i, recipe) {
				g.AddTriple(t)
			}
			r.Materialize(g)
		}
	})
}

// BenchmarkExplainWarm measures steady-state serve latency of a warm
// session: every iteration asks a fresh question (new text → new question
// individual), so each Explain pays the full write path — assertion,
// incremental re-classification, query, render — the way `feo serve`
// does per /explain request.
func BenchmarkExplainWarm(b *testing.B) {
	cfg := foodkg.DefaultConfig()
	cfg.Recipes = 800
	cfg.Ingredients = 400
	cfg.Users = 40
	sess := feo.NewSession(feo.Options{Data: feo.DataSynthetic, KG: cfg})
	recipes := sess.Recipes()
	if len(recipes) == 0 {
		b.Fatal("no recipes")
	}
	if _, err := sess.Explain(feo.Question{
		Type: feo.Contextual, Primary: recipes[0], Text: "warmup",
	}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Explain(feo.Question{
			Type:    feo.Contextual,
			Primary: recipes[i%len(recipes)],
			Text:    fmt.Sprintf("warm ask %d", i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExplainCommitPin measures one /explain as a serve loop runs
// it: Session.Explain (a writer commit) followed by Session.Snapshot (the
// next reader's pin, which publishes the commit). The session already
// holds questions=N question individuals, so the per-commit cost of the
// freeze can be read against history: the copies a pin makes after a
// commit should track what the commit wrote, so ns/op and B/op should
// stay flat as N grows.
func BenchmarkExplainCommitPin(b *testing.B) {
	cfg := foodkg.DefaultConfig()
	cfg.Recipes = 60
	cfg.Ingredients = 60
	cfg.Users = 4
	for _, n := range []int{250, 1000, 4000} {
		sess := feo.NewSession(feo.Options{Data: feo.DataSynthetic, KG: cfg})
		recipes := sess.Recipes()
		ask := func(i int) {
			if _, err := sess.Explain(feo.Question{
				Type: feo.Contextual, Primary: recipes[i%len(recipes)], Text: fmt.Sprintf("pin ask %d", i),
			}); err != nil {
				b.Fatal(err)
			}
			sess.Snapshot()
		}
		for i := 0; i < n; i++ {
			ask(i)
		}
		b.Run(fmt.Sprintf("questions=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ask(n + i)
			}
			n += b.N
		})
	}
}

// ---- A4: SPARQL operator micro-benchmarks ----

func BenchmarkSPARQL_Operators(b *testing.B) {
	cfg := foodkg.DefaultConfig()
	kg := foodkg.Generate(cfg)
	g := ontology.TBox()
	g.Merge(kg.Graph)
	reasoner.New(reasoner.Options{}).Materialize(g)
	cases := []struct{ name, query string }{
		{"bgp-join", `SELECT ?r ?i WHERE { ?r a food:Recipe . ?r feo:hasIngredient ?i }`},
		{"filter", `SELECT ?r WHERE { ?r food:calories ?c . FILTER(?c > 400) }`},
		{"not-exists", `SELECT ?r WHERE { ?r a food:Recipe . FILTER NOT EXISTS { ?r feo:compatibleWithDiet ?d } }`},
		{"optional", `SELECT ?r ?d WHERE { ?r a food:Recipe . OPTIONAL { ?r feo:compatibleWithDiet ?d } }`},
		// The counterfactual generator's shape: a constant BIND, a BGP, an
		// OPTIONAL.
		{"bind-optional", `SELECT ?r ?d WHERE { BIND(food:Recipe AS ?c) . ?r a ?c . OPTIONAL { ?r feo:compatibleWithDiet ?d } }`},
		// coach_dialogue's second follow-up: a three-way UNION after a BGP,
		// then an OPTIONAL.
		{"union-optional", `SELECT ?r ?p ?s WHERE { ?r a food:Recipe . ` +
			`{ ?r feo:hasIngredient ?p } UNION { ?r feo:compatibleWithDiet ?p } UNION { ?r food:calories ?p } . ` +
			`OPTIONAL { ?p feo:availableIn ?s } }`},
		{"path-plus", `SELECT ?c WHERE { ?r a food:Recipe . ?r (feo:hasIngredient|feo:availableIn)+ ?c } LIMIT 500`},
		{"aggregate", `SELECT ?i (COUNT(?r) AS ?n) WHERE { ?r feo:hasIngredient ?i } GROUP BY ?i`},
		{"order-limit", `SELECT ?r ?c WHERE { ?r food:calories ?c } ORDER BY DESC(?c) LIMIT 10`},
	}
	for _, tc := range cases {
		q, err := sparql.ParseQuery(tc.query)
		if err != nil {
			b.Fatalf("%s: %v", tc.name, err)
		}
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sparql.Execute(g, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- substrate micro-benchmarks ----

func BenchmarkStore_AddLookup(b *testing.B) {
	terms := make([]rdf.Term, 200)
	for i := range terms {
		terms[i] = rdf.NewIRI(fmt.Sprintf("http://e/t%d", i))
	}
	b.Run("add", func(b *testing.B) {
		g := store.New()
		for i := 0; i < b.N; i++ {
			g.Add(terms[i%200], terms[(i/200)%200], terms[(i/40000)%200])
		}
	})
	g := store.New()
	for i := 0; i < 40000; i++ {
		g.Add(terms[i%200], terms[(i/200)%200], terms[i%7])
	}
	b.Run("lookup-spo", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.Has(terms[i%200], terms[(i/200)%200], terms[i%7])
		}
	})
	b.Run("match-pattern", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.Count(terms[i%200], store.Wildcard, store.Wildcard)
		}
	})
}

func BenchmarkTurtle_ParseOntology(b *testing.B) {
	var sb strings.Builder
	g := ontology.TBox()
	if err := writeTTL(&sb, g); err != nil {
		b.Fatal(err)
	}
	doc := sb.String()
	b.SetBytes(int64(len(doc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := parseTTL(doc); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- durability: boot-time and write-path benchmarks ----

// durableBootConfig is the recipes=800 FoodKG the boot benchmarks compare
// on — the same scale BenchmarkMaterializeDelta/ExplainWarm use.
func durableBootConfig() foodkg.Config {
	cfg := foodkg.DefaultConfig()
	cfg.Recipes = 800
	cfg.Ingredients = 400
	cfg.Users = 40
	return cfg
}

// BenchmarkTurtleBoot measures the historical cold-boot path a durable
// directory replaces: parse the materialized graph's Turtle export back
// into a store and re-run the reasoner to rebuild the closure and its
// derivation traces. This is what every process start paid before
// snapshots existed (and what non-durable sessions still pay).
func BenchmarkTurtleBoot(b *testing.B) {
	kg := foodkg.Generate(durableBootConfig())
	base := ontology.TBox()
	base.Merge(kg.Graph)
	// Export the graph *before* materialization: the historical boot
	// parsed base documents and computed the closure (and its traces)
	// from scratch, so that is what each iteration must pay.
	var ttl strings.Builder
	if err := turtle.Write(&ttl, base); err != nil {
		b.Fatal(err)
	}
	doc := ttl.String()
	reasoner.New(reasoner.Options{TraceDerivations: true}).Materialize(base)
	want := base.Len()
	b.SetBytes(int64(len(doc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := parseTTL(doc)
		if err != nil {
			b.Fatal(err)
		}
		r := reasoner.New(reasoner.Options{TraceDerivations: true})
		r.Materialize(g)
		if g.Len() != want {
			b.Fatalf("boot lost triples: %d vs %d", g.Len(), want)
		}
	}
}

// BenchmarkSnapshotLoad measures the durable cold boot: feo.Open on a
// compacted data directory — binary snapshot load plus closure restore,
// no parsing and no rule evaluation. Gate-compared against
// BenchmarkTurtleBoot: the snapshot path must stay measurably faster.
// After the last boot it collects and reports what the booted session
// keeps alive (live-heap-MB, heap-objects): the state a server starts
// serving from, derivation trace included.
func BenchmarkSnapshotLoad(b *testing.B) {
	dir := b.TempDir()
	seed, err := feo.Open(feo.Options{Data: feo.DataSynthetic, KG: durableBootConfig(), DataDir: dir})
	if err != nil {
		b.Fatal(err)
	}
	want := seed.Graph().Len()
	if err := seed.Close(); err != nil {
		b.Fatal(err)
	}
	var s *feo.Session
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err = feo.Open(feo.Options{DataDir: dir})
		if err != nil {
			b.Fatal(err)
		}
		if !s.Replayed() || s.Graph().Len() != want {
			b.Fatalf("boot wrong: replayed=%v len=%d want %d", s.Replayed(), s.Graph().Len(), want)
		}
		s.Close()
	}
	b.StopTimer()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(s)
	b.ReportMetric(float64(ms.HeapAlloc)/(1<<20), "live-heap-MB")
	b.ReportMetric(float64(ms.HeapObjects), "heap-objects")
}

// BenchmarkWALAppend measures the per-commit durability overhead a
// mutating session call pays: framing, checksumming, and writing one
// representative record (a question's assertions plus its inferred
// consequences) to the log. SyncNever isolates the write path itself from
// fsync latency, which the sync policy — not the code — decides.
func BenchmarkWALAppend(b *testing.B) {
	g := store.New()
	g.Add(rdf.NewIRI("http://e/s"), rdf.NewIRI("http://e/p"), rdf.NewIRI("http://e/o"))
	st, _, err := durable.Open(b.TempDir(), durable.Options{Sync: durable.SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	if err := st.Compact(g, reasoner.ClosureState{}); err != nil {
		b.Fatal(err)
	}
	tr := func(n string) rdf.Triple {
		return rdf.Triple{
			S: rdf.NewIRI("https://purl.org/heals/foodkg/question/q0001"),
			P: rdf.NewIRI(rdf.FEONS + n),
			O: rdf.NewIRI("http://example.org/recipe/42"),
		}
	}
	rec := durable.Record{
		Ops: []store.TermOp{
			{T: tr("hasParameter")}, {T: tr("answeredBy")},
			{T: tr("inferredA")}, {T: tr("inferredB")}, {T: tr("inferredC")},
		},
		EndVersion:    1,
		TotalInferred: 3,
		Derivations: []reasoner.TracedDerivation{
			{Conclusion: tr("inferredA"), Rule: "cax-sco", Premises: []rdf.Triple{tr("hasParameter")}},
			{Conclusion: tr("inferredB"), Rule: "prp-dom", Premises: []rdf.Triple{tr("answeredBy")}},
			{Conclusion: tr("inferredC"), Rule: "prp-spo1", Premises: []rdf.Triple{tr("inferredA")}},
		},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.EndVersion = uint64(i + 1)
		if err := st.Append(rec); err != nil {
			b.Fatal(err)
		}
		if st.WALSize() > 64<<20 {
			b.StopTimer()
			if err := st.Compact(g, reasoner.ClosureState{}); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
}

// BenchmarkSnapshotPin measures the cost of pinning a read handle —
// Session.Snapshot() is an atomic dirty-check, an atomic pointer load,
// and two small allocations (handle + stateless coach) — and of a cheap
// read against the pin. This is the fixed per-request overhead every
// serve handler now pays, so it must stay well under a microsecond.
func BenchmarkSnapshotPin(b *testing.B) {
	sess := feo.NewSession(feo.Options{})
	b.Run("pin", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if sn := sess.Snapshot(); sn.Version() == 0 {
				b.Fatal("unpublished session")
			}
		}
	})
	b.Run("pin+users", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if len(sess.Snapshot().Users()) == 0 {
				b.Fatal("no users")
			}
		}
	})
}

// BenchmarkReadUnderWrite measures serve-side reader latency while a
// writer commits continuously: each iteration pins a snapshot and runs
// the recommendation read path against it, with a background goroutine
// driving Update commits as fast as the session will take them. Under
// the MVCC design the reader never queues behind the writer, so this
// should track the quiescent read cost; the "quiet" sub-benchmark is the
// no-writer baseline the contended number is judged against.
func BenchmarkReadUnderWrite(b *testing.B) {
	newBenchSession := func(b *testing.B) (*feo.Session, feo.Term) {
		cfg := foodkg.DefaultConfig()
		cfg.Recipes = 400
		cfg.Ingredients = 200
		cfg.Users = 20
		sess := feo.NewSession(feo.Options{Data: feo.DataSynthetic, KG: cfg})
		users := sess.Users()
		if len(users) == 0 {
			b.Fatal("no users")
		}
		return sess, users[0]
	}
	read := func(b *testing.B, sess *feo.Session, user feo.Term) {
		sn := sess.Snapshot()
		if recs := sn.Recommend(user, 5); len(recs) == 0 {
			b.Fatal("no recommendations")
		}
	}
	b.Run("quiet", func(b *testing.B) {
		sess, user := newBenchSession(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			read(b, sess, user)
		}
	})
	b.Run("contended", func(b *testing.B) {
		sess, user := newBenchSession(b)
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := sess.Update(fmt.Sprintf(
					"INSERT DATA { <http://x/churn/s%d> <http://x/churn/p> <http://x/churn/o> . }", i)); err != nil {
					b.Error(err)
					return
				}
			}
		}()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			read(b, sess, user)
		}
		b.StopTimer()
		close(stop)
		<-done
	})
}

// BenchmarkCommitPinQuery measures what a commit-per-request stream keeps
// alive: each iteration commits one Update (inserting, then deleting, the
// same triple, so every commit is a new version of a same-sized graph),
// pins the new version and runs a one-BGP query on it, then drops the pin.
// After b.N cycles it collects and reports the live heap (live-heap-MB).
// A superseded snapshot and the plans compiled against it are garbage once
// unpinned, so the number must stay flat as b.N grows (compare
// -benchtime 200x with 4000x).
func BenchmarkCommitPinQuery(b *testing.B) {
	sess := feo.NewSession(feo.Options{})
	const q = `SELECT ?c WHERE { ?c a feo:Characteristic }`
	ops := [2]string{"INSERT", "DELETE"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Update(ops[i%2] +
			" DATA { <http://x/churn/s> <http://x/churn/p> <http://x/churn/o> . }"); err != nil {
			b.Fatal(err)
		}
		if _, err := sess.Snapshot().Query(q); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(sess)
	b.ReportMetric(float64(ms.HeapAlloc)/(1<<20), "live-heap-MB")
}
