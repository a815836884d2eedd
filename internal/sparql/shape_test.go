package sparql

// Shape-cache oracle tests: a template found by a query's fingerprint
// (lookupQuery) must answer exactly like a fresh ParseQuery of the same
// text — the same rows and the same (*Query).String() — whatever
// constants first filed the template and its plans.

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
)

// resetShapeCache empties the shape cache and the plan memos.
func resetShapeCache() {
	shapeCache.Lock()
	shapeCache.m = nil
	shapeCache.Unlock()
	shapeHits.Store(0)
	shapeMisses.Store(0)
	ResetPlanCache()
}

// mutateConstants returns src with every lifted constant's source
// (a literal with its language tag or datatype) replaced by replace's
// text for it. Replacements of the same token kind leave the fingerprint
// unchanged.
func mutateConstants(src string, replace func(t token) string) string {
	l := lexer{src: src}
	var b strings.Builder
	last := 0
	for {
		t, err := l.next()
		if err != nil || t.kind == tokEOF {
			break
		}
		if t.param >= 0 {
			b.WriteString(src[last:t.off])
			b.WriteString(replace(t))
			last = t.end
		}
	}
	b.WriteString(src[last:])
	return b.String()
}

// kbqa is a small knowledge graph with the kbqa_lookup workload's
// predicates, skewed so the two-constant shape's join order depends on
// its constants: ingredient ing0 is in every recipe and ing39 in one,
// diet0 suits every recipe and diet3 one.
type kbqa struct {
	g                                         *store.Graph
	recipes, ingredients, users, diets, nutrs []string
}

func newKBQA(seed int64) *kbqa {
	rng := rand.New(rand.NewSource(seed))
	k := &kbqa{g: store.New()}
	iri := func(kind string, i int) string { return fmt.Sprintf("http://kbqa.test/%s%d", kind, i) }
	for i := 0; i < 120; i++ {
		k.recipes = append(k.recipes, iri("recipe", i))
	}
	for i := 0; i < 40; i++ {
		k.ingredients = append(k.ingredients, iri("ing", i))
	}
	for i := 0; i < 40; i++ {
		k.users = append(k.users, iri("user", i))
	}
	for i := 0; i < 4; i++ {
		k.diets = append(k.diets, iri("diet", i))
	}
	for i := 0; i < 8; i++ {
		k.nutrs = append(k.nutrs, iri("nutr", i))
	}
	add := func(s, p string, o rdf.Term) { k.g.Add(rdf.NewIRI(s), rdf.NewIRI(p), o) }
	hasIng, compat := rdf.FEONS+"hasIngredient", rdf.FEONS+"compatibleWithDiet"
	for i, r := range k.recipes {
		add(r, hasIng, rdf.NewIRI(k.ingredients[0]))
		for n := 1 + rng.Intn(4); n > 0; n-- {
			add(r, hasIng, rdf.NewIRI(k.ingredients[1+rng.Intn(37)]))
		}
		add(r, compat, rdf.NewIRI(k.diets[0]))
		add(r, compat, rdf.NewIRI(k.diets[1+rng.Intn(2)]))
		add(r, rdf.FoodNS+"calories", rdf.NewInt(int64(100+rng.Intn(700))))
		if i == 7 {
			add(r, compat, rdf.NewIRI(k.diets[3]))
			add(r, hasIng, rdf.NewIRI(k.ingredients[39]))
		}
	}
	for _, ing := range k.ingredients {
		for n := 1 + rng.Intn(2); n > 0; n-- {
			add(ing, rdf.FEONS+"hasNutrient", rdf.NewIRI(k.nutrs[rng.Intn(len(k.nutrs))]))
		}
	}
	for _, u := range k.users[:38] { // user38 and user39 stay absent
		for n := rng.Intn(7); n > 0; n-- {
			add(u, rdf.FEONS+"like", rdf.NewIRI(k.recipes[rng.Intn(len(k.recipes))]))
		}
		for n := rng.Intn(3); n > 0; n-- {
			add(u, rdf.FEONS+"allergicTo", rdf.NewIRI(k.ingredients[rng.Intn(len(k.ingredients))]))
		}
	}
	return k
}

// query returns the i%5-th kbqa_lookup shape with random constants,
// absent ones included.
func (k *kbqa) query(rng *rand.Rand, i int) string {
	pick := func(pool []string) string { return pool[rng.Intn(len(pool))] }
	switch i % 5 {
	case 0:
		return fmt.Sprintf("SELECT ?i ?n WHERE { <%s> feo:hasIngredient ?i . ?i feo:hasNutrient ?n }", pick(k.recipes))
	case 1:
		return fmt.Sprintf("SELECT ?r WHERE { <%s> feo:like ?r }", pick(k.users))
	case 2:
		return fmt.Sprintf("ASK { <%s> feo:allergicTo ?i . <%s> feo:hasIngredient ?i }", pick(k.users), pick(k.recipes))
	case 3:
		return fmt.Sprintf("SELECT ?r WHERE { ?r feo:hasIngredient <%s> . ?r feo:compatibleWithDiet <%s> } ORDER BY ?r LIMIT 20",
			pick(k.ingredients), pick(k.diets))
	default:
		lo := 150 + 50*rng.Intn(8)
		return fmt.Sprintf("SELECT ?r ?c WHERE { <%s> feo:like ?r . ?r food:calories ?c . FILTER(?c >= %d && ?c <= %d) }",
			pick(k.users), lo, lo+300)
	}
}

// checkShape runs src through the shape cache and through a fresh parse
// and fails unless both render and answer alike.
func checkShape(t *testing.T, g *store.Graph, src string) {
	t.Helper()
	pq, err := lookupQuery(src)
	if err != nil {
		t.Fatalf("lookup: %v\n%s", err, src)
	}
	fresh, err := ParseQuery(src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	if got, want := (renderer{pq.params}).query(pq.q), fresh.String(); got != want {
		t.Fatalf("cached render differs:\ncached: %s\nfresh:  %s\ninput:  %s", got, want, src)
	}
	got, err := pq.execute(g)
	if err != nil {
		t.Fatalf("execute cached: %v\n%s", err, src)
	}
	want, err := Execute(g, fresh)
	if err != nil {
		t.Fatalf("execute fresh: %v\n%s", err, src)
	}
	assertSameOutcome(t, src, want, got)
}

// assertSameOutcome compares two results of any query form.
func assertSameOutcome(t *testing.T, src string, want, got *Result) {
	t.Helper()
	if want.Graph != nil || got.Graph != nil {
		if want.Graph == nil || got.Graph == nil || !want.Graph.Equal(got.Graph) {
			t.Fatalf("graph results differ\nquery: %s", src)
		}
		return
	}
	assertSameResult(t, "shape", src, want, got)
}

// TestShapeCacheKBQA: the five kbqa_lookup shapes with random constants,
// from a cold cache, agree with fresh parses execution after execution.
func TestShapeCacheKBQA(t *testing.T) {
	resetShapeCache()
	k := newKBQA(1)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 400; i++ {
		checkShape(t, k.g, k.query(rng, i))
	}
	if hits, misses := ShapeCacheStats(); misses > 5 || hits < 395 {
		t.Errorf("five shapes took %d misses and %d hits, want 5 and ≥ 395", misses, hits)
	}
}

// TestShapeCacheAbsentConstant: a template whose plan was compiled for a
// present IRI answers an absent one with no rows, and the reverse: an
// absent constant's empty plan is never what a present one gets.
func TestShapeCacheAbsentConstant(t *testing.T) {
	k := newKBQA(1)
	const shape = "SELECT ?r ?c WHERE { <%s> feo:like ?r . ?r food:calories ?c }"
	present, absent := k.users[0], k.users[39]
	for _, order := range [][]string{{present, absent, present}, {absent, present, absent}} {
		resetShapeCache()
		for _, u := range order {
			checkShape(t, k.g, fmt.Sprintf(shape, u))
		}
	}
	res, err := Run(k.g, fmt.Sprintf(shape, absent))
	if err != nil || len(res.Solutions) != 0 {
		t.Fatalf("absent user: %d rows, err %v", len(res.Solutions), err)
	}
}

// planSpecs renders a plan's steps: pattern order, constant IDs, slots.
func planSpecs(p *bgpPlan) string {
	if p.empty {
		return "empty"
	}
	var b strings.Builder
	for _, st := range p.steps {
		b.WriteString("[")
		for _, sp := range st.specs {
			fmt.Fprintf(&b, "%d:%v%v ", sp.pat, sp.ids, sp.slot)
		}
		fmt.Fprintf(&b, "shared=%d]", len(st.shared))
	}
	return b.String()
}

// TestShapeCacheJoinOrder: the two-constant shape's best join order flips
// with its constants. Whichever constants compiled the cached plan first,
// every execution runs the plan a fresh compile would build for its own
// constants — order, IDs and shared candidate sets.
func TestShapeCacheJoinOrder(t *testing.T) {
	k := newKBQA(1)
	const shape = "SELECT ?r WHERE { ?r feo:hasIngredient <%s> . ?r feo:compatibleWithDiet <%s> }"
	texts := []string{
		fmt.Sprintf(shape, k.ingredients[0], k.diets[3]),  // diet is selective
		fmt.Sprintf(shape, k.ingredients[39], k.diets[0]), // ingredient is selective
	}
	plans := func(src string) (cached, fresh string) {
		pq, err := lookupQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		ec := pq.context(k.g)
		cached = planSpecs(ec.planBGP(pq.q.Where.Patterns[0].(*BGP), make([]bool, ec.env.width())))
		q, _ := ParseQuery(src)
		fec := prepare(q).context(k.g)
		fresh = planSpecs(fec.compileBGP(q.Where.Patterns[0].(*BGP), make([]bool, fec.env.width()), nil))
		return cached, fresh
	}
	for _, first := range []int{0, 1} {
		resetShapeCache()
		var seen []string
		for _, i := range []int{first, 1 - first, first, 1 - first} {
			cached, fresh := plans(texts[i])
			if cached != fresh {
				t.Fatalf("plan for %s:\ncached %s\nfresh  %s", texts[i], cached, fresh)
			}
			checkShape(t, k.g, texts[i])
			seen = append(seen, fresh)
		}
		if seen[0] == seen[1] {
			t.Fatalf("the constants did not flip the plan: %s", seen[0])
		}
	}
	if hits, _ := PlanCacheStats(); hits == 0 {
		t.Error("repeated constants never reused a plan")
	}
}

// TestShapeCachePinnedConstants: texts that differ only in a constant the
// template compiles in must not share a template.
func TestShapeCachePinnedConstants(t *testing.T) {
	k := newKBQA(1)
	r0, r1, u0, u1 := k.recipes[0], k.recipes[1], k.users[0], k.users[1]
	pairs := []struct{ name, a, b string }{
		{"limit",
			"SELECT ?r ?i WHERE { ?r feo:hasIngredient ?i } ORDER BY ?r ?i LIMIT 3",
			"SELECT ?r ?i WHERE { ?r feo:hasIngredient ?i } ORDER BY ?r ?i LIMIT 5"},
		{"offset",
			"SELECT ?r ?i WHERE { ?r feo:hasIngredient ?i } ORDER BY ?r ?i LIMIT 3 OFFSET 1",
			"SELECT ?r ?i WHERE { ?r feo:hasIngredient ?i } ORDER BY ?r ?i LIMIT 3 OFFSET 2"},
		{"prefix",
			"PREFIX k: <http://kbqa.test/> SELECT ?r WHERE { k:user0 feo:like ?r }",
			"PREFIX k: <http://kbqa.test/user> SELECT ?r WHERE { k:user0 feo:like ?r }"},
		{"base",
			"BASE <http://kbqa.test/> SELECT ?r WHERE { <user0> feo:like ?r }",
			"BASE <http://kbqa.test/x/> SELECT ?r WHERE { <user0> feo:like ?r }"},
		{"values",
			fmt.Sprintf("SELECT ?r WHERE { VALUES ?u { <%s> } ?u feo:like ?r }", u0),
			fmt.Sprintf("SELECT ?r WHERE { VALUES ?u { <%s> } ?u feo:like ?r }", u1)},
		{"path-endpoint",
			fmt.Sprintf("SELECT ?n WHERE { <%s> feo:hasIngredient/feo:hasNutrient ?n }", r0),
			fmt.Sprintf("SELECT ?n WHERE { <%s> feo:hasIngredient/feo:hasNutrient ?n }", r1)},
		{"path-iri",
			fmt.Sprintf("SELECT ?x WHERE { <%s> <%shasIngredient>+ ?x }", r0, rdf.FEONS),
			fmt.Sprintf("SELECT ?x WHERE { <%s> <%scompatibleWithDiet>+ ?x }", r0, rdf.FEONS)},
		{"construct",
			fmt.Sprintf("CONSTRUCT { ?r <http://e/tag> <http://e/A> } WHERE { <%s> feo:like ?r }", u0),
			fmt.Sprintf("CONSTRUCT { ?r <http://e/tag> <http://e/B> } WHERE { <%s> feo:like ?r }", u0)},
		{"describe",
			fmt.Sprintf("DESCRIBE <%s>", r0),
			fmt.Sprintf("DESCRIBE <%s>", r1)},
		{"signed-number",
			"SELECT ?r WHERE { ?r food:calories -5 }",
			"SELECT ?r WHERE { ?r food:calories -6 }"},
		{"separator",
			`SELECT (GROUP_CONCAT(?i; SEPARATOR=",") AS ?all) WHERE { ?r feo:hasIngredient ?i }`,
			`SELECT (GROUP_CONCAT(?i; SEPARATOR=";") AS ?all) WHERE { ?r feo:hasIngredient ?i }`},
	}
	for _, tc := range pairs {
		t.Run(tc.name, func(t *testing.T) {
			resetShapeCache()
			checkShape(t, k.g, tc.a)
			checkShape(t, k.g, tc.b)
			checkShape(t, k.g, tc.a)
		})
	}
}

// TestShapeCacheLiftedLiterals: strings with language tags and datatypes,
// booleans and numbers are parameters in triple patterns and in
// expressions alike.
func TestShapeCacheLiftedLiterals(t *testing.T) {
	resetShapeCache()
	g := store.New()
	s, p := rdf.NewIRI("http://e/s"), rdf.NewIRI("http://e/p")
	for _, o := range []rdf.Term{rdf.NewLiteral("a"), rdf.NewLangLiteral("a", "en"),
		rdf.NewTypedLiteral("5", rdf.XSDInteger), rdf.NewBool(true), rdf.NewTypedLiteral("2.5", rdf.XSDDecimal)} {
		g.Add(s, p, o)
	}
	for _, o := range []string{`"a"`, `"a"@en`, `"a"@EN`, `"5"^^xsd:integer`, `"5"^^<http://www.w3.org/2001/XMLSchema#integer>`,
		`5`, `true`, `false`, `2.5`, `"b"`} {
		checkShape(t, g, fmt.Sprintf(`SELECT ?s WHERE { ?s <http://e/p> %s }`, o))
		checkShape(t, g, fmt.Sprintf(`SELECT ?o WHERE { <http://e/s> <http://e/p> ?o . FILTER(?o = %s) }`, o))
		checkShape(t, g, fmt.Sprintf(`SELECT ?o WHERE { <http://e/s> <http://e/p> ?o . FILTER(?o != %s && ?o != "x") }`, o))
	}
}

// TestShapeCacheConcurrent: one shape with different constants on many
// goroutines (run under -race in CI) answers as the single-threaded
// fresh parses did.
func TestShapeCacheConcurrent(t *testing.T) {
	resetShapeCache()
	k := newKBQA(3)
	rng := rand.New(rand.NewSource(4))
	texts := make([]string, 40)
	wants := make([][]string, len(texts))
	for i := range texts {
		texts[i] = k.query(rng, 5*i+3)
		q, err := ParseQuery(texts[i])
		if err != nil {
			t.Fatal(err)
		}
		res, err := Execute(k.g, q)
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = canonicalRows(res)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				j := (w*7 + i) % len(texts)
				res, err := Run(k.g, texts[j])
				if err != nil {
					errs <- err.Error()
					return
				}
				if got := canonicalRows(res); strings.Join(got, "\n") != strings.Join(wants[j], "\n") {
					errs <- fmt.Sprintf("worker %d: rows differ on %s", w, texts[j])
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
}

// TestShapeCacheRandomized holds the cached path to the reference
// evaluator on the harness's random graphs and queries: each query's
// template is first filed by a variant with other constants from the
// same universe, and the query itself then runs from that template.
func TestShapeCacheRandomized(t *testing.T) {
	const refRowBudget = 60_000
	for seed := 0; seed < 12; seed++ {
		rng := rand.New(rand.NewSource(int64(100 + seed)))
		gen := newGen(rng)
		g := gen.genGraph()
		other := func(tok token) string {
			switch tok.kind {
			case tokIRIRef:
				return gen.pick(append(append([]string(nil), gen.subjects...), gen.preds...))
			case tokNumber:
				return fmt.Sprint(rng.Intn(6))
			case tokBool:
				return gen.pick([]string{"true", "false"})
			}
			return gen.pick([]string{`"a"`, `"b"`, `"a"@en`, `"z"`})
		}
		for n := 0; n < 8; n++ {
			resetShapeCache()
			src := gen.genQuery()
			variant := mutateConstants(src, other)
			if _, err := Run(g, variant); err != nil {
				t.Fatalf("variant: %v\n%s", err, variant)
			}
			checkShape(t, g, src)
			q, _ := ParseQuery(src)
			want, ok := refExecuteBudget(g, q, refRowBudget)
			if !ok {
				continue
			}
			got, err := Run(g, src)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, "shape vs reference", src, want, got)
		}
	}
}

// TestFingerprintIgnoresLayout: whitespace, comments, keyword case and
// variable sigils do not reach the key; lifted constants do not either,
// but their kinds and every other token do.
func TestFingerprintIgnoresLayout(t *testing.T) {
	key := func(src string) string {
		k, _, err := fingerprint(src, nil)
		if err != nil {
			t.Fatal(err)
		}
		return string(k)
	}
	same := [][2]string{
		{"SELECT ?x WHERE { ?x <http://e/p> 1 }", "select $x where {\n ?x <http://e/q> 2 # note\n}"},
		{`ASK { ?s ?p "a"@en }`, `ASK { ?s ?p "b"^^<http://e/dt> }`},
	}
	for _, c := range same {
		if key(c[0]) != key(c[1]) {
			t.Errorf("keys differ:\n%s\n%s", c[0], c[1])
		}
	}
	differ := [][2]string{
		{"SELECT ?x WHERE { ?x <http://e/p> 1 }", `SELECT ?x WHERE { ?x <http://e/p> "1" }`},
		{"SELECT ?x WHERE { ?x ?p 1 } LIMIT 1", "SELECT ?x WHERE { ?x ?p 1 } LIMIT 2"},
		{"PREFIX e: <http://a/> ASK { ?s e:p ?o }", "PREFIX e: <http://b/> ASK { ?s e:p ?o }"},
		{"ASK { ?s feo:p ?o }", "ASK { ?s feo:q ?o }"},
		{"SELECT ?x WHERE { ?x ?p ?o }", "SELECT ?y WHERE { ?y ?p ?o }"},
	}
	for _, c := range differ {
		if key(c[0]) == key(c[1]) {
			t.Errorf("keys alias:\n%s\n%s", c[0], c[1])
		}
	}
}
