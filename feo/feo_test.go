package feo

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/store"
)

func TestSessionCQData(t *testing.T) {
	s := NewSession(Options{})
	if s.Graph().Len() == 0 {
		t.Fatal("empty session graph")
	}
	ex, err := s.Explain(Question{Type: Contextual, Primary: FEO("CauliflowerPotatoCurry")})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex.Summary, "Autumn") {
		t.Errorf("summary = %q", ex.Summary)
	}
}

func TestSessionSynthetic(t *testing.T) {
	s := NewSession(Options{Data: DataSynthetic, KG: KGConfig{
		Seed: 7, Recipes: 30, Ingredients: 25, Users: 5,
		MinIngredients: 2, MaxIngredients: 5,
		SeasonalShare: 0.5, LikesPerUser: 3, DislikesPerUser: 1,
	}})
	if s.KG() == nil {
		t.Fatal("synthetic session should expose KG")
	}
	users := s.Users()
	if len(users) != 5 {
		t.Fatalf("users = %d", len(users))
	}
	recs := s.Recommend(users[0], 3)
	if len(recs) == 0 {
		t.Fatal("no recommendations")
	}
	ex, err := s.Explain(Question{Type: Contextual, Primary: recs[0].Recipe})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Summary == "" {
		t.Error("empty explanation for synthetic recommendation")
	}
}

func TestSessionQuery(t *testing.T) {
	s := NewSession(Options{})
	res, err := s.Query(`SELECT ?q WHERE { ?q a feo:FoodQuestion }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 {
		t.Errorf("question count = %d, want 3 (CQ1-CQ3)", res.Len())
	}
}

func TestSessionLoadTurtle(t *testing.T) {
	s := NewSession(Options{Data: DataNone})
	err := s.LoadTurtle(`
@prefix feo:  <https://purl.org/heals/feo#> .
@prefix food: <http://purl.org/heals/food/> .
feo:Mango a food:Ingredient .
`)
	if err != nil {
		t.Fatal(err)
	}
	// Re-materialization classifies the new instance (isInternal via
	// food:Ingredient's hasValue restriction).
	res, err := s.Query(`ASK { feo:Mango feo:isInternal true }`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Boolean {
		t.Error("loaded instance not classified after LoadTurtle")
	}
	if err := s.LoadTurtle("@@@ bad turtle"); err == nil {
		t.Error("bad turtle should error")
	}
}

func TestSessionGroupRecommend(t *testing.T) {
	s := NewSession(Options{Data: DataSynthetic, KG: KGConfig{
		Seed: 9, Recipes: 20, Ingredients: 15, Users: 4,
		MinIngredients: 2, MaxIngredients: 4,
		LikesPerUser: 2, DislikesPerUser: 1, AllergyRate: 1.0,
	}})
	users := s.Users()
	recs := s.RecommendGroup(users[:2], 5)
	if len(recs) == 0 {
		t.Fatal("no group recommendations")
	}
}

func TestSessionWriteTurtle(t *testing.T) {
	s := NewSession(Options{Data: DataNone})
	var sb strings.Builder
	if err := s.WriteTurtle(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "feo:Characteristic") {
		t.Error("serialized TBox missing FEO classes")
	}
	if !strings.Contains(s.Stats(), "triples=") {
		t.Error("Stats should render")
	}
}

func TestSessionUpdate(t *testing.T) {
	s := NewSession(Options{Data: DataNone})
	res, err := s.Update(`
INSERT DATA {
  feo:Mango a <http://purl.org/heals/food/Ingredient> .
  feo:MangoSalad a <http://purl.org/heals/food/Recipe> ;
      feo:hasIngredient feo:Mango .
}`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted != 3 {
		t.Errorf("inserted = %d, want 3", res.Inserted)
	}
	// Re-materialization must have closed the inverse.
	ask, err := s.Query(`ASK { feo:Mango feo:isIngredientOf feo:MangoSalad }`)
	if err != nil {
		t.Fatal(err)
	}
	if !ask.Boolean {
		t.Error("update did not trigger re-materialization")
	}
	if _, err := s.Update("NONSENSE"); err == nil {
		t.Error("bad update should error")
	}
}

func TestSessionValidate(t *testing.T) {
	s := NewSession(Options{})
	if incs := s.Validate(); len(incs) != 0 {
		t.Fatalf("CQ datasets must be consistent, got %v", incs)
	}
	// Inject a violation: a season that is also a food.
	_, err := s.Update(`INSERT DATA { feo:Autumn a <http://purl.org/heals/food/Food> }`)
	if err != nil {
		t.Fatal(err)
	}
	incs := s.Validate()
	if len(incs) == 0 {
		t.Error("disjointness violation not detected")
	}
}

func TestSessionExplainTriple(t *testing.T) {
	s := NewSession(Options{})
	// The closure triple from CQ1 must have a derivation proof.
	steps := s.ExplainTriple(
		FEO("CauliflowerPotatoCurry"), FEO("hasCharacteristic"), FEO("Autumn"))
	if len(steps) == 0 {
		t.Fatal("no proof for inferred closure triple")
	}
	last := steps[len(steps)-1]
	if last.Rule == "asserted" {
		t.Error("closure triple should be inferred, not asserted")
	}
	sawAsserted := false
	for _, st := range steps {
		if st.Rule == "asserted" {
			sawAsserted = true
		}
	}
	if !sawAsserted {
		t.Error("proof should ground out in asserted triples")
	}
}

func TestSessionRDFXMLRoundTrip(t *testing.T) {
	s := NewSession(Options{Data: DataNone})
	var sb strings.Builder
	if err := s.WriteRDFXML(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Characteristic") {
		t.Error("RDF/XML export missing FEO classes")
	}
	s2 := NewSession(Options{Data: DataNone})
	before := s2.Graph().Len()
	if err := s2.LoadRDFXML(strings.NewReader(sb.String())); err != nil {
		t.Fatal(err)
	}
	// Loading the same TBox back should add nothing new except blank-node
	// renamed restriction structures; the graph must at least not shrink
	// and queries must still work.
	if s2.Graph().Len() < before {
		t.Error("round-trip lost triples")
	}
	res, err := s2.Query(`ASK { feo:SeasonCharacteristic rdfs:subClassOf feo:SystemCharacteristic }`)
	if err != nil || !res.Boolean {
		t.Error("hierarchy lost through RDF/XML round trip")
	}
}

// TestSessionPrefixesSurviveWALRecovery pins that prefix declarations are
// durable without a compaction: a commit that changes the prefix table
// logs it, and WAL replay restores it, so both serializations of the
// recovered session match the live one. The RDF/XML parser declares no
// prefixes, so its case checks that an RDF/XML commit after a Turtle one
// leaves the logged table intact.
func TestSessionPrefixesSurviveWALRecovery(t *testing.T) {
	const rdfxmlDoc = `<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#" xmlns:ex="http://xx.example/">
  <rdf:Description rdf:about="http://xx.example/a"><ex:p rdf:resource="http://xx.example/b"/></rdf:Description>
</rdf:RDF>`
	cases := []struct {
		name string
		load func(*Session) error
	}{
		{"turtle", func(s *Session) error {
			// A document that only declares a prefix commits no triple.
			if err := s.LoadTurtle("@prefix yy: <http://yy.example/> ."); err != nil {
				return err
			}
			return s.LoadTurtle("@prefix zz: <http://zz.example/> . zz:a zz:p zz:b .")
		}},
		{"rdfxml", func(s *Session) error {
			if err := s.LoadTurtle("@prefix zz: <http://zz.example/> . zz:a zz:p zz:b ."); err != nil {
				return err
			}
			return s.LoadRDFXML(strings.NewReader(rdfxmlDoc))
		}},
	}
	dump := func(t *testing.T, s *Session) string {
		t.Helper()
		var ttl, xml strings.Builder
		if err := s.WriteTurtle(&ttl); err != nil {
			t.Fatal(err)
		}
		if err := s.WriteRDFXML(&xml); err != nil {
			t.Fatal(err)
		}
		return ttl.String() + xml.String()
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(Options{Data: DataNone, DataDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.load(s); err != nil {
				t.Fatal(err)
			}
			want := dump(t, s)
			if !strings.Contains(want, "@prefix zz: <http://zz.example/>") {
				t.Fatalf("live Turtle lacks the declared prefix:\n%.300s", want)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s2, err := Open(Options{DataDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			if !s2.Replayed() {
				t.Fatal("reopened session did not replay")
			}
			if got := dump(t, s2); got != want {
				t.Fatalf("recovered serialization differs:\n got %.400s\nwant %.400s", got, want)
			}
		})
	}
}

// TestPanickingWriteKeepsWriterUsable runs a write whose op adds a
// triple and then panics. The panic comes back as the op's error, and the
// commit is logged and closed like a failed op: the next write and a read
// of live state both return, and a durable session recovers the triple.
func TestPanickingWriteKeepsWriterUsable(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Data: DataNone, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	sub, pred, obj := IRI("http://e/s"), IRI("http://e/p"), IRI("http://e/o")
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("commitWrite panicked: %v", r)
			}
		}()
		err = s.commitWrite(func(*store.Txn) error {
			s.graph.Add(sub, pred, obj)
			panic("op failed mid-write")
		})
	}()
	if err == nil || !strings.Contains(err.Error(), "op failed mid-write") {
		t.Errorf("commitWrite error = %v, want the panic", err)
	}
	done := make(chan error, 1)
	go func() {
		err := s.LoadTurtle("<http://e/a> <http://e/p> <http://e/b> .")
		s.ReasonerInferred()
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("LoadTurtle after the panic: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the writer is wedged after a panicking op")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for _, q := range []string{`ASK { <http://e/s> <http://e/p> <http://e/o> }`, `ASK { <http://e/a> <http://e/p> <http://e/b> }`} {
		res, err := s2.Query(q)
		if err != nil || !res.Boolean {
			t.Errorf("reopened session: %s = %v, %v", q, res, err)
		}
	}
}

// TestSessionConcurrentQuery guards the public concurrency contract: a
// materialized Session serves Query from many goroutines at once.
func TestSessionConcurrentQuery(t *testing.T) {
	s := NewSession(Options{})
	const query = `SELECT ?c WHERE { feo:CauliflowerPotatoCurry feo:hasCharacteristic ?c }`
	ref, err := s.Query(query)
	if err != nil {
		t.Fatalf("reference query: %v", err)
	}
	if ref.Len() == 0 {
		t.Fatal("reference query returned no rows")
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				res, err := s.Query(query)
				if err != nil {
					errs <- err
					return
				}
				if res.Len() != ref.Len() {
					errs <- fmt.Errorf("concurrent query returned %d rows, want %d", res.Len(), ref.Len())
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestQueryPlanCacheStats: repeated session queries hit the memoized
// plans; loading data invalidates them (the graph version moves).
func TestQueryPlanCacheStats(t *testing.T) {
	ResetQueryPlanCache()
	s := NewSession(Options{})
	const q = `SELECT ?c WHERE { ?c a feo:Characteristic }`
	if _, err := s.Query(q); err != nil {
		t.Fatal(err)
	}
	hits0, misses0 := QueryPlanCacheStats()
	if misses0 == 0 {
		t.Fatal("first query should compile a plan")
	}
	if _, err := s.Query(q); err != nil {
		t.Fatal(err)
	}
	hits1, misses1 := QueryPlanCacheStats()
	if hits1 <= hits0 || misses1 != misses0 {
		t.Errorf("repeat query should hit, not recompile (hits %d->%d, misses %d->%d)",
			hits0, hits1, misses0, misses1)
	}
	if err := s.LoadTurtle(`<http://e/x> <http://e/p> <http://e/y> .`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query(q); err != nil {
		t.Fatal(err)
	}
	_, misses2 := QueryPlanCacheStats()
	if misses2 <= misses1 {
		t.Error("query after LoadTurtle must recompile (version bumped)")
	}
	ResetQueryPlanCache()
	if h, m := QueryPlanCacheStats(); h != 0 || m != 0 {
		t.Errorf("reset did not zero counters: %d/%d", h, m)
	}
}

// TestSessionUpdateStaleInferred: deleting a premise of a traced
// derivation is surfaced in UpdateResult instead of silently serving
// stale proofs (materialization stays monotonic).
func TestSessionUpdateStaleInferred(t *testing.T) {
	s := NewSession(Options{Data: DataNone})
	if _, err := s.Update(`
INSERT DATA {
  feo:Mango a <http://purl.org/heals/food/Ingredient> .
  feo:MangoSalad a <http://purl.org/heals/food/Recipe> ;
      feo:hasIngredient feo:Mango .
}`); err != nil {
		t.Fatal(err)
	}
	// The insert closed feo:Mango feo:isIngredientOf feo:MangoSalad via the
	// inverse axiom. Deleting the premise leaves that inference stale.
	res, err := s.Update(`DELETE DATA { feo:MangoSalad feo:hasIngredient feo:Mango . }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deleted != 1 {
		t.Fatalf("deleted = %d, want 1", res.Deleted)
	}
	if len(res.StaleInferred) == 0 {
		t.Fatal("deleting a traced premise must surface stale inferences")
	}
	found := false
	for _, tr := range res.StaleInferred {
		if tr.S == FEO("Mango") && tr.P == FEO("isIngredientOf") && tr.O == FEO("MangoSalad") {
			found = true
		}
	}
	if !found {
		t.Errorf("stale list %v should include the inverse inference", res.StaleInferred)
	}
	if !strings.Contains(res.String(), "stale") {
		t.Errorf("UpdateResult.String should mention staleness: %q", res.String())
	}
	// The stale inference is still present (monotonic), and an unrelated
	// update reports nothing stale.
	ask, err := s.Query(`ASK { feo:Mango feo:isIngredientOf feo:MangoSalad }`)
	if err != nil || !ask.Boolean {
		t.Error("monotonic behavior lost: inference was retracted")
	}
	res2, err := s.Update(`INSERT DATA { feo:Papaya a <http://purl.org/heals/food/Ingredient> . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.StaleInferred) != 0 {
		t.Errorf("addition-only update flagged stale inferences: %v", res2.StaleInferred)
	}
}

// TestUpdateDeleteKeepsClosure: a deletes-only Update re-materializes, so
// deleting an inferred triple whose premise is still asserted does not
// leave the served graph unclosed: the triple is derived again.
func TestUpdateDeleteKeepsClosure(t *testing.T) {
	s := NewSession(Options{Data: DataNone})
	if _, err := s.Update(`INSERT DATA { feo:MangoSalad feo:hasIngredient feo:Mango . }`); err != nil {
		t.Fatal(err)
	}
	const ask = `ASK { feo:Mango feo:isIngredientOf feo:MangoSalad }`
	if res, err := s.Query(ask); err != nil || !res.Boolean {
		t.Fatalf("insert did not infer the inverse triple (err %v)", err)
	}
	res, err := s.Update(`DELETE DATA { feo:Mango feo:isIngredientOf feo:MangoSalad . }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deleted != 1 || res.Inserted != 0 {
		t.Fatalf("deleted=%d inserted=%d, want 1/0", res.Deleted, res.Inserted)
	}
	if res, err := s.Query(ask); err != nil || !res.Boolean {
		t.Errorf("after a deletes-only update the graph is not closed: %s is false (err %v)", ask, err)
	}
}

// TestSessionPartialLoadClosure: a load that fails part-way still commits
// the triples that landed before the syntax error, so it must also close
// them. Otherwise readers see an asserted fact without its consequences
// until some later write happens to re-materialize.
func TestSessionPartialLoadClosure(t *testing.T) {
	for _, tc := range []struct {
		name string
		load func(*Session) error
	}{
		{"turtle", func(s *Session) error {
			return s.LoadTurtle(`
@prefix ex:   <http://example.org/partial#> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
ex:A rdfs:subClassOf ex:B .
ex:x a ex:A .
ex:y ex:p @@@ broken
`)
		}},
		{"rdfxml", func(s *Session) error {
			return s.LoadRDFXML(strings.NewReader(`<?xml version="1.0"?>
<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
         xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#">
  <rdf:Description rdf:about="http://example.org/partial#A">
    <rdfs:subClassOf rdf:resource="http://example.org/partial#B"/>
  </rdf:Description>
  <rdf:Description rdf:about="http://example.org/partial#x">
    <rdf:type rdf:resource="http://example.org/partial#A"/>
  </rdf:Description>
  <rdf:Description rdf:about="http://example.org/partial#y">
    <broken
`))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSession(Options{Data: DataNone})
			if err := tc.load(s); err == nil {
				t.Fatal("malformed document must fail to load")
			}
			for _, q := range []string{
				`ASK { <http://example.org/partial#x> a <http://example.org/partial#A> }`,
				`ASK { <http://example.org/partial#x> a <http://example.org/partial#B> }`,
			} {
				res, err := s.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Boolean {
					t.Errorf("after a partial load, %s is false", q)
				}
			}
		})
	}
}
