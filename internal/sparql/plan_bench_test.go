package sparql

// Benchmarks for the two PR-4 engine properties the bench gate enforces:
// solution materialization cost (the ID-row pipeline allocates exactly
// one Solution map per projected result row — allocs/op is the headline
// number) and the plan cache (cold compiles per execution, warm reuses
// the memoized join order / fused runs — the warm/cold ns/op gap is the
// cache's value on the serve-time steady state of repeated queries).

import (
	"io"
	"math/rand"
	"testing"
)

// BenchmarkMaterializeSolutions runs a join that produces thousands of
// rows and projects two variables per row. With the end-to-end ID
// pipeline, the join pushes scratch []store.ID rows; the Solution maps
// appear exactly once per row, in Execute's sink.
func BenchmarkMaterializeSolutions(b *testing.B) {
	g := buildWideGraph(400, 8)
	q, err := ParseQuery(`SELECT ?a ?b WHERE { ?a <http://w/next> ?b . ?b <http://w/val> ?v }`)
	if err != nil {
		b.Fatal(err)
	}
	res, err := Execute(g, q)
	if err != nil || res.Len() == 0 {
		b.Fatalf("rows=%d err=%v", res.Len(), err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Execute(g, q); err != nil {
			b.Fatal(err)
		}
	}
}

// planBenchQuery anchors five patterns at one subject, so execution
// touches a handful of rows while compilation still counts, orders, and
// fuses a real pattern list — the shape where the plan cache's value is
// visible (a serve-time request stream re-running a selective query).
const planBenchQuery = `SELECT ?v ?w WHERE { <http://w/c3> a <http://w/Node> . <http://w/c3> <http://w/val> ?v . <http://w/c3> <http://w/next> ?g . ?g <http://w/val> ?w . FILTER(?w >= 0) }`

func BenchmarkPlanCacheCold(b *testing.B) {
	g := buildWideGraph(64, 2)
	q, err := ParseQuery(planBenchQuery)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ResetPlanCache()
		if _, err := Execute(g, q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanCacheWarm(b *testing.B) {
	g := buildWideGraph(64, 2)
	q, err := ParseQuery(planBenchQuery)
	if err != nil {
		b.Fatal(err)
	}
	ResetPlanCache()
	if _, err := Execute(g, q); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Execute(g, q); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if hits, _ := PlanCacheStats(); hits == 0 {
		b.Fatal("warm benchmark never hit the plan cache")
	}
}

// BenchmarkPlanCacheShapes streams distinct texts of the five kbqa_lookup
// shapes — one template, many constants — into the JSON writer, the way
// /sparql serves them. No text repeats within a pass of the list, so a
// text-keyed cache would miss on every one; the shape cache and the plan
// memo key on the constant-free fingerprint instead.
func BenchmarkPlanCacheShapes(b *testing.B) {
	k := newKBQA(1)
	rng := rand.New(rand.NewSource(1))
	seen := make(map[string]bool)
	var texts []string
	for i := 0; len(texts) < 2000; i++ {
		if q := k.query(rng, i); !seen[q] {
			seen[q] = true
			texts = append(texts, q)
		}
	}
	resetShapeCache()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunStream(k.g, texts[i%len(texts)], NewJSONWriter(io.Discard), StreamOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
