package sparql

// The engine's parallelism is across requests: many goroutines call
// Execute over one graph, each with its own (unsynchronised) evalContext,
// sharing only the read-only graph and the package-level parse, plan and
// regex caches. These tests hold every operator to "an Execute running
// beside others returns what a lone Execute returns", and are what the
// race detector sees of that sharing.

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/store"
)

const parallelCallers = 4

// executeParallel runs q once alone and then from parallelCallers
// goroutines at once, against a cold plan cache so the callers also race
// to compile the plan.
func executeParallel(t *testing.T, g *store.Graph, query string) (lone *Result, beside []*Result) {
	t.Helper()
	q, err := ParseQuery(query)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if lone, err = Execute(g, q); err != nil {
		t.Fatalf("lone execute: %v", err)
	}
	ResetPlanCache()
	beside = make([]*Result, parallelCallers)
	errs := make([]error, parallelCallers)
	var wg sync.WaitGroup
	for i := range beside {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			beside[i], errs[i] = Execute(g, q)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	return lone, beside
}

// assertParallelEquivalence requires the same solution multiset and
// variable list from every parallel caller as from the lone execution.
func assertParallelEquivalence(t *testing.T, g *store.Graph, query string) {
	t.Helper()
	lone, beside := executeParallel(t, g, query)
	want := strings.Join(canonicalRows(lone), "\n")
	for i, res := range beside {
		if got := strings.Join(canonicalRows(res), "\n"); got != want {
			t.Errorf("caller %d: solutions differ\nbeside others:\n%s\nalone:\n%s", i, got, want)
		}
		if strings.Join(res.Vars, ",") != strings.Join(lone.Vars, ",") {
			t.Errorf("caller %d: vars %v != %v", i, res.Vars, lone.Vars)
		}
	}
}

func TestParallelEquivalence(t *testing.T) {
	g := testGraph(t, fixture)
	for _, tc := range operatorCorpus {
		t.Run(tc.name, func(t *testing.T) { assertParallelEquivalence(t, g, tc.query) })
	}
}

func TestParallelEquivalenceWide(t *testing.T) {
	g := buildWideGraph(300, 6)
	for _, tc := range wideCorpus {
		t.Run(tc.name, func(t *testing.T) { assertParallelEquivalence(t, g, tc.query) })
	}
}

// TestParallelAskConstruct covers the non-SELECT query kinds.
func TestParallelAskConstruct(t *testing.T) {
	g := testGraph(t, fixture)
	lone, beside := executeParallel(t, g, `PREFIX ex: <http://e/> ASK { ?p ex:likes ex:pizza }`)
	if !lone.Boolean {
		t.Error("lone ASK = false, want true")
	}
	for i, res := range beside {
		if res.Boolean != lone.Boolean {
			t.Errorf("caller %d: ASK = %v, alone %v", i, res.Boolean, lone.Boolean)
		}
	}
	lone, beside = executeParallel(t, g, `PREFIX ex: <http://e/> CONSTRUCT { ?f ex:likedBy ?p } WHERE { ?p ex:likes ?f }`)
	for i, res := range beside {
		if !res.Graph.Equal(lone.Graph) {
			t.Errorf("caller %d: CONSTRUCT graph differs from the lone execution", i)
		}
	}
}

// TestParallelOrderByDeterministic: a total ORDER BY fully determines the
// rendered table, so every caller must render it byte-identically.
func TestParallelOrderByDeterministic(t *testing.T) {
	g := buildWideGraph(200, 2)
	lone, beside := executeParallel(t, g, `SELECT ?c ?v WHERE { ?c <http://w/val> ?v } ORDER BY ?v ?c`)
	want := lone.Table()
	for i, res := range beside {
		if res.Table() != want {
			t.Errorf("caller %d: ORDER BY table not byte-identical to the lone execution", i)
		}
	}
}

// TestConcurrentExecute is the smoke test for the store's reader contract
// as a server consumes it: many goroutines execute a mix of queries
// against one shared graph under -race.
func TestConcurrentExecute(t *testing.T) {
	g := buildWideGraph(120, 4)
	queries := []string{
		`SELECT ?a ?b WHERE { ?a <http://w/next> ?b }`,
		`SELECT ?c WHERE { ?c <http://w/val> ?v . FILTER(?v < 100) }`,
		`SELECT ?x WHERE { <http://w/root> <http://w/next>+ ?x }`,
		`SELECT ?c (COUNT(?g) AS ?n) WHERE { ?c <http://w/next> ?g } GROUP BY ?c`,
	}
	parsed := make([]*Query, len(queries))
	want := make([]int, len(queries))
	for i, src := range queries {
		q, err := ParseQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		parsed[i] = q
		res, err := Execute(g, q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Len()
	}
	const goroutines = 8
	const iterations = 20
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < iterations; it++ {
				qi := (w + it) % len(parsed)
				res, err := Execute(g, parsed[qi])
				if err != nil {
					errs <- fmt.Errorf("worker %d: %v", w, err)
					return
				}
				if res.Len() != want[qi] {
					errs <- fmt.Errorf("worker %d query %d: %d rows, want %d", w, qi, res.Len(), want[qi])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
