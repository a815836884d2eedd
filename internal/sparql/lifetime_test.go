package sparql

// Plan lifetime tests: a plan lives exactly as long as the graph version
// it was compiled against, and each version's plan memo stays bounded.

import (
	"runtime"
	"testing"
	"weak"

	"repro/internal/rdf"
	"repro/internal/store"
)

// TestSupersededSnapshotCollectable: the plans compiled against a pinned
// view stay hot while it is pinned, even after a newer version publishes,
// and once the last reference to the superseded view is dropped the
// garbage collector reclaims it — no plan keeps it reachable.
func TestSupersededSnapshotCollectable(t *testing.T) {
	g := planCacheGraph()
	old := pinQueryPublish(t, g)
	runtime.GC()
	if old.Value() != nil {
		t.Fatal("superseded snapshot view still reachable after its last pin was dropped")
	}
}

// pinQueryPublish pins a view of g, plans a BGP query on it, publishes a
// newer version, checks the superseded view still hits its own plans, and
// returns a weak pointer to it. Keeping the strong references inside this
// frame leaves the caller holding none.
func pinQueryPublish(t *testing.T, g *store.Graph) weak.Pointer[store.Graph] {
	t.Helper()
	sn := g.Publish()
	view := sn.Graph()
	q, err := ParseQuery(planCacheQuery)
	if err != nil {
		t.Fatal(err)
	}
	_, misses0 := PlanCacheStats()
	if _, err := Execute(view, q); err != nil {
		t.Fatal(err)
	}
	if _, misses1 := PlanCacheStats(); misses1 == misses0 {
		t.Fatal("first execution on the view compiled no plan")
	}
	g.Add(rdf.NewIRI("http://e/new"), rdf.TypeIRI, rdf.NewIRI("http://e/C"))
	if g.Publish() == sn || !sn.Superseded() {
		t.Fatal("publish did not supersede the pinned snapshot")
	}
	hits0, _ := PlanCacheStats()
	if _, err := Execute(view, q); err != nil {
		t.Fatal(err)
	}
	if hits1, _ := PlanCacheStats(); hits1 == hits0 {
		t.Error("a pinned superseded view lost its plans")
	}
	return weak.Make(view)
}

// TestPlanCachePerGraphBound: more than planCacheMax distinct parsed BGPs
// against one graph never grow its plan memo past the cap, and a plan
// stored after the overflow purge is hit on repeat.
func TestPlanCachePerGraphBound(t *testing.T) {
	g := planCacheGraph()
	var last *Query
	for i := 0; i < planCacheMax+10; i++ {
		q, err := ParseQuery(planCacheQuery) // a fresh parse is a distinct BGP
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Execute(g, q); err != nil {
			t.Fatal(err)
		}
		if n := g.Memo(planGen.Load()).Len(); n > planCacheMax {
			t.Fatalf("plan memo holds %d plans after %d BGPs, cap %d", n, i+1, planCacheMax)
		}
		last = q
	}
	if n := g.Memo(planGen.Load()).Len(); n >= planCacheMax {
		t.Fatalf("plan memo holds %d plans: the overflow purge never ran", n)
	}
	hits0, misses0 := PlanCacheStats()
	if _, err := Execute(g, last); err != nil {
		t.Fatal(err)
	}
	if hits1, misses1 := PlanCacheStats(); hits1 == hits0 || misses1 != misses0 {
		t.Errorf("repeat after the purge did not hit (hits %d -> %d, misses %d -> %d)", hits0, hits1, misses0, misses1)
	}
}
