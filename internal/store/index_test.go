package store

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/rdf"
)

// TestSortedLevelsAgainstModel drives random adds, removes and publishes
// over levels large enough to split runs, and checks every pattern shape
// against a triple-set model: the same matches, in ascending order, with
// the same counts, and a view pinned earlier still reads its own state.
func TestSortedLevelsAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		ids := make([]ID, 3*runMax)
		for i := range ids {
			ids[i] = g.InternTerm(rdf.NewIRI(fmt.Sprintf("http://example.org/t%d", rng.Intn(1<<20))))
		}
		model := map[[3]ID]bool{}
		var pinned *Snapshot
		var pinnedModel map[[3]ID]bool
		for step := 0; step < 6000; step++ {
			s, p, o := ids[rng.Intn(8)], ids[rng.Intn(3)], ids[rng.Intn(len(ids))]
			k := [3]ID{s, p, o}
			switch rng.Intn(8) {
			case 0, 1, 2, 3, 4:
				if g.AddID(s, p, o) == model[k] {
					t.Fatalf("seed %d step %d: AddID%v disagrees with the model", seed, step, k)
				}
				model[k] = true
			case 5, 6:
				if g.removeIDs(s, p, o) != model[k] {
					t.Fatalf("seed %d step %d: removeIDs%v disagrees with the model", seed, step, k)
				}
				delete(model, k)
			default:
				pinned = g.Publish()
				pinnedModel = make(map[[3]ID]bool, len(model))
				for k := range model {
					pinnedModel[k] = true
				}
			}
			if step%50 != 0 {
				continue
			}
			checkWalks(t, g, model, s, p, o)
			if pinned != nil {
				checkWalks(t, pinned.Graph(), pinnedModel, s, p, o)
			}
		}
	}
}

func checkWalks(t *testing.T, g *Graph, model map[[3]ID]bool, s, p, o ID) {
	t.Helper()
	for _, q := range [][3]ID{
		{s, NoID, NoID}, {NoID, p, NoID}, {NoID, NoID, o}, {s, p, NoID},
		{NoID, p, o}, {s, NoID, o}, {s, p, o}, {NoID, NoID, NoID},
	} {
		var want [][3]ID
		for m := range model {
			if (q[0] == NoID || q[0] == m[0]) && (q[1] == NoID || q[1] == m[1]) && (q[2] == NoID || q[2] == m[2]) {
				want = append(want, m)
			}
		}
		var got [][3]ID
		g.ForEachID(q[0], q[1], q[2], func(a, b, c ID) bool {
			got = append(got, [3]ID{a, b, c})
			return true
		})
		// The walk order of each shape: POS shapes are predicate-major,
		// then object, then subject; the rest subject-major.
		key := func(m [3]ID) [3]ID { return m }
		if q[0] == NoID && q[1] != NoID || q[0] == NoID && q[2] != NoID {
			key = func(m [3]ID) [3]ID { return [3]ID{m[1], m[2], m[0]} }
		}
		cmp := func(a, b [3]ID) int {
			ka, kb := key(a), key(b)
			return slices.Compare(ka[:], kb[:])
		}
		if !slices.IsSortedFunc(got, cmp) {
			t.Fatalf("pattern %v walks out of order: %v", q, got)
		}
		slices.SortFunc(want, cmp)
		if !slices.Equal(got, want) || g.CountID(q[0], q[1], q[2]) != len(want) {
			t.Fatalf("pattern %v: got %d matches (count %d), want %d", q, len(got), g.CountID(q[0], q[1], q[2]), len(want))
		}
	}
}

// TestLevelWalkSurvivesWrites adds keys to a level from inside its own
// walk, as the reasoner's rules do, and checks that every key present
// before the walk is visited exactly once.
func TestLevelWalkSurvivesWrites(t *testing.T) {
	g := New()
	s := g.InternTerm(rdf.NewIRI("http://example.org/s"))
	p := g.InternTerm(rdf.NewIRI("http://example.org/p"))
	var objs []ID
	for i := 0; i < 4*runMax; i++ {
		objs = append(objs, g.InternTerm(rdf.NewIRI(fmt.Sprintf("http://example.org/o%d", i))))
	}
	for i := 0; i < len(objs); i += 2 {
		g.AddID(s, p, objs[i])
	}
	seen := map[ID]int{}
	g.ForEachID(NoID, p, NoID, func(_, _, o ID) bool {
		seen[o]++
		if i := slices.Index(objs, o); i > 0 {
			g.AddID(s, p, objs[i-1]) // lands before the cursor, shifting it
		}
		return true
	})
	for i := 0; i < len(objs); i += 2 {
		if seen[objs[i]] != 1 {
			t.Fatalf("object %d visited %d times, want once", i, seen[objs[i]])
		}
	}
}

// TestCommitPinCopiesOnlyTouched measures the bytes a commit allocates
// once a snapshot shares the graph: each cycle adds one triple under a
// predicate with n objects and n subjects, then publishes. The copies a
// write makes after a publish must track what it wrote, so the cycle
// cost may not grow with the graph: the n = 16 000 graph may allocate at
// most twice what the n = 1 000 graph does per cycle.
func TestCommitPinCopiesOnlyTouched(t *testing.T) {
	const cycles = 64
	perCycle := func(n int) float64 {
		g := New()
		p := g.InternTerm(rdf.NewIRI("http://example.org/p"))
		term := func(kind string, i int) ID {
			return g.InternTerm(rdf.NewIRI(fmt.Sprintf("http://example.org/%s%d", kind, i)))
		}
		for i := 0; i < n; i++ {
			g.AddID(term("s", i), p, term("o", i))
		}
		// Intern the cycles' terms up front: dictionary growth is not a
		// freeze cost.
		subjs, objs := make([]ID, cycles), make([]ID, cycles)
		for i := range subjs {
			subjs[i], objs[i] = term("s", n+i), term("o", n+i)
		}
		g.Publish()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < cycles; i++ {
			g.AddID(subjs[i], p, objs[i])
			g.Publish()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / cycles
	}
	small, large := perCycle(1000), perCycle(16000)
	t.Logf("bytes allocated per add-and-publish cycle: n=1000 %.0f, n=16000 %.0f", small, large)
	if large > 2*small {
		t.Fatalf("a cycle on the n=16000 graph allocates %.0f B, more than twice the n=1000 graph's %.0f B", large, small)
	}
}
