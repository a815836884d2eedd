package store

import (
	"cmp"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/rdf"
)

// TestPatternShapeOracle checks all eight triple-pattern shapes against a
// brute-force filter of a plain triple set: the triples ForEach and
// ForEachID visit, CountID, Count, Exists, MatchSetID, Objects, Subjects,
// Predicates, and that every walk stops when its callback returns false.
// It runs on the live graph after interleaved adds and removes and on
// pinned snapshot views after later commits.
func TestPatternShapeOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var res []rdf.Term // subjects, predicates and objects
	for i := 0; i < 8; i++ {
		res = append(res, iri(fmt.Sprintf("t%d", i)))
	}
	objs := append(slices.Clone(res), rdf.NewLiteral("lit"), rdf.NewTypedLiteral("7", rdf.XSDInteger))
	// Patterns also name a term no triple ever holds.
	absent := iri("absent")
	pick := func(ts []rdf.Term) rdf.Term { return ts[rng.Intn(len(ts))] }
	random := func() rdf.Triple { return rdf.Triple{S: pick(res), P: pick(res[:5]), O: pick(objs)} }

	type pinned struct {
		snap  *Snapshot
		model map[rdf.Triple]bool
	}
	g := New()
	model := map[rdf.Triple]bool{}
	var pins []pinned
	for round := 0; round < 40; round++ {
		tx := g.Begin()
		for k := 0; k < 25; k++ {
			tr := random()
			if rng.Intn(3) == 0 {
				if g.Remove(tr.S, tr.P, tr.O) != model[tr] {
					t.Fatalf("round %d: Remove(%v) disagrees with the model", round, tr)
				}
				delete(model, tr)
			} else {
				if g.AddTriple(tr) == model[tr] {
					t.Fatalf("round %d: Add(%v) disagrees with the model", round, tr)
				}
				model[tr] = true
			}
		}
		tx.Commit()
		pool := append(slices.Clone(objs), absent)
		checkShapes(t, fmt.Sprintf("round %d live", round), g, model, rng, pool)
		if round%5 == 0 {
			pins = append(pins, pinned{g.Snapshot(), maps.Clone(model)})
		}
		if round%3 != 2 {
			continue
		}
		for i, p := range pins {
			checkShapes(t, fmt.Sprintf("round %d pin %d", round, i), p.snap.Graph(), p.model, rng, pool)
		}
	}
}

// checkShapes compares g against model on 12 random patterns of each of
// the eight shapes, drawing bound terms from pool.
func checkShapes(t *testing.T, ctx string, g *Graph, model map[rdf.Triple]bool, rng *rand.Rand, pool []rdf.Term) {
	t.Helper()
	for shape := 0; shape < 8; shape++ {
		for k := 0; k < 12; k++ {
			var pat [3]rdf.Term
			for pos := range pat {
				if shape&(4>>pos) != 0 {
					pat[pos] = pool[rng.Intn(len(pool))]
				}
			}
			checkPattern(t, ctx, g, model, pat)
		}
	}
}

func checkPattern(t *testing.T, ctx string, g *Graph, model map[rdf.Triple]bool, pat [3]rdf.Term) {
	t.Helper()
	s, p, o := pat[0], pat[1], pat[2]
	ctx = fmt.Sprintf("%s: pattern (%v %v %v)", ctx, s, p, o)
	matches := func(pos int, term rdf.Term) bool { return !pat[pos].IsValid() || pat[pos] == term }
	var want []rdf.Triple
	for tr := range model {
		if matches(0, tr.S) && matches(1, tr.P) && matches(2, tr.O) {
			want = append(want, tr)
		}
	}
	sortTriples(want)

	got := g.Match(s, p, o)
	sortTriples(got)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: Match = %v, want %v", ctx, got, want)
	}
	if n := g.Count(s, p, o); n != len(want) {
		t.Fatalf("%s: Count = %d, want %d", ctx, n, len(want))
	}
	if e := g.Exists(s, p, o); e != (len(want) > 0) {
		t.Fatalf("%s: Exists = %v, want %v", ctx, e, len(want) > 0)
	}
	calls := 0
	g.ForEach(s, p, o, func(rdf.Triple) bool { calls++; return false })
	if want := min(len(want), 1); calls != want {
		t.Fatalf("%s: ForEach visited %d triples after its callback returned false, want %d", ctx, calls, want)
	}

	// Term-level two-bound accessors return the free position, term-sorted.
	free := func(pos int) []rdf.Term {
		out := []rdf.Term{}
		for _, tr := range want {
			out = append(out, [3]rdf.Term{tr.S, tr.P, tr.O}[pos])
		}
		return out
	}
	sB, pB, oB := s.IsValid(), p.IsValid(), o.IsValid()
	switch {
	case sB && pB && !oB:
		if got := g.Objects(s, p); !slices.Equal(got, free(2)) {
			t.Fatalf("%s: Objects = %v, want %v", ctx, got, free(2))
		}
	case !sB && pB && oB:
		if got := g.Subjects(p, o); !slices.Equal(got, free(0)) {
			t.Fatalf("%s: Subjects = %v, want %v", ctx, got, free(0))
		}
	case sB && !pB && oB:
		if got := g.Predicates(s, o); !slices.Equal(got, free(1)) {
			t.Fatalf("%s: Predicates = %v, want %v", ctx, got, free(1))
		}
	}

	// The ID level, when every bound term is in the dictionary.
	ids := [3]ID{NoID, NoID, NoID}
	for pos, term := range pat {
		if !term.IsValid() {
			continue
		}
		id, ok := g.LookupID(term)
		if !ok {
			if len(want) != 0 {
				t.Fatalf("%s: a bound term is unknown but %d triples match", ctx, len(want))
			}
			return
		}
		ids[pos] = id
	}
	var gotIDs []IDTriple
	g.ForEachID(ids[0], ids[1], ids[2], func(s, p, o ID) bool {
		gotIDs = append(gotIDs, IDTriple{s, p, o})
		return true
	})
	// (?, ?, o) walks predicates, then subjects, in ascending ID order.
	if !sB && !pB && oB && !slices.IsSortedFunc(gotIDs, func(a, b IDTriple) int {
		return cmp.Or(cmp.Compare(a.P, b.P), cmp.Compare(a.S, b.S))
	}) {
		t.Fatalf("%s: ForEachID(?, ?, o) is not in (predicate, subject) ID order: %v", ctx, gotIDs)
	}
	decoded := make([]rdf.Triple, 0, len(gotIDs))
	for _, id := range gotIDs {
		decoded = append(decoded, rdf.Triple{S: g.TermOf(id.S), P: g.TermOf(id.P), O: g.TermOf(id.O)})
	}
	sortTriples(decoded)
	if !slices.Equal(decoded, want) {
		t.Fatalf("%s: ForEachID = %v, want %v", ctx, decoded, want)
	}
	if n := g.CountID(ids[0], ids[1], ids[2]); n != len(want) {
		t.Fatalf("%s: CountID = %d, want %d", ctx, n, len(want))
	}
	calls = 0
	g.ForEachID(ids[0], ids[1], ids[2], func(s, p, o ID) bool { calls++; return calls < 2 })
	if want := min(len(want), 2); calls != want {
		t.Fatalf("%s: ForEachID visited %d triples with a callback that stops at 2, want %d", ctx, calls, want)
	}
	set := g.MatchSetID(ids[0], ids[1], ids[2])
	twoBound := (sB && pB && !oB) || (!sB && pB && oB) || (sB && !pB && oB)
	if !twoBound {
		if set != nil {
			t.Fatalf("%s: MatchSetID of a shape without exactly two bound positions = %v, want nil", ctx, set.AppendTo(nil))
		}
		return
	}
	pos := 2
	if !sB {
		pos = 0
	} else if !pB {
		pos = 1
	}
	var members []rdf.Term
	set.ForEach(func(id ID) bool { members = append(members, g.TermOf(id)); return true })
	sortTerms(members)
	if wantFree := free(pos); !slices.Equal(members, wantFree) {
		t.Fatalf("%s: MatchSetID = %v, want %v", ctx, members, wantFree)
	}
}

func sortTriples(ts []rdf.Triple) { slices.SortFunc(ts, compareTriples) }
