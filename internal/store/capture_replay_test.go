package store_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/rdf"
	"repro/internal/reasoner"
	"repro/internal/store"
)

// replayVocab is a small term universe whose triples make the reasoner do
// real work: class and property hierarchies, inverses, transitivity, and
// instance data over them.
type replayVocab struct {
	rng     *rand.Rand
	classes []rdf.Term
	props   []rdf.Term
	inds    []rdf.Term
}

func newReplayVocab(rng *rand.Rand) *replayVocab {
	v := &replayVocab{rng: rng}
	name := func(kind string, i int) rdf.Term {
		return rdf.NewIRI(fmt.Sprintf("http://example.org/replay#%s%d", kind, i))
	}
	for i := 0; i < 5; i++ {
		v.classes = append(v.classes, name("C", i))
	}
	for i := 0; i < 4; i++ {
		v.props = append(v.props, name("p", i))
	}
	for i := 0; i < 10; i++ {
		v.inds = append(v.inds, name("i", i))
	}
	return v
}

func (v *replayVocab) pick(ts []rdf.Term) rdf.Term { return ts[v.rng.Intn(len(ts))] }

func (v *replayVocab) triple() rdf.Triple {
	switch v.rng.Intn(10) {
	case 0:
		return rdf.Triple{S: v.pick(v.classes), P: rdf.SubClassOfIRI, O: v.pick(v.classes)}
	case 1:
		switch v.rng.Intn(3) {
		case 0:
			return rdf.Triple{S: v.pick(v.props), P: rdf.SubPropertyOfIRI, O: v.pick(v.props)}
		case 1:
			return rdf.Triple{S: v.pick(v.props), P: rdf.InverseOfIRI, O: v.pick(v.props)}
		default:
			return rdf.Triple{S: v.pick(v.props), P: rdf.TypeIRI, O: rdf.NewIRI(rdf.OWLTransitiveProperty)}
		}
	case 2, 3, 4:
		return rdf.Triple{S: v.pick(v.inds), P: rdf.TypeIRI, O: v.pick(v.classes)}
	default:
		return rdf.Triple{S: v.pick(v.inds), P: v.pick(v.props), O: v.pick(v.inds)}
	}
}

func (v *replayVocab) graph(n int) *store.Graph {
	g := store.New()
	for i := 0; i < n; i++ {
		g.AddTriple(v.triple())
	}
	return g
}

// mutate applies one random mutation through one of the graph's mutation
// routes. With additionsOnly it never removes or clears.
func (v *replayVocab) mutate(g *store.Graph, additionsOnly bool) {
	routes := 7
	if additionsOnly {
		routes = 4
	}
	t := v.triple()
	switch v.rng.Intn(routes) {
	case 0:
		g.AddTriple(t)
	case 1:
		g.AddID(g.InternTerm(t.S), g.InternTerm(t.P), g.InternTerm(t.O))
	case 2:
		b := g.Bulk()
		for i := 0; i < 1+v.rng.Intn(4); i++ {
			t := v.triple()
			b.Add(t.S, t.P, t.O)
		}
	case 3:
		g.Merge(v.graph(1 + v.rng.Intn(4)))
	case 4:
		g.Remove(t.S, t.P, t.O)
	case 5:
		// Subtract a sample of what is there, so removals usually hit.
		sub := store.New()
		for i, t := range g.Triples() {
			if i%5 == v.rng.Intn(5) {
				sub.AddTriple(t)
			}
		}
		g.Subtract(sub)
	default:
		if v.rng.Intn(8) == 0 {
			g.Clear()
		} else {
			g.Remove(t.S, t.P, t.O)
		}
	}
}

// TestCaptureReplayRandomized drives random interleavings of every
// mutation route inside Begin…CommitDeferred transactions, each closed by
// the reasoner the way a session commit is, and checks that the one
// capture stream is exact for both of its consumers:
//
//   - the write-ahead log: replaying Changes().Ops() on a clone of the
//     Begin graph (wiped first if Cleared) lands on the live graph;
//   - any other capture over the same span records identical IDOps;
//   - the reasoner: after a commit with only additions, MaterializeChanges
//     takes the delta path and equals a from-scratch Materialize.
func TestCaptureReplayRandomized(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			v := newReplayVocab(rng)
			g := v.graph(40)
			opts := reasoner.Options{TraceDerivations: true}
			r := reasoner.New(opts)
			r.Materialize(g)
			pending := g.StartCapture() // spans runs, like core.Engine's

			for round := 0; round < 25; round++ {
				base := g.Clone()
				additionsOnly := rng.Intn(2) == 0
				tx := g.Begin()
				second := g.StartCapture()
				for i, n := 0, 1+rng.Intn(12); i < n; i++ {
					v.mutate(g, additionsOnly)
				}
				if additionsOnly {
					ref := g.Clone()
					reasoner.New(opts).Materialize(ref)
					if st := r.MaterializeChanges(g, pending); !st.Delta {
						t.Fatalf("round %d: addition-only commit did not take the delta path", round)
					}
					if !g.Equal(ref) {
						t.Fatalf("round %d: incremental closure differs from a from-scratch Materialize", round)
					}
				} else {
					r.MaterializeChanges(g, pending)
				}
				pending = g.StartCapture()
				second.Stop()
				tx.CommitDeferred()
				if rng.Intn(3) == 0 {
					g.Publish()
				}

				cs := tx.Changes()
				replay := base.Clone()
				if cs.Cleared() {
					replay.Clear()
				}
				for _, op := range cs.Ops() {
					if op.Remove {
						replay.Remove(op.T.S, op.T.P, op.T.O)
					} else {
						replay.AddTriple(op.T)
					}
				}
				if !replay.Equal(g) {
					t.Fatalf("round %d: replaying Ops (cleared=%v, %d ops) diverged from the live graph",
						round, cs.Cleared(), len(cs.IDOps()))
				}
				got, want := second.IDOps(), cs.IDOps()
				if second.Cleared() != cs.Cleared() || len(got) != len(want) {
					t.Fatalf("round %d: second capture cleared=%v len=%d, transaction cleared=%v len=%d",
						round, second.Cleared(), len(got), cs.Cleared(), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("round %d: op %d: second capture %+v, transaction %+v", round, i, got[i], want[i])
					}
				}
			}
			pending.Stop()
		})
	}
}
