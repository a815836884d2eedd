package store

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/rdf"
)

func miri(n int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://x/%d", n)) }

// randomTriple draws from a small term universe so adds collide with
// existing triples and removes usually hit.
func randomTriple(rng *rand.Rand, universe int) (s, p, o rdf.Term) {
	return miri(rng.Intn(universe)), miri(universe + rng.Intn(8)), miri(rng.Intn(universe))
}

// TestSnapshotIsolationRandomized is the core MVCC contract check: a
// pinned snapshot observes exactly its publish-time state — bit for bit,
// across every read path — no matter what transaction stream the writer
// runs afterwards.
func TestSnapshotIsolationRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := New()
	for i := 0; i < 400; i++ {
		g.Add(randomTriple(rng, 60))
	}

	type pinned struct {
		snap   *Snapshot
		expect *Graph // deep clone at publish time
		bytes  []byte // serialized form at publish time
	}
	var pins []pinned
	pin := func() {
		snap := g.Publish()
		p := pinned{snap: snap, expect: g.Clone(), bytes: snapshotBytes(t, snap.Graph())}
		pins = append(pins, p)
	}
	check := func(round int) {
		for i, p := range pins {
			view := p.snap.Graph()
			if view.Version() != p.snap.Version() {
				t.Fatalf("round %d: pin %d version drifted: %d != %d",
					round, i, view.Version(), p.snap.Version())
			}
			if !view.Equal(p.expect) {
				t.Fatalf("round %d: pin %d no longer equals its publish-time clone", round, i)
			}
			if got := snapshotBytes(t, view); string(got) != string(p.bytes) {
				t.Fatalf("round %d: pin %d serialization changed", round, i)
			}
		}
	}

	pin()
	for round := 0; round < 30; round++ {
		tx := g.Begin()
		for k := 0; k < 25; k++ {
			if rng.Intn(3) == 0 {
				g.Remove(randomTriple(rng, 60))
			} else {
				g.Add(randomTriple(rng, 60))
			}
		}
		tx.Commit()
		check(round)
		// The fresh pin must see the committed state exactly.
		if fresh := g.Snapshot(); !fresh.Graph().Equal(g) {
			t.Fatalf("round %d: fresh pin does not equal the live graph", round)
		}
		if round%5 == 0 {
			pin()
		}
	}
}

// TestSnapshotSurvivesClear: Clear wipes the live graph (and its
// dictionary) but published snapshots keep reading their own state.
func TestSnapshotSurvivesClear(t *testing.T) {
	g := New()
	for i := 0; i < 50; i++ {
		g.Add(miri(i), miri(100), miri(i+1))
	}
	expect := g.Clone()
	snap := g.Publish()
	g.Clear()
	if g.Len() != 0 {
		t.Fatalf("live graph not cleared")
	}
	if !snap.Graph().Equal(expect) {
		t.Fatalf("snapshot lost state across Clear")
	}
}

// TestSnapshotCOWEdgeCases drives the container-level copy-on-write
// through its representation changes: array containers growing in place,
// the array→bitmap promotion past 4096 entries, removes that splice
// arrays and clear bitmap words, and the bitmap→array demotion.
func TestSnapshotCOWEdgeCases(t *testing.T) {
	g := New()
	s, p := rdf.NewIRI("http://x/s"), rdf.NewIRI("http://x/p")
	// One dense predicate: 5000 objects under a single (s,p) forces the
	// object set through array growth and into a bitmap container.
	for i := 0; i < 5000; i++ {
		g.Add(s, p, miri(i))
	}
	expect := g.Clone()
	snap := g.Publish()

	// Mutate the SAME set post-publish: every add/remove must unshare the
	// touched container instead of writing into the snapshot's storage.
	for i := 0; i < 5000; i += 2 {
		g.Remove(s, p, miri(i)) // drains the bitmap back toward array range
	}
	for i := 6000; i < 6100; i++ {
		g.Add(s, p, miri(i))
	}
	if !snap.Graph().Equal(expect) {
		t.Fatalf("snapshot changed under container representation churn")
	}
	if got := snap.Graph().Count(s, p, Wildcard); got != 5000 {
		t.Fatalf("snapshot object count = %d, want 5000", got)
	}
	if got := g.Count(s, p, Wildcard); got != 2500+100 {
		t.Fatalf("live object count = %d, want %d", got, 2600)
	}
}

// TestFrozenViewPanics: every mutation route on a frozen snapshot view
// must panic rather than corrupt the published version.
func TestFrozenViewPanics(t *testing.T) {
	g := New()
	g.Add(miri(1), miri(2), miri(3))
	view := g.Publish().Graph()
	for name, fn := range map[string]func(){
		"Add":          func() { view.Add(miri(4), miri(5), miri(6)) },
		"Remove":       func() { view.Remove(miri(1), miri(2), miri(3)) },
		"Clear":        func() { view.Clear() },
		"InternTerm":   func() { view.InternTerm(miri(9)) },
		"Begin":        func() { view.Begin() },
		"Publish":      func() { view.Publish() },
		"StartCapture": func() { view.StartCapture() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on frozen view did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestSnapshotSuperseded tracks the eviction-ranking signal: a snapshot
// reports superseded exactly once a newer version publishes.
func TestSnapshotSuperseded(t *testing.T) {
	g := New()
	g.Add(miri(1), miri(2), miri(3))
	s1 := g.Publish()
	if s1.Superseded() {
		t.Fatalf("fresh snapshot already superseded")
	}
	g.Add(miri(4), miri(5), miri(6))
	s2 := g.Publish()
	if !s1.Superseded() {
		t.Fatalf("old snapshot not marked superseded")
	}
	if s2.Superseded() {
		t.Fatalf("latest snapshot marked superseded")
	}
	if got := g.Snapshot(); got != s2 {
		t.Fatalf("Snapshot() did not return the latest publish")
	}
	if got := s1.Graph().Snapshot(); got != s1 {
		t.Fatalf("frozen view's Snapshot() did not return its own pin")
	}
}

// TestConcurrentSnapshotReaders is the -race harness for the whole MVCC
// design: one writer commits transactions in a loop while many readers
// pin snapshots and hammer every read path. The race detector proves the
// epoch/COW discipline — any live-write into shared storage, or any
// unsynchronized dictionary access, fails the run; the assertions prove
// each pinned view is internally consistent (its length never changes
// between passes).
func TestConcurrentSnapshotReaders(t *testing.T) {
	g := New()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		g.Add(randomTriple(rng, 40))
	}
	g.Publish()

	const (
		writers  = 1 // single-writer protocol
		readers  = 4
		commits  = 80
		perTx    = 12
		universe = 40
	)
	var stop atomic.Bool
	var wg sync.WaitGroup

	wg.Add(writers)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		wrng := rand.New(rand.NewSource(13))
		for c := 0; c < commits; c++ {
			tx := g.Begin()
			for k := 0; k < perTx; k++ {
				if wrng.Intn(4) == 0 {
					g.Remove(randomTriple(wrng, universe))
				} else {
					g.Add(randomTriple(wrng, universe))
				}
			}
			tx.Commit()
		}
	}()

	errCh := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rrng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				snap := g.Snapshot()
				view := snap.Graph()
				n1 := view.Len()
				count := 0
				view.ForEach(Wildcard, Wildcard, Wildcard, func(rdf.Triple) bool {
					count++
					return true
				})
				if count != n1 {
					errCh <- fmt.Errorf("pinned view inconsistent: Len=%d iterated=%d", n1, count)
					return
				}
				// Exercise the indexed paths too.
				s := miri(rrng.Intn(universe))
				view.Objects(s, miri(universe))
				view.TypesOf(s)
				view.Statistics()
				if view.Len() != n1 {
					errCh <- fmt.Errorf("pinned view length moved %d -> %d", n1, view.Len())
					return
				}
			}
		}(int64(100 + r))
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}

// TestDeferredCommitVisibility: CommitDeferred retains the transaction's
// state privately — existing pins and new pins keep seeing the published
// version — until the next Publish exposes the accumulated burst at once.
func TestDeferredCommitVisibility(t *testing.T) {
	g := New()
	g.Add(miri(1), miri(2), miri(3))
	s1 := g.Publish()

	for i := 0; i < 5; i++ {
		tx := g.Begin()
		g.Add(miri(10+i), miri(2), miri(3))
		tx.CommitDeferred()
		if got := g.Snapshot(); got != s1 {
			t.Fatalf("deferred commit %d published a snapshot", i)
		}
	}
	if s1.Graph().Len() != 1 {
		t.Fatalf("deferred burst leaked into the pinned view: len=%d", s1.Graph().Len())
	}
	s2 := g.Publish()
	if s2 == s1 || s2.Graph().Len() != 6 {
		t.Fatalf("publish after burst: snap=%p len=%d, want fresh len=6", s2, s2.Graph().Len())
	}
	if !s1.Superseded() {
		t.Fatalf("old snapshot not superseded by the burst publish")
	}
	// A transaction that mutates nothing burns no version and mints no
	// snapshot.
	if s3 := g.Begin().Commit(); s3 != s2 {
		t.Fatalf("empty commit minted a new snapshot")
	}
}
