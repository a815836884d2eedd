package feo

import (
	"fmt"
	"io"

	"repro/internal/healthcoach"
	"repro/internal/ontology"
	"repro/internal/rdfxml"
	"repro/internal/reasoner"
	"repro/internal/sparql"
	"repro/internal/store"
	"repro/internal/turtle"
)

// Snapshot is a pinned, immutable read view of a Session: one published
// version of the materialized graph, plus a Health Coach bound to it.
// Every method reads exactly the pinned version, no matter how many
// commits land concurrently, and takes no lock — a Snapshot never blocks
// a writer and is never blocked by one.
//
// Pinning is an atomic dirty-check plus an atomic pointer load (plus a
// non-blocking publish of any deferred commits — see Session.Snapshot);
// the handle itself is two small allocations (the Coach is stateless).
// Pin per request, or hold one across several calls when they must
// observe a single consistent version:
//
//	sn := sess.Snapshot()
//	users := sn.Users()              // same version ...
//	recs := sn.Recommend(users[0], 3) // ... as this ranking
//
// A held Snapshot stays fully readable after newer versions publish
// (Superseded then reports true); it pins its version's share of the
// graph in memory until released to the garbage collector.
//
//feo:frozen-type
type Snapshot struct {
	sess  *Session
	snap  *store.Snapshot
	g     *store.Graph // frozen view; mutating it panics
	coach *healthcoach.Coach
}

// Snapshot pins the latest published version of the session graph and
// returns a read handle onto it. See Snapshot's type documentation.
//
// Commits keep their state private until a pin asks for it (deferring the
// publish lets a burst of writes share one copy-on-write freeze), so
// Snapshot first publishes any pending commits — if it can take the
// writer lock without waiting. If a writer holds the lock right now, the
// pin falls back to the latest published version: still a fully
// consistent view, just the one from a moment earlier, and the pin
// remains non-blocking. One consequence: read-your-write is guaranteed
// only when no OTHER writer is mid-commit at pin time.
func (s *Session) Snapshot() *Snapshot {
	sp := s.pin()
	g := sp.Graph()
	return &Snapshot{sess: s, snap: sp, g: g, coach: healthcoach.New(g, s.weights)}
}

// Version returns the graph version Snapshot would pin now, publishing
// pending commits the same way, without building the read handle.
func (s *Session) Version() uint64 { return s.pin().Version() }

// pin publishes pending commits if it can take the writer lock without
// waiting, and returns the latest published store snapshot.
func (s *Session) pin() *store.Snapshot {
	if s.dirty.Load() && s.mu.TryLock() {
		if s.dirty.Load() {
			s.graph.Publish()
			s.dirty.Store(false)
		}
		s.mu.Unlock()
	}
	return s.graph.Snapshot()
}

// Version returns the graph mutation version this handle pins.
func (sn *Snapshot) Version() uint64 { return sn.snap.Version() }

// Superseded reports whether the session has published a newer version
// since this handle pinned. The handle remains fully readable either way.
func (sn *Snapshot) Superseded() bool { return sn.snap.Superseded() }

// Graph returns the pinned frozen graph view. All store read methods
// work on it; mutating methods panic.
func (sn *Snapshot) Graph() *store.Graph { return sn.g }

// Query runs a SPARQL query against the pinned version. Repeated queries
// on the same handle (or on any handle pinning the same version) hit the
// engine's plan cache.
func (sn *Snapshot) Query(q string) (*QueryResult, error) { return sparql.Run(sn.g, q) }

// QueryStream runs a SELECT or ASK query against the pinned version and
// feeds each result row into rw as it is produced, bounded by opts —
// memory stays O(row) on the serialization side no matter how large the
// result is. A deadline that fires before the first row returns
// ErrQueryDeadlineExceeded, and one that fires after it ends the
// document with a well-formed truncation instead. CONSTRUCT/DESCRIBE
// return ErrGraphResult before evaluation: route them to
// QueryGraphStream.
func (sn *Snapshot) QueryStream(q string, rw ResultWriter, opts StreamOptions) (StreamStats, error) {
	return sparql.RunStream(sn.g, q, rw, opts)
}

// QueryGraphStream runs a CONSTRUCT or DESCRIBE query against the pinned
// version and writes its result graph to w as Turtle — byte for byte
// WriteGraphTurtle of Query's result graph — under the same bounds as
// QueryStream: a deadline before the first byte returns
// ErrQueryDeadlineExceeded, MaxRows counts triples, MaxBytes is checked
// between subject blocks, and a truncated document ends with a
// "# truncated: <reason>" comment line.
func (sn *Snapshot) QueryGraphStream(q string, w io.Writer, opts StreamOptions) (StreamStats, error) {
	return sparql.RunGraphStream(sn.g, q, w, opts)
}

// Recommend ranks recipes for the user against the pinned version.
func (sn *Snapshot) Recommend(user Term, limit int) []Recommendation {
	return sn.coach.Recommend(user, limit)
}

// RecommendGroup ranks recipes for a group against the pinned version;
// any member's hard constraint excludes a recipe.
func (sn *Snapshot) RecommendGroup(users []Term, limit int) []Recommendation {
	return sn.coach.RecommendGroup(users, limit)
}

// Users returns the user individuals in the pinned version.
func (sn *Snapshot) Users() []Term { return sn.g.InstancesOf(ontology.FoodUser) }

// Recipes returns the recipe individuals in the pinned version.
func (sn *Snapshot) Recipes() []Term { return sn.g.InstancesOf(ontology.FoodRecipe) }

// Validate runs the OWL consistency checks over the pinned version.
func (sn *Snapshot) Validate() []reasoner.Inconsistency { return reasoner.Validate(sn.g) }

// ExplainTriple returns the reasoner's derivation proof for a triple.
//
// Caveat: derivation traces live in the session's reasoner and are not
// versioned with the graph, so this delegates to the live session state —
// it reflects every commit up to now, which may be NEWER than the pinned
// version (never older: the proofs for everything in this version exist).
func (sn *Snapshot) ExplainTriple(subject, predicate, object Term) []reasoner.ProofStep {
	return sn.sess.ExplainTriple(subject, predicate, object)
}

// WriteTurtle serializes the pinned version as Turtle.
//
//feo:emit
func (sn *Snapshot) WriteTurtle(w io.Writer) error { return turtle.Write(w, sn.g) }

// WriteRDFXML serializes the pinned version as RDF/XML.
//
//feo:emit
func (sn *Snapshot) WriteRDFXML(w io.Writer) error { return rdfxml.Write(w, sn.g) }

// WriteGraphTurtle serializes any graph — typically a CONSTRUCT or
// DESCRIBE result — as Turtle.
//
//feo:emit
func WriteGraphTurtle(w io.Writer, g *Graph) error { return turtle.Write(w, g) }

// Stats summarizes the pinned version.
//
//feo:emit
func (sn *Snapshot) Stats() string {
	st := sn.g.Statistics()
	return fmt.Sprintf("triples=%d subjects=%d predicates=%d classes=%d instances=%d",
		st.Triples, st.Subjects, st.Predicates, st.Classes, st.Instances)
}
