// Package store provides an in-memory indexed RDF graph with MVCC
// snapshot reads.
//
// # Dictionary encoding
//
// The store is dictionary-encoded: a TermDict interns every distinct
// rdf.Term into a dense uint32 ID (append-only, first-seen order), and the
// two permutation indexes (SPO, POS) are nested levels whose
// innermost level is a roaring-style bitmap set (IDSet, bitset.go): 16-bit-
// keyed containers holding either a sorted uint16 array (sparse) or a
// 1024-word bitmap (dense). The outermost level is a paged vector indexed
// directly by the leading ID (IDs are dense, so the probe is two bounds
// checks and two array loads); the middle level is a sorted run list
// from the second ID to the bitmap set, probed by binary search (index.go
// has the layout). Terms are
// encoded exactly once, on write; every probe, join, and iteration
// afterwards touches 4-byte integers instead of 4-field structs holding up
// to three IRI strings, and the innermost membership tests and set
// combinations run as binary searches or 64-bit word operations instead of
// hash probes. This is the standard access-path design of serious RDF
// engines (Jena TDB, RDF4J, Virtuoso) and is what makes the OWL RL
// reasoner's rule joins and the SPARQL evaluator's BGP joins cheap: the
// huge object/subject sets of rdf:type-heavy predicates compress to about
// one bit per member, and intersecting two of them (MatchSetID + IDSet.And)
// ANDs words rather than re-hashing elements.
//
// Every level iterates in ascending ID order, so ID-level walks
// (ForEachID, ObjectsID, SubjectsID, …) visit the matches of a pattern in
// one order that depends only on the graph's contents and IDs. The
// term-level API still decodes and term-sorts at the boundary, so
// rendered artifacts are unchanged.
//
// Reads decode lazily: the Term-based API (ForEach, Match, Objects, …)
// materializes rdf.Term values only for the positions a caller actually
// receives, via a slice index into the dictionary — no allocation and no
// hashing on the read path. Hot consumers (the reasoner and the SPARQL
// evaluator) opt into the ID-level API (LookupID, ForEachID, CountID, …)
// and defer decoding until results leave the engine.
//
// SPO and POS answer six of the eight pattern shapes by at most one
// nested walk without scanning unrelated triples. The two with a bound
// object and a free predicate have no index of their own: (s, ?, o)
// walks the predicates of s in SPO and tests each object set for o, and
// (?, ?, o) probes POS once per predicate, stopping once it has seen the
// object's count of triples. BenchmarkObjectPattern (20 000 triples,
// about 20 per subject and per object; 2-vCPU Xeon, go1.24, median of
// five) prices many predicates: (?, ?, o) takes 0.23 / 0.91 / 3.7 / 99 µs
// at 10 / 100 / 1 000 / 10 000 predicates, against 0.51 / 0.67 / 1.1 /
// 1.7 µs with an object-first index (OSP). The crossover is near 100
// predicates: a second run, on a busier host, had the POS walk ahead there.
// (s, ?, o) takes 0.3–1.0 µs against 0.03–0.08 µs and grows with the
// predicates of s. The food KG has 41 predicates, and OSP held about
// 70 % of its index heap.
//
// # Concurrency: MVCC snapshots, copy-on-write, and the writer protocol
//
// The graph is a single-writer, many-reader MVCC structure. A writer
// publishes immutable versioned snapshots (Publish, or the Begin/Commit
// transaction surface in mvcc.go; there is no rollback); readers pin a
// *Snapshot — an atomic pointer load, no lock — and read a frozen view of
// the graph that never changes, no matter what the writer does next.
// Readers never block the writer and the writer never blocks readers.
//
// Isolation is copy-on-write with epoch tagging: every index structure
// (outer directory and page, middle level and run, innermost IDSet, count
// directory and page) carries the epoch at which it was last privately
// writable. Publishing a snapshot bumps the graph's epoch, freezing all
// current structures in place; the writer's next mutation of a frozen
// structure first copies it, and only the part it writes: a directory and
// one 512-entry page at the outer level and for the object counts, the run
// headers and one run of at most 128 keys in the middle, and a
// container-aliasing cowClone at the set level (see bitset.go). The
// snapshot keeps reading the original bits while the writer moves on, and
// what a commit's freeze copies tracks what the commit wrote rather than
// the dictionary or the size of a level. Structures already private to the
// current epoch mutate in place, so a graph that has never published — the
// load/reason boot path — pays nothing for any of this.
//
// The writer-side rules are unchanged from the pre-MVCC store: at most one
// goroutine may mutate (Add*, Merge, Remove, Clear, InternTerm)
// at a time, and un-pinned reads of the live graph must not overlap a
// mutation. What MVCC adds is that *pinned* reads are always safe: any
// number of goroutines may read a published Snapshot concurrently with the
// writer, under -race, with no synchronization beyond the pin itself
// (internal/store/mvcc_test.go locks this in). The term dictionary is
// shared between live graph and snapshots and is safe for concurrent
// decode/lookup during writes (see TermDict).
//
// A writer learns what changed through one capture mode (capture.go): a
// ChangeSet records the ordered ID-space stream of effective adds and
// removes. The write-ahead log replays it decoded; the reasoner's delta
// path seeds from it undecoded.
//
// Applications serving many concurrent queries from pinned snapshots while
// a writer commits (feo.Session, feo serve) rely on this. Version() gives
// memo caches a cheap way to detect that any mutation happened; a frozen
// view's version never changes.
package store

import (
	"sort"
	"sync/atomic"

	"repro/internal/rdf"
)

// Wildcard is the zero rdf.Term; in pattern positions it matches any term.
var Wildcard = rdf.Term{}

// Graph is a set of RDF triples indexed in SPO and POS order over
// dictionary-encoded term IDs.
//
//feo:mutable-type
type Graph struct {
	dict *TermDict
	spo  index
	pos  index
	// objN counts the triples of each object. The subject and predicate
	// counts are the n of their SPO and POS levels.
	objN pages[int32]
	n    int
	// version counts successful mutations (triple adds/removes and Clear).
	// Consumers that memoize derived state per graph snapshot — the SPARQL
	// engine's plan memo and per-query path-reachability caches — key or
	// guard on it; see Version.
	version uint64
	// memo is the derived-state table for the current version; see Memo.
	memo atomic.Pointer[Memo]
	// captures holds the active change-capture logs (see capture.go). Empty
	// in the common case; every successful add/remove fans into each one.
	captures []*ChangeSet
	ns       *rdf.Namespaces

	// MVCC state; see mvcc.go. epoch counts publishes: any structure whose
	// epoch predates g.epoch may be shared with a published snapshot and
	// is COW-copied before its first mutation.
	// frozen marks an immutable snapshot view (mutations panic); dictN is
	// the dictionary length a frozen view was published at; owner backlinks
	// a frozen view to its Snapshot; published holds the live graph's
	// latest snapshot; txn is the open transaction, if any.
	epoch     uint64
	frozen    bool
	dictN     int
	owner     *Snapshot
	published atomic.Pointer[Snapshot]
	txn       *Txn
}

// New returns an empty graph with the repository's standard namespaces bound.
//
//feo:fresh
func New() *Graph {
	return &Graph{
		dict: NewTermDict(),
		ns:   rdf.StandardNamespaces(),
	}
}

// Namespaces returns the prefix mapping attached to the graph. Parsers add
// prefixes they encounter; serializers and human-facing output read them.
// A frozen snapshot view carries its own copy, taken at publish time.
//
//feo:frozen-safe
func (g *Graph) Namespaces() *rdf.Namespaces { return g.ns }

// Len returns the number of triples in the graph.
//
//feo:frozen-safe
func (g *Graph) Len() int { return g.n }

// Version returns a counter that increases on every successful mutation
// (Add*, Remove, Merge, Clear — including mutations that go
// through Bulk or the reasoner). Two reads returning the same value
// bracket a span with no triple-level mutation, so caches of derived
// state (path reachability memos, query plans) can assert the graph they
// were built against is still the graph being read. A frozen snapshot
// view's version never changes, so its Memo (the SPARQL plans compiled
// against it) stays warm for as long as the view is pinned. InternTerm
// alone does not bump the version: interning never changes any pattern's
// matches.
//
//feo:frozen-safe
func (g *Graph) Version() uint64 { return g.version }

// ---- ID-level API (hot-path opt-ins) ----

// Dict exposes the graph's term dictionary. It is append-only and shared
// with published snapshots; see TermDict for its concurrency contract.
//
//feo:frozen-safe
func (g *Graph) Dict() *TermDict { return g.dict }

// LookupID encodes a term without interning it. A term the graph has never
// stored returns (NoID, false) — by construction no triple can match it.
//
//feo:frozen-safe
func (g *Graph) LookupID(t rdf.Term) (ID, bool) { return g.dict.Lookup(t) }

// InternTerm encodes a term, assigning a fresh ID when new. Invalid (zero)
// terms are not interned and return NoID. Writer-only: panics on a frozen
// snapshot view.
//
//feo:mutates
func (g *Graph) InternTerm(t rdf.Term) ID {
	if g.frozen {
		panic("store: InternTerm on a frozen snapshot view")
	}
	if !t.IsValid() {
		return NoID
	}
	return g.dict.Intern(t)
}

// TermOf decodes an ID previously issued by this graph's dictionary.
//
//feo:frozen-safe
//feo:decodes
func (g *Graph) TermOf(id ID) rdf.Term { return g.dict.Term(id) }

// KindOf returns the term kind behind id without copying the term.
//
//feo:frozen-safe
func (g *Graph) KindOf(id ID) rdf.TermKind { return g.dict.Kind(id) }

// IsResourceID reports whether id decodes to an IRI or blank node — the
// positions allowed as triple subjects and the guard many OWL rules need.
//
//feo:frozen-safe
func (g *Graph) IsResourceID(id ID) bool {
	k := g.dict.Kind(id)
	return k == rdf.KindIRI || k == rdf.KindBlank
}

// HasID reports whether the exact triple (s, p, o) is present, by ID.
// NoID in any position returns false (use ForEachID for patterns).
//
//feo:frozen-safe
func (g *Graph) HasID(s, p, o ID) bool {
	return g.spo.get(s, p).Contains(o)
}

// MatchSetID returns the bitmap set for a pattern with exactly two bound
// positions: the objects of (s, p, ?), the subjects of (?, p, o), or the
// predicates of (s, ?, o). Any other shape returns nil. Callers must
// treat the result as read-only and follow the reader contract: for
// (s, p, ?) and (?, p, o) it is the live innermost index level, which is
// what lets a join intersect two index levels word-by-word (IDSet.And)
// without copying either. For (s, ?, o) it is a fresh set.
//
//feo:frozen-safe
func (g *Graph) MatchSetID(s, p, o ID) *IDSet {
	switch {
	case s != NoID && p != NoID && o == NoID:
		return g.spo.get(s, p)
	case s == NoID && p != NoID && o != NoID:
		return g.pos.get(p, o)
	case s != NoID && p == NoID && o != NoID:
		preds := NewIDSet()
		g.forEachPredicate(s, o, func(p ID) bool { preds.Add(p); return true })
		return preds
	}
	return nil
}

// forEachPredicate calls fn for every predicate of (s, ?, o), in
// ascending ID order, until fn returns false: a walk of the SPO level of s
// that tests each object set for o.
//
//feo:frozen-safe
func (g *Graph) forEachPredicate(s, o ID, fn func(p ID) bool) {
	g.spo.level(s).each(func(pred ID, objs *IDSet) bool {
		return !objs.Contains(o) || fn(pred)
	})
}

// AddID inserts the triple (s, p, o) given already-interned IDs; it reports
// whether the triple was new. Kind constraints (subject resource, predicate
// IRI) are enforced against the dictionary.
//
//feo:mutates
func (g *Graph) AddID(s, p, o ID) bool {
	if s == NoID || p == NoID || o == NoID {
		return false
	}
	if !g.IsResourceID(s) || g.dict.Kind(p) != rdf.KindIRI {
		return false
	}
	return g.addIDs(s, p, o)
}

//feo:mutates
func (g *Graph) addIDs(s, p, o ID) bool {
	if g.frozen {
		panic("store: mutation on a frozen snapshot view")
	}
	// Duplicate probe before any COW work: re-derived triples (the
	// reasoner's common case) must not churn copies.
	if g.spo.get(s, p).Contains(o) {
		return false
	}
	g.indexAdd(&g.spo, s, p, o)
	g.indexAdd(&g.pos, p, o, s)
	*g.objN.slot(g.epoch, o)++
	g.n++
	g.version++
	if len(g.captures) != 0 {
		g.notifyAdd(s, p, o)
	}
	return true
}

// mutableLvl2 returns the slot of leading ID a in ix and its middle level,
// both privately writable: the directory and page on the way are copied
// when they are still shared with a published snapshot (epoch predates
// g.epoch), and so are the level's run headers. A missing level is
// created.
//
//feo:mutates
func (g *Graph) mutableLvl2(ix *index, a ID) (**lvl2, *lvl2) {
	slot := ix.slot(g.epoch, a)
	l := *slot
	switch {
	case l == nil:
		l = &lvl2{epoch: g.epoch}
		*slot = l
	case l.epoch != g.epoch:
		l = &lvl2{epoch: g.epoch, n: l.n, runs: append(make([]run, 0, len(l.runs)+1), l.runs...)}
		*slot = l
	}
	return slot, l
}

// indexAdd inserts c into the (a, b) set of ix, COW-copying shared levels.
// The caller has already established the triple is absent.
//
//feo:mutates
func (g *Graph) indexAdd(ix *index, a, b, c ID) {
	_, l := g.mutableLvl2(ix, a)
	l.n++
	slot := l.setSlot(g.epoch, b)
	set := *slot
	switch {
	case set == nil:
		set = &IDSet{epoch: g.epoch}
		*slot = set
	case set.epoch != g.epoch:
		set = set.cowClone(g.epoch)
		*slot = set
	}
	set.Add(c)
}

// indexRemove deletes c from the (a, b) set of ix, COW-copying shared
// levels and pruning emptied levels. The caller has already established the
// triple is present.
//
//feo:mutates
func (g *Graph) indexRemove(ix *index, a, b, c ID) {
	lslot, l := g.mutableLvl2(ix, a)
	l.n--
	if l.get(b).Len() == 1 {
		l.drop(g.epoch, b)
		if len(l.runs) == 0 {
			*lslot = nil
		}
		return
	}
	slot := l.setSlot(g.epoch, b)
	set := *slot
	if set.epoch != g.epoch {
		set = set.cowClone(g.epoch)
		*slot = set
	}
	set.Remove(c)
}

// ForEachID calls fn for every ID triple matching the pattern (s, p, o),
// where NoID matches anything. Iteration stops early when fn returns false.
// Every level walks in ascending ID order, so each pattern shape visits
// its matches in one fixed order: (s, ?, ?) and (s, ?, o) by predicate,
// (?, p, ?) by object, (?, ?, o) by predicate, and the innermost level by
// ID; a full scan is subject-major. The callback should not mutate the
// graph. The reasoner's rules do add triples from inside their walks; a
// middle-level walk then still visits each key present throughout once
// (see lvl2.each).
//
//feo:frozen-safe
func (g *Graph) ForEachID(s, p, o ID, fn func(s, p, o ID) bool) {
	sB, pB, oB := s != NoID, p != NoID, o != NoID
	switch {
	case sB && pB && oB:
		if g.HasID(s, p, o) {
			fn(s, p, o)
		}
	case sB && pB: // (s, p, ?) — SPO
		g.spo.get(s, p).ForEach(func(obj ID) bool { return fn(s, p, obj) })
	case sB && oB: // (s, ?, o) — the predicates of s in SPO
		g.forEachPredicate(s, o, func(pred ID) bool { return fn(s, pred, o) })
	case pB && oB: // (?, p, o) — POS
		g.pos.get(p, o).ForEach(func(subj ID) bool { return fn(subj, p, o) })
	case sB: // (s, ?, ?) — SPO
		g.spo.level(s).each(func(pred ID, objs *IDSet) bool {
			return objs.ForEach(func(obj ID) bool { return fn(s, pred, obj) })
		})
	case pB: // (?, p, ?) — POS
		g.pos.level(p).each(func(obj ID, subjs *IDSet) bool {
			return subjs.ForEach(func(subj ID) bool { return fn(subj, p, obj) })
		})
	case oB: // (?, ?, o) — one POS probe per predicate, until objN(o) are seen
		left := int(g.objN.get(o))
		if left == 0 {
			return
		}
		g.pos.each(func(pred ID, l *lvl2) bool {
			subjs := l.get(o)
			if subjs == nil {
				return true
			}
			left -= subjs.Len()
			return subjs.ForEach(func(subj ID) bool { return fn(subj, pred, o) }) && left > 0
		})
	default: // full scan
		g.spo.each(func(subj ID, l *lvl2) bool {
			return l.each(func(pred ID, objs *IDSet) bool {
				return objs.ForEach(func(obj ID) bool { return fn(subj, pred, obj) })
			})
		})
	}
}

// CountID returns the number of triples matching the ID pattern without
// iterating them: fully and doubly bound shapes are a single len() of the
// underlying index level; a bound subject or predicate reads the triple
// count its SPO or POS level carries, a bound object the object counts.
//
//feo:frozen-safe
func (g *Graph) CountID(s, p, o ID) int {
	sB, pB, oB := s != NoID, p != NoID, o != NoID
	switch {
	case sB && pB && oB:
		if g.HasID(s, p, o) {
			return 1
		}
		return 0
	case sB && pB:
		return g.spo.get(s, p).Len()
	case sB && oB:
		n := 0
		g.forEachPredicate(s, o, func(ID) bool { n++; return true })
		return n
	case pB && oB:
		return g.pos.get(p, o).Len()
	case sB:
		return g.spo.countOf(s)
	case pB:
		return g.pos.countOf(p)
	case oB:
		return int(g.objN.get(o))
	default:
		return g.n
	}
}

// ObjectsID returns the object IDs of triples (s, p, *) in ascending ID
// order. The reasoner's rule joins use this to avoid the term decode and
// sort that Objects pays for.
//
//feo:frozen-safe
func (g *Graph) ObjectsID(s, p ID) []ID {
	objs := g.spo.get(s, p)
	if objs.Len() == 0 {
		return nil
	}
	return objs.AppendTo(make([]ID, 0, objs.Len()))
}

// ForEachObjectID calls fn for every object ID of triples (s, p, *), in
// ascending ID order, stopping early when fn returns false. It is the
// allocation-free form of ObjectsID, for hot loops — the SPARQL engine's
// path BFS expands frontiers with it — that want neither a fresh slice per
// probe nor a full triple callback.
//
//feo:frozen-safe
func (g *Graph) ForEachObjectID(s, p ID, fn func(o ID) bool) {
	g.spo.get(s, p).ForEach(fn)
}

// ForEachSubjectID calls fn for every subject ID of triples (*, p, o), in
// ascending ID order, stopping early when fn returns false. The
// allocation-free form of SubjectsID.
//
//feo:frozen-safe
func (g *Graph) ForEachSubjectID(p, o ID, fn func(s ID) bool) {
	g.pos.get(p, o).ForEach(fn)
}

// SubjectsID returns the subject IDs of triples (*, p, o) in ascending ID
// order.
//
//feo:frozen-safe
func (g *Graph) SubjectsID(p, o ID) []ID {
	subjs := g.pos.get(p, o)
	if subjs.Len() == 0 {
		return nil
	}
	return subjs.AppendTo(make([]ID, 0, subjs.Len()))
}

// FirstObjectID returns one object ID of (s, p, *), or NoID if none. When
// several objects exist the smallest decoded term (per rdf.Compare) wins, so
// results are deterministic and agree with FirstObject. The dominant case —
// a single object, as every functional property and rdf:first/rdf:rest
// chain produces — answers straight from the bitmap without decoding any
// term; larger sets decode each candidate exactly once.
//
//feo:frozen-safe
func (g *Graph) FirstObjectID(s, p ID) ID {
	objs := g.spo.get(s, p)
	if objs.Len() <= 1 {
		o, ok := objs.Min()
		if !ok {
			return NoID
		}
		return o
	}
	best := NoID
	var bestTerm rdf.Term
	objs.ForEach(func(o ID) bool {
		t := g.dict.Term(o)
		if best == NoID || rdf.Compare(t, bestTerm) < 0 {
			best, bestTerm = o, t
		}
		return true
	})
	return best
}

// ---- Term-level API (encode on write, decode lazily on read) ----

// Add inserts the triple (s, p, o); it reports whether the triple was new.
// Invalid triples (per rdf.Triple.Valid) are rejected and return false.
//
//feo:mutates
func (g *Graph) Add(s, p, o rdf.Term) bool {
	t := rdf.Triple{S: s, P: p, O: o}
	if !t.Valid() {
		return false
	}
	return g.addIDs(g.dict.Intern(s), g.dict.Intern(p), g.dict.Intern(o))
}

// AddTriple inserts t; it reports whether the triple was new.
//
//feo:mutates
func (g *Graph) AddTriple(t rdf.Triple) bool { return g.Add(t.S, t.P, t.O) }

// Remove deletes the triple (s, p, o); it reports whether it was present.
// The terms stay interned: IDs are never reused or reassigned.
//
//feo:mutates
func (g *Graph) Remove(s, p, o rdf.Term) bool {
	sID, ok := g.dict.Lookup(s)
	if !ok {
		return false
	}
	pID, ok := g.dict.Lookup(p)
	if !ok {
		return false
	}
	oID, ok := g.dict.Lookup(o)
	if !ok {
		return false
	}
	return g.removeIDs(sID, pID, oID)
}

//feo:mutates
func (g *Graph) removeIDs(s, p, o ID) bool {
	if g.frozen {
		panic("store: mutation on a frozen snapshot view")
	}
	if !g.spo.get(s, p).Contains(o) {
		return false
	}
	g.indexRemove(&g.spo, s, p, o)
	g.indexRemove(&g.pos, p, o, s)
	*g.objN.slot(g.epoch, o)--
	g.n--
	g.version++
	if len(g.captures) != 0 {
		g.notifyRemove(s, p, o)
	}
	return true
}

// Has reports whether the exact triple (s, p, o) is present. Wildcards are
// not interpreted; use Exists for pattern queries.
//
//feo:frozen-safe
func (g *Graph) Has(s, p, o rdf.Term) bool {
	sID, ok := g.dict.Lookup(s)
	if !ok {
		return false
	}
	pID, ok := g.dict.Lookup(p)
	if !ok {
		return false
	}
	oID, ok := g.dict.Lookup(o)
	if !ok {
		return false
	}
	return g.HasID(sID, pID, oID)
}

// encodePattern maps a Term pattern position to an ID pattern position:
// wildcard terms become NoID, known terms their ID. ok is false when the
// term is bound but unknown to the dictionary — no triple can match.
//
//feo:frozen-safe
func (g *Graph) encodePattern(t rdf.Term) (ID, bool) {
	if !t.IsValid() {
		return NoID, true
	}
	id, ok := g.dict.Lookup(t)
	return id, ok
}

// ForEach calls fn for every triple matching the pattern (s, p, o), where
// the zero Term (Wildcard) matches anything. Iteration stops early when fn
// returns false. The callback must not mutate the graph.
//
//feo:frozen-safe
func (g *Graph) ForEach(s, p, o rdf.Term, fn func(rdf.Triple) bool) {
	sID, ok := g.encodePattern(s)
	if !ok {
		return
	}
	pID, ok := g.encodePattern(p)
	if !ok {
		return
	}
	oID, ok := g.encodePattern(o)
	if !ok {
		return
	}
	g.ForEachID(sID, pID, oID, func(si, pi, oi ID) bool {
		// Reuse the caller's bound terms; decode only wildcard positions.
		t := rdf.Triple{S: s, P: p, O: o}
		if sID == NoID {
			t.S = g.dict.Term(si)
		}
		if pID == NoID {
			t.P = g.dict.Term(pi)
		}
		if oID == NoID {
			t.O = g.dict.Term(oi)
		}
		return fn(t)
	})
}

// Match returns all triples matching the pattern, in ForEachID order.
//
//feo:frozen-safe
func (g *Graph) Match(s, p, o rdf.Term) []rdf.Triple {
	var out []rdf.Triple
	g.ForEach(s, p, o, func(t rdf.Triple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// Exists reports whether any triple matches the pattern. Like Count, it
// answers from index-level sizes without iterating triples.
//
//feo:frozen-safe
func (g *Graph) Exists(s, p, o rdf.Term) bool { return g.Count(s, p, o) > 0 }

// Count returns the number of triples matching the pattern without
// materializing or iterating them (a len() of the right index level).
//
//feo:frozen-safe
func (g *Graph) Count(s, p, o rdf.Term) int {
	sID, ok := g.encodePattern(s)
	if !ok {
		return 0
	}
	pID, ok := g.encodePattern(p)
	if !ok {
		return 0
	}
	oID, ok := g.encodePattern(o)
	if !ok {
		return 0
	}
	return g.CountID(sID, pID, oID)
}

// decodeSorted decodes an ID set to terms sorted per rdf.Compare. The set
// iterates in ID order but the output contract is term order, so the sort
// remains (ID order is first-seen order, not term order).
//
//feo:frozen-safe
//feo:decodes
func (g *Graph) decodeSorted(set *IDSet) []rdf.Term {
	out := make([]rdf.Term, 0, set.Len())
	set.ForEach(func(id ID) bool {
		out = append(out, g.dict.Term(id))
		return true
	})
	sortTerms(out)
	return out
}

// Objects returns the distinct objects of triples (s, p, *), sorted.
//
//feo:frozen-safe
func (g *Graph) Objects(s, p rdf.Term) []rdf.Term {
	sID, ok := g.dict.Lookup(s)
	if !ok {
		return nil
	}
	pID, ok := g.dict.Lookup(p)
	if !ok {
		return nil
	}
	return g.decodeSorted(g.spo.get(sID, pID))
}

// FirstObject returns one object of (s, p, *), or the zero Term if none.
// When several objects exist the smallest (per rdf.Compare) is returned so
// results are deterministic and agree with FirstObjectID. This is a single
// O(n) min-scan, not a sort; the singleton case decodes exactly one term.
//
//feo:frozen-safe
func (g *Graph) FirstObject(s, p rdf.Term) rdf.Term {
	sID, ok := g.dict.Lookup(s)
	if !ok {
		return rdf.Term{}
	}
	pID, ok := g.dict.Lookup(p)
	if !ok {
		return rdf.Term{}
	}
	best := g.FirstObjectID(sID, pID)
	if best == NoID {
		return rdf.Term{}
	}
	return g.dict.Term(best)
}

// Subjects returns the distinct subjects of triples (*, p, o), sorted.
//
//feo:frozen-safe
func (g *Graph) Subjects(p, o rdf.Term) []rdf.Term {
	pID, ok := g.dict.Lookup(p)
	if !ok {
		return nil
	}
	oID, ok := g.dict.Lookup(o)
	if !ok {
		return nil
	}
	return g.decodeSorted(g.pos.get(pID, oID))
}

// Predicates returns the distinct predicates of triples (s, *, o), sorted.
//
//feo:frozen-safe
func (g *Graph) Predicates(s, o rdf.Term) []rdf.Term {
	sID, ok := g.dict.Lookup(s)
	if !ok {
		return nil
	}
	oID, ok := g.dict.Lookup(o)
	if !ok {
		return nil
	}
	return g.decodeSorted(g.MatchSetID(sID, NoID, oID))
}

// IsA reports whether (s rdf:type class) is present.
//
//feo:frozen-safe
func (g *Graph) IsA(s, class rdf.Term) bool {
	return g.Has(s, rdf.TypeIRI, class)
}

// InstancesOf returns the subjects asserted to have rdf:type class, sorted.
//
//feo:frozen-safe
func (g *Graph) InstancesOf(class rdf.Term) []rdf.Term {
	return g.Subjects(rdf.TypeIRI, class)
}

// Triples returns every triple in the graph sorted by subject, predicate,
// object. Intended for serialization and tests; large graphs should iterate
// with ForEach instead.
//
//feo:frozen-safe
func (g *Graph) Triples() []rdf.Triple {
	out := make([]rdf.Triple, 0, g.n)
	g.ForEachID(NoID, NoID, NoID, func(s, p, o ID) bool {
		out = append(out, rdf.Triple{S: g.dict.Term(s), P: g.dict.Term(p), O: g.dict.Term(o)})
		return true
	})
	sort.Slice(out, func(i, j int) bool { return compareTriples(out[i], out[j]) < 0 })
	return out
}

// SubjectSet returns the distinct subjects in the graph, sorted.
//
//feo:frozen-safe
func (g *Graph) SubjectSet() []rdf.Term {
	var out []rdf.Term
	g.spo.each(func(s ID, _ *lvl2) bool {
		out = append(out, g.dict.Term(s))
		return true
	})
	sortTerms(out)
	return out
}

// Clone returns a deep copy of the graph. The dictionary is copied too, so
// every ID valid for g decodes to the same term in the clone (IDs are
// stable across Clone); the nested indexes are rebuilt without re-encoding
// a single term. The clone is an independent live graph: it shares no
// storage with g (unlike a Snapshot view), starts with no published
// snapshot, and may be mutated by its own writer.
//
//feo:frozen-safe
//feo:fresh
func (g *Graph) Clone() *Graph {
	out := &Graph{
		dict: g.dict.Clone(),
		spo:  index{g.spo.clone((*lvl2).clone)},
		pos:  index{g.pos.clone((*lvl2).clone)},
		objN: g.objN.clone(func(c int32) int32 { return c }),
		n:    g.n,
		// The clone starts its own mutation history; versions are only
		// comparable against the same Graph value.
		version: g.version,
		ns:      g.ns.Clone(),
	}
	return out
}

// Merge adds every triple of other into g and returns the number added.
// Terms of other are re-interned into g's dictionary through a one-pass
// remap table, so each distinct term is hashed once regardless of how many
// triples mention it.
// Iteration order over other does not affect the result: the merged
// graph is a triple set.
//
//feo:mutates
func (g *Graph) Merge(other *Graph) int {
	if other == nil {
		return 0
	}
	remap := make(map[ID]ID, other.dict.Len())
	mapID := func(id ID) ID {
		if to, ok := remap[id]; ok {
			return to
		}
		to := g.dict.Intern(other.dict.Term(id))
		remap[id] = to
		return to
	}
	added := 0
	other.ForEachID(NoID, NoID, NoID, func(s, p, o ID) bool {
		if g.addIDs(mapID(s), mapID(p), mapID(o)) {
			added++
		}
		return true
	})
	for _, prefix := range other.ns.Prefixes() {
		if iri, ok := other.ns.IRIFor(prefix); ok {
			if _, bound := g.ns.IRIFor(prefix); !bound {
				g.ns.Bind(prefix, iri)
			}
		}
	}
	return added
}

// Equal reports whether g and other contain exactly the same triples.
// Blank node labels are compared literally (no isomorphism check); use
// Isomorphic for bnode-invariant comparison.
//
//feo:frozen-safe
func (g *Graph) Equal(other *Graph) bool {
	if other == nil || g.n != other.n {
		return false
	}
	eq := true
	g.ForEach(Wildcard, Wildcard, Wildcard, func(t rdf.Triple) bool {
		if !other.Has(t.S, t.P, t.O) {
			eq = false
			return false
		}
		return true
	})
	return eq
}

// Clear removes all triples. The dictionary is reset too; IDs issued
// before Clear must not be used afterwards. The mutation version advances
// (it never resets), so memoized consumers observe the wipe. Published
// snapshots are unaffected: they keep the old dictionary and indexes.
//
//feo:mutates
func (g *Graph) Clear() {
	if g.frozen {
		panic("store: mutation on a frozen snapshot view")
	}
	g.dict = NewTermDict()
	g.spo = index{}
	g.pos = index{}
	g.objN = pages[int32]{}
	g.n = 0
	g.version++
	if len(g.captures) != 0 {
		g.notifyClear()
	}
}

// ReadList reads an RDF collection (rdf:first / rdf:rest chain) starting at
// head and returns its members in order. Malformed lists return the members
// collected before the defect, and ok=false.
//
//feo:frozen-safe
func (g *Graph) ReadList(head rdf.Term) (members []rdf.Term, ok bool) {
	seen := make(map[rdf.Term]bool)
	for head != rdf.NilIRI {
		if !head.IsValid() || seen[head] {
			return members, false
		}
		seen[head] = true
		first := g.FirstObject(head, rdf.FirstIRI)
		if !first.IsValid() {
			return members, false
		}
		members = append(members, first)
		head = g.FirstObject(head, rdf.RestIRI)
	}
	return members, true
}

// ReadListID is ReadList at the dictionary-ID level: it reads the
// collection starting at head without decoding a single term. Malformed
// lists return the members collected before the defect, and ok=false.
//
//feo:frozen-safe
func (g *Graph) ReadListID(head ID) (members []ID, ok bool) {
	nilID, hasNil := g.dict.Lookup(rdf.NilIRI)
	firstID, hasFirst := g.dict.Lookup(rdf.FirstIRI)
	restID, hasRest := g.dict.Lookup(rdf.RestIRI)
	seen := make(map[ID]bool)
	for !hasNil || head != nilID {
		if head == NoID || seen[head] || !hasFirst || !hasRest {
			return members, false
		}
		seen[head] = true
		first := g.FirstObjectID(head, firstID)
		if first == NoID {
			return members, false
		}
		members = append(members, first)
		head = g.FirstObjectID(head, restID)
	}
	return members, true
}

func sortTerms(ts []rdf.Term) {
	sort.Slice(ts, func(i, j int) bool { return rdf.Compare(ts[i], ts[j]) < 0 })
}

func compareTriples(a, b rdf.Triple) int {
	if c := rdf.Compare(a.S, b.S); c != 0 {
		return c
	}
	if c := rdf.Compare(a.P, b.P); c != 0 {
		return c
	}
	return rdf.Compare(a.O, b.O)
}
