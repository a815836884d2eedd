package sparql

import (
	"slices"

	"repro/internal/store"
)

// Property paths are evaluated over dictionary IDs end to end: the
// endpoint comes from a row slot or an encoded constant, the walk probes
// the SPO/POS indexes with IDs, and the reached IDs go straight back into
// rows. Nothing is decoded. reach walks the path AST, closure runs the
// bitmap BFS for `*` and `+` over any step, and pathReach and pathStarts
// memoize the results per query as ascending ID slices, so many rows
// probing the same endpoint share one walk.
//
// The evaluation direction is chosen from the bound ends: bound→unbound
// walks forward or backward; bound→bound is a reachability test; and
// unbound→unbound enumerates path matches from every start candidate.
// A variable path endpoint only ever binds a node of the graph (a term
// used as subject or object). Without this restriction zero-width paths
// would make BGP results depend on join order: `?x p* ?y` joined against
// a pattern binding ?y to a predicate-only term would reflexively match
// when the path runs last (?y arrives bound, zero-length x=y) but not
// when it runs first (the unbound enumeration ranges over nodes). The
// node rule makes the pattern's solution set a fixed multiset, invariant
// under the planner's ordering — the randomized reference-equivalence
// harness enforces exactly that. Constant endpoints are taken as given
// (`<x> p* <x>` holds for any term, matching the zero-length-path spec),
// including a constant the graph never interned: its extension ID misses
// every index probe, but a zero-width path still reaches it.

// pathStep is the push step of a triple pattern whose predicate is a
// property path: it extends each row with every (subject, object) pair
// the path connects.
//
//feo:idspace
func (ec *evalContext) pathStep(tp TriplePattern, out idRow, next rowSink) rowSink {
	sSlot, oSlot := -1, -1
	sConst, oConst := store.NoID, store.NoID
	if tp.S.IsVar {
		sSlot = ec.env.slot(tp.S.Var)
	} else {
		sConst = ec.encodeTerm(tp.S.Term)
	}
	if tp.O.IsVar {
		oSlot = ec.env.slot(tp.O.Var)
	} else {
		oConst = ec.encodeTerm(tp.O.Term)
	}
	// bind emits r with the pair (s, o) in the endpoint slots.
	bind := func(r idRow, s, o store.ID) bool {
		copy(out, r)
		if sSlot >= 0 {
			out[sSlot] = s
		}
		if oSlot >= 0 {
			out[oSlot] = o
		}
		return next(out)
	}
	return func(r idRow) bool {
		if ec.canceled() {
			return false
		}
		sID := sConst
		if sSlot >= 0 {
			sID = r[sSlot]
			if sID != store.NoID && !ec.isNodeID(sID) {
				return true // a var endpoint bound to a non-node never matches
			}
		}
		oID := oConst
		if oSlot >= 0 {
			oID = r[oSlot]
			if oID != store.NoID && !ec.isNodeID(oID) {
				return true
			}
		}
		switch {
		case sID != store.NoID && oID != store.NoID:
			_, found := slices.BinarySearch(ec.pathReach(tp.Path, sID, false), oID)
			return !found || next(r)
		case sID != store.NoID:
			for _, t := range ec.pathReach(tp.Path, sID, false) {
				// Only the zero-length self can be a non-node.
				if ec.isNodeID(t) && !bind(r, sID, t) {
					return false
				}
			}
		case oID != store.NoID:
			for _, t := range ec.pathReach(tp.Path, oID, true) {
				if ec.isNodeID(t) && !bind(r, t, oID) {
					return false
				}
			}
		default:
			// Both unbound: enumerate from all (node) start candidates; for
			// ?x path ?x only self-reaching starts match.
			for _, start := range ec.pathStarts(tp.Path) {
				for _, t := range ec.pathReach(tp.Path, start, false) {
					if (sSlot != oSlot || start == t) && !bind(r, start, t) {
						return false
					}
				}
			}
		}
		return true
	}
}

// isNodeID reports whether id is a node of the graph: a term occurring in
// subject or object position. Two O(1) count-table lookups.
func (ec *evalContext) isNodeID(id store.ID) bool {
	return ec.g.CountID(id, store.NoID, store.NoID) > 0 ||
		ec.g.CountID(store.NoID, store.NoID, id) > 0
}

// pathReach returns the IDs the path reaches from `from` (backward: the
// IDs that reach it), in ascending ID order, memoized per (path, endpoint,
// direction) for the duration of one query evaluation.
//
// Memoized reachability is only valid for the graph snapshot the query
// started against, so the memo asserts stability via Graph.Version: if
// the graph mutated since Execute began (a contract violation — but one a
// mis-locked caller can commit), the memo is bypassed rather than serving
// reachability from a graph that no longer exists.
//
//feo:idspace
func (ec *evalContext) pathReach(p *Path, from store.ID, backward bool) []store.ID {
	k := pathIDKey{p, from, backward}
	memo := ec.g.Version() == ec.gver
	if v, ok := ec.pathMemo[k]; ok && memo {
		return v
	}
	reached := store.NewIDSet()
	ec.reach(p, from, backward, func(t store.ID) bool {
		reached.Add(t)
		return true
	})
	v := reached.AppendTo(make([]store.ID, 0, reached.Len()))
	if memo {
		if ec.pathMemo == nil {
			ec.pathMemo = make(map[pathIDKey][]store.ID)
		}
		ec.pathMemo[k] = v
	}
	return v
}

// pathStarts returns the start candidates of p in ascending ID order,
// memoized per path (the set is row-invariant, and the unbound-unbound
// shape probes it once per row). See pathReach for the version guard.
//
//feo:idspace
func (ec *evalContext) pathStarts(p *Path) []store.ID {
	memo := ec.g.Version() == ec.gver
	if v, ok := ec.pathStartMemo[p]; ok && memo {
		return v
	}
	starts := ec.startCandidates(p, false)
	v := starts.AppendTo(make([]store.ID, 0, starts.Len()))
	if memo {
		if ec.pathStartMemo == nil {
			ec.pathStartMemo = make(map[*Path][]store.ID)
		}
		ec.pathStartMemo[p] = v
	}
	return v
}

// pathPred returns the dictionary ID of an IRI step's predicate, or NoID
// when the dictionary does not know it. The BFS asks once per frontier
// node, so the lookup is memoized per path, under pathReach's version
// guard.
//
//feo:idspace
func (ec *evalContext) pathPred(p *Path) store.ID {
	memo := ec.g.Version() == ec.gver
	if id, ok := ec.pathPreds[p]; ok && memo {
		return id
	}
	id, known := ec.g.LookupID(p.IRI)
	if !known {
		id = store.NoID
	}
	if memo {
		if ec.pathPreds == nil {
			ec.pathPreds = make(map[*Path]store.ID)
		}
		ec.pathPreds[p] = id
	}
	return id
}

// reach calls emit for every ID the path connects `from` to (backward:
// every ID connected to `from`), possibly more than once; callers dedup.
// It stops as soon as emit returns false and reports whether it ran to
// completion. A predicate the dictionary does not know has no edges, and
// an extension-ID endpoint misses every index probe.
//
//feo:idspace
func (ec *evalContext) reach(p *Path, from store.ID, backward bool, emit func(store.ID) bool) bool {
	switch p.Kind {
	case PathIRI:
		pred := ec.pathPred(p)
		if pred == store.NoID {
			return true
		}
		ok := true
		step := func(t store.ID) bool {
			ok = emit(t)
			return ok
		}
		if backward {
			ec.g.ForEachSubjectID(pred, from, step)
		} else {
			ec.g.ForEachObjectID(from, pred, step)
		}
		return ok
	case PathInverse:
		return ec.reach(p.Kids[0], from, !backward, emit)
	case PathSeq:
		first, second := p.Kids[0], p.Kids[1]
		if backward {
			first, second = second, first
		}
		mids := store.NewIDSet()
		ec.reach(first, from, backward, func(m store.ID) bool {
			mids.Add(m)
			return true
		})
		return mids.ForEach(func(m store.ID) bool {
			return ec.reach(second, m, backward, emit)
		})
	case PathAlt:
		for _, kid := range p.Kids {
			if !ec.reach(kid, from, backward, emit) {
				return false
			}
		}
		return true
	case PathZeroOrOne:
		return emit(from) && ec.reach(p.Kids[0], from, backward, emit)
	case PathZeroOrMore, PathOneOrMore:
		return ec.closure(p.Kids[0], from, p.Kind == PathZeroOrMore, backward, emit)
	}
	return true
}

// closure is the BFS behind `*` (includeStart) and `+` over any step: each
// frontier node expands through reach, and visited — a bitmap whose Add
// doubles as the membership test — admits each reached ID once, into the
// next frontier and to emit. The deadline is polled once per level; a
// canceled walk ends with a partial closure, which the caller discards.
//
//feo:idspace
func (ec *evalContext) closure(step *Path, from store.ID, includeStart, backward bool, emit func(store.ID) bool) bool {
	visited := store.NewIDSet()
	if includeStart {
		visited.Add(from)
		if !emit(from) {
			return false
		}
	}
	frontier, next := []store.ID{from}, []store.ID(nil)
	expand := func(t store.ID) bool {
		if visited.Add(t) {
			next = append(next, t)
			return emit(t)
		}
		return true
	}
	for len(frontier) > 0 && !ec.canceled() {
		next = next[:0]
		for _, node := range frontier {
			if !ec.reach(step, node, backward, expand) {
				return false
			}
		}
		frontier, next = next, frontier
	}
	return true
}

// startCandidates returns a fresh set of every node a match of p can
// start from (backward: end at). An IRI starts at the subjects of its
// predicate and ends at its objects; a zero-width path can start at any
// node of the snapshot. The candidates are a superset of the real starts:
// a candidate the path leads nowhere from contributes no match.
//
//feo:idspace
func (ec *evalContext) startCandidates(p *Path, backward bool) *store.IDSet {
	out := store.NewIDSet()
	switch p.Kind {
	case PathIRI:
		pred := ec.pathPred(p)
		if pred == store.NoID {
			return out
		}
		ec.g.ForEachID(store.NoID, pred, store.NoID, func(s, _, o store.ID) bool {
			if backward {
				out.Add(o)
			} else {
				out.Add(s)
			}
			return true
		})
	case PathInverse:
		return ec.startCandidates(p.Kids[0], !backward)
	case PathSeq:
		if backward {
			return ec.startCandidates(p.Kids[1], backward)
		}
		return ec.startCandidates(p.Kids[0], backward)
	case PathAlt:
		for _, kid := range p.Kids {
			out.OrWith(ec.startCandidates(kid, backward))
		}
	case PathOneOrMore:
		return ec.startCandidates(p.Kids[0], backward)
	case PathZeroOrMore, PathZeroOrOne:
		for id := store.ID(0); int(id) < ec.dictLen; id++ {
			if ec.isNodeID(id) {
				out.Add(id)
			}
		}
	}
	return out
}
