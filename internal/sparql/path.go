package sparql

import (
	"repro/internal/rdf"
	"repro/internal/store"
	"sort"
)

// pathStep is the push step of a triple pattern whose predicate is a
// property path: it extends each row with every (subject, object) pair
// the path connects. Rows stay in ID space: endpoints resolve from row
// slots, the per-(path, endpoint) reachability memo stores encoded ID
// lists, and the underlying closure walks run on the bitmap indexes where
// the path shape allows. Terms are decoded only once per distinct memo
// fill, never per row.
//
// The evaluation direction is chosen from the bound ends: bound→unbound
// uses forward or backward reachability; bound→bound is a reachability
// test; and unbound→unbound enumerates path matches from every candidate
// start node.
// A variable path endpoint only ever binds a node of the graph (a term
// used as subject or object). Without this restriction zero-width paths
// would make BGP results depend on join order: `?x p* ?y` joined against
// a pattern binding ?y to a predicate-only term would reflexively match
// when the path runs last (?y arrives bound, zero-length x=y) but not
// when it runs first (the unbound enumeration ranges over nodes). The
// node rule makes the pattern's solution set a fixed multiset, invariant
// under the planner's ordering — the randomized reference-equivalence
// harness enforces exactly that. Constant endpoints are taken as given
// (`<x> p* <x>` holds for any term, matching the zero-length-path spec).
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
			return !ec.pathReachesID(tp.Path, sID, oID) || next(r)
		case sID != store.NoID:
			for _, t := range ec.pathForwardIDs(tp.Path, sID) {
				// Only the zero-length self can be a non-node.
				if ec.isNodeID(t) && !bind(r, sID, t) {
					return false
				}
			}
		case oID != store.NoID:
			for _, t := range ec.pathBackwardIDs(tp.Path, oID) {
				if ec.isNodeID(t) && !bind(r, t, oID) {
					return false
				}
			}
		default:
			// Both unbound: enumerate from all (node) start candidates; for
			// ?x path ?x only self-reaching starts match.
			for _, start := range ec.pathStartIDs(tp.Path) {
				for _, t := range ec.pathForwardIDs(tp.Path, start) {
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

// pathForwardIDs memoizes the encoded forward reachability of (path,
// endpoint) for the duration of one query evaluation.
//
// Memoized reachability is only valid for the graph snapshot the query
// started against, so the caches assert stability via Graph.Version: if
// the graph mutated since Execute began (a contract violation — but one a
// mis-locked caller can commit), the memo is bypassed rather than serving
// reachability from a graph that no longer exists.
func (ec *evalContext) pathForwardIDs(p *Path, from store.ID) []store.ID {
	if ec.g.Version() != ec.gver {
		return ec.encodeTerms(ec.pathForward(p, ec.termOf(from)))
	}
	k := pathIDKey{p, from}
	if v, ok := ec.pathFwd[k]; ok {
		return v
	}
	v := ec.encodeTerms(ec.pathForward(p, ec.termOf(from)))
	if ec.pathFwd == nil {
		ec.pathFwd = make(map[pathIDKey][]store.ID)
	}
	ec.pathFwd[k] = v
	return v
}

// pathBackwardIDs memoizes backward reachability per (path, endpoint);
// see pathForwardIDs for the version guard.
func (ec *evalContext) pathBackwardIDs(p *Path, to store.ID) []store.ID {
	if ec.g.Version() != ec.gver {
		return ec.encodeTerms(ec.pathBackward(p, ec.termOf(to)))
	}
	k := pathIDKey{p, to}
	if v, ok := ec.pathBwd[k]; ok {
		return v
	}
	v := ec.encodeTerms(ec.pathBackward(p, ec.termOf(to)))
	if ec.pathBwd == nil {
		ec.pathBwd = make(map[pathIDKey][]store.ID)
	}
	ec.pathBwd[k] = v
	return v
}

// pathReachesID tests whether `to` is reachable from `from` via the path.
func (ec *evalContext) pathReachesID(p *Path, from, to store.ID) bool {
	for _, t := range ec.pathForwardIDs(p, from) {
		if t == to {
			return true
		}
	}
	return false
}

// pathStartIDs memoizes the encoded start-candidate set per path (the set
// is row-invariant, and the unbound-unbound shape probes it once per row).
func (ec *evalContext) pathStartIDs(p *Path) []store.ID {
	if ec.g.Version() != ec.gver {
		return ec.encodeTerms(ec.pathStartCandidates(p))
	}
	if v, ok := ec.pathStarts[p]; ok {
		return v
	}
	v := ec.encodeTerms(ec.pathStartCandidates(p))
	if ec.pathStarts == nil {
		ec.pathStarts = make(map[*Path][]store.ID)
	}
	ec.pathStarts[p] = v
	return v
}

// pathForward returns the set of nodes reachable from `from` via the path.
func (ec *evalContext) pathForward(p *Path, from rdf.Term) []rdf.Term {
	switch p.Kind {
	case PathIRI:
		return ec.g.Objects(from, p.IRI)
	case PathInverse:
		return ec.pathBackward(p.Kids[0], from)
	case PathSeq:
		mids := ec.pathForward(p.Kids[0], from)
		seen := make(map[rdf.Term]bool)
		var out []rdf.Term
		for _, m := range mids {
			for _, t := range ec.pathForward(p.Kids[1], m) {
				if !seen[t] {
					seen[t] = true
					out = append(out, t)
				}
			}
		}
		return out
	case PathAlt:
		seen := make(map[rdf.Term]bool)
		var out []rdf.Term
		for _, kid := range p.Kids {
			for _, t := range ec.pathForward(kid, from) {
				if !seen[t] {
					seen[t] = true
					out = append(out, t)
				}
			}
		}
		return out
	case PathZeroOrOne:
		out := []rdf.Term{from}
		seen := map[rdf.Term]bool{from: true}
		for _, t := range ec.pathForward(p.Kids[0], from) {
			if !seen[t] {
				out = append(out, t)
			}
		}
		return out
	case PathZeroOrMore, PathOneOrMore:
		return ec.closure(p.Kids[0], from, p.Kind == PathZeroOrMore, false)
	}
	return nil
}

// pathBackward returns the set of nodes from which `to` is reachable.
func (ec *evalContext) pathBackward(p *Path, to rdf.Term) []rdf.Term {
	switch p.Kind {
	case PathIRI:
		return ec.g.Subjects(p.IRI, to)
	case PathInverse:
		return ec.pathForward(p.Kids[0], to)
	case PathSeq:
		mids := ec.pathBackward(p.Kids[1], to)
		seen := make(map[rdf.Term]bool)
		var out []rdf.Term
		for _, m := range mids {
			for _, t := range ec.pathBackward(p.Kids[0], m) {
				if !seen[t] {
					seen[t] = true
					out = append(out, t)
				}
			}
		}
		return out
	case PathAlt:
		seen := make(map[rdf.Term]bool)
		var out []rdf.Term
		for _, kid := range p.Kids {
			for _, t := range ec.pathBackward(kid, to) {
				if !seen[t] {
					seen[t] = true
					out = append(out, t)
				}
			}
		}
		return out
	case PathZeroOrOne:
		out := []rdf.Term{to}
		seen := map[rdf.Term]bool{to: true}
		for _, t := range ec.pathBackward(p.Kids[0], to) {
			if !seen[t] {
				out = append(out, t)
			}
		}
		return out
	case PathZeroOrMore, PathOneOrMore:
		return ec.closure(p.Kids[0], to, p.Kind == PathZeroOrMore, true)
	}
	return nil
}

// closure performs BFS over single path steps. includeStart selects
// zero-or-more semantics; backward reverses the step direction. When the
// step is built only from plain, inverted, or alternated predicates the
// walk runs on dictionary IDs; composite steps fall back to term-level BFS.
func (ec *evalContext) closure(step *Path, start rdf.Term, includeStart, backward bool) []rdf.Term {
	if out, ok := ec.closureIDs(step, start, includeStart, backward); ok {
		return out
	}
	return ec.closureTerms(step, start, includeStart, backward)
}

// closureIDs is the ID-level BFS: each frontier expansion probes the SPO /
// POS indexes with uint32 keys and nothing is decoded until the closure is
// complete. The visited and frontier sets are bitmaps, so the per-level
// bookkeeping is set algebra — fresh = successors AndNot visited, visited
// OrWith fresh — over 64-bit words instead of a hash probe per reached
// node, and the result enumerates in ascending ID order.
// ok=false when the step contains sequence/optional/nested-closure
// operators, which the flattening below does not model.
func (ec *evalContext) closureIDs(step *Path, start rdf.Term, includeStart, backward bool) ([]rdf.Term, bool) {
	var fwd, inv []store.ID
	var flatten func(p *Path, inverted bool) bool
	flatten = func(p *Path, inverted bool) bool {
		switch p.Kind {
		case PathIRI:
			id, ok := ec.g.LookupID(p.IRI)
			if !ok {
				return true // predicate absent from graph: no edges
			}
			if inverted {
				inv = append(inv, id)
			} else {
				fwd = append(fwd, id)
			}
			return true
		case PathInverse:
			return flatten(p.Kids[0], !inverted)
		case PathAlt:
			for _, kid := range p.Kids {
				if !flatten(kid, inverted) {
					return false
				}
			}
			return true
		default:
			return false
		}
	}
	if !flatten(step, backward) {
		return nil, false
	}
	startID, known := ec.g.LookupID(start)
	if !known {
		if includeStart {
			return []rdf.Term{start}, true
		}
		return nil, true
	}
	// visited is the closure's dedup bitmap — Add doubles as the membership
	// test — and the frontier is a slice of the IDs Add just admitted. The
	// walk allocates only visited and two level buffers, no matter how many
	// levels the BFS runs.
	visited := store.NewIDSet()
	if includeStart {
		visited.Add(startID)
	}
	frontier := []store.ID{startID}
	var next []store.ID
	for len(frontier) > 0 {
		if ec.canceled() {
			break // deadline: partial closure, discarded by the caller
		}
		next = next[:0]
		for _, node := range frontier {
			expand := func(t store.ID) bool {
				if visited.Add(t) {
					next = append(next, t)
				}
				return true
			}
			for _, p := range fwd {
				ec.g.ForEachObjectID(node, p, expand)
			}
			for _, p := range inv {
				ec.g.ForEachSubjectID(p, node, expand)
			}
		}
		frontier, next = next, frontier
	}
	// The result enumerates the visited bitmap in ascending ID order.
	// (Under one-or-more semantics the start is absent unless the walk
	// reached it, exactly as the includeStart seeding above arranged.)
	reached := visited.AppendTo(make([]store.ID, 0, visited.Len()))
	out := make([]rdf.Term, len(reached))
	for i, id := range reached {
		out[i] = ec.g.TermOf(id)
	}
	return out, true
}

func (ec *evalContext) closureTerms(step *Path, start rdf.Term, includeStart, backward bool) []rdf.Term {
	visited := make(map[rdf.Term]bool)
	var out []rdf.Term
	if includeStart {
		visited[start] = true
		out = append(out, start)
	}
	frontier := []rdf.Term{start}
	for len(frontier) > 0 {
		if ec.canceled() {
			break // deadline: partial closure, discarded by the caller
		}
		var next []rdf.Term
		for _, node := range frontier {
			var steps []rdf.Term
			if backward {
				steps = ec.pathBackward(step, node)
			} else {
				steps = ec.pathForward(step, node)
			}
			for _, t := range steps {
				if !visited[t] {
					visited[t] = true
					out = append(out, t)
					next = append(next, t)
				}
			}
		}
		frontier = next
	}
	if !includeStart {
		// One-or-more: the start itself is only a result if reachable in ≥1
		// step, which the BFS above established via visited.
		return out
	}
	return out
}

// pathStartCandidates returns the nodes that can possibly start a path match
// when both ends are unbound: for zero-width paths every subject and object,
// otherwise the subjects of the leftmost predicate.
func (ec *evalContext) pathStartCandidates(p *Path) []rdf.Term {
	switch p.Kind {
	case PathIRI:
		seen := make(map[rdf.Term]bool)
		var out []rdf.Term
		ec.g.ForEach(store.Wildcard, p.IRI, store.Wildcard, func(t rdf.Triple) bool {
			if !seen[t.S] {
				seen[t.S] = true
				out = append(out, t.S)
			}
			return true
		})
		sortTerms(out)
		return out
	case PathInverse:
		return ec.pathEndCandidates(p.Kids[0])
	case PathSeq:
		return ec.pathStartCandidates(p.Kids[0])
	case PathAlt:
		seen := make(map[rdf.Term]bool)
		var out []rdf.Term
		for _, kid := range p.Kids {
			for _, t := range ec.pathStartCandidates(kid) {
				if !seen[t] {
					seen[t] = true
					out = append(out, t)
				}
			}
		}
		return out
	case PathOneOrMore:
		return ec.pathStartCandidates(p.Kids[0])
	case PathZeroOrMore, PathZeroOrOne:
		// Zero-width paths can start at any node in the graph.
		return ec.allNodes()
	}
	return nil
}

func (ec *evalContext) pathEndCandidates(p *Path) []rdf.Term {
	switch p.Kind {
	case PathIRI:
		seen := make(map[rdf.Term]bool)
		var out []rdf.Term
		ec.g.ForEach(store.Wildcard, p.IRI, store.Wildcard, func(t rdf.Triple) bool {
			if !seen[t.O] {
				seen[t.O] = true
				out = append(out, t.O)
			}
			return true
		})
		sortTerms(out)
		return out
	default:
		return ec.allNodes()
	}
}

func (ec *evalContext) allNodes() []rdf.Term {
	seen := make(map[rdf.Term]bool)
	var out []rdf.Term
	ec.g.ForEach(store.Wildcard, store.Wildcard, store.Wildcard, func(t rdf.Triple) bool {
		if !seen[t.S] {
			seen[t.S] = true
			out = append(out, t.S)
		}
		if !seen[t.O] {
			seen[t.O] = true
			out = append(out, t.O)
		}
		return true
	})
	sortTerms(out)
	return out
}

// sortTerms orders candidate lists so path evaluation visits start/end
// nodes in a reproducible order regardless of index-map iteration.
func sortTerms(ts []rdf.Term) {
	sort.Slice(ts, func(i, j int) bool { return rdf.Compare(ts[i], ts[j]) < 0 })
}
