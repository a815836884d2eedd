package sparql

import (
	"encoding/binary"
	"sync/atomic"

	"repro/internal/store"
)

// BGP plan compilation and the plan cache.
//
// Compiling a BGP — estimating selectivities, picking the greedy join
// order, encoding each pattern's constant IDs, and segmenting the ordered
// patterns into fused intersection runs — depends only on the pattern
// list, its constants, the graph version, and which slots are certainly
// bound on entry — a static set, derived top-down through the group that
// holds the BGP (groupStages), so every BGP of a query is planned once
// per execution, however many rows reach it. A repeated query (the
// serve-time steady state) therefore skips straight to execution.
//
// Lifetime rule: a plan lives exactly as long as the graph version it was
// compiled against. Plans are stored in that graph value's store.Memo;
// the memo hangs off the graph, so a pinned snapshot view keeps its plans
// hot for as long as it is pinned and the garbage collector reclaims both
// together afterwards, while a live graph's plans are dropped at its
// first lookup after a mutation. Plans are never reused across versions:
// a fused step embeds intersections of the version's index sets
// (sharedCand).
//
// Keys. A BGP whose constants are all part of the parse tree is keyed by
// (BGP identity, bound-slot set), and a hit skips compilation outright. A
// BGP of a cached template (lookupQuery) reads some constants from the
// execution's parameter vector, so each execution first estimates it —
// one LookupID per constant, one CountID per pattern — and picks its join
// order; the plan is keyed by (BGP identity, bound-slot set, that order),
// and a hit is rebound to this execution's constant IDs (rebind). The
// same template thus reuses its plans across constants while every
// execution runs the order its own constants call for, and a constant
// the graph never interned makes just that execution's BGP empty.

// bgpConstPos marks a pattern position that holds a constant ID.
const bgpConstPos = -1

// bgpSpec is one triple pattern of an ID pipeline: per position either a
// constant ID (slot == bgpConstPos) or an index into the row's slots.
type bgpSpec struct {
	ids  [3]store.ID
	slot [3]int
	pat  int // the pattern's index in the BGP, for rebind
}

// planStep is one execution step of a compiled BGP: either a single
// property-path pattern, one plain pattern expansion, or a fused run of
// patterns that all constrain the same single fresh slot.
type planStep struct {
	tp     TriplePattern // the path pattern, when isPath
	isPath bool
	specs  []bgpSpec // 1 = plain expand, >1 = fused intersection run
	// freeSlot is the run's single uncertain slot (fused runs only).
	freeSlot int
	// shared holds the run's row-invariant candidate sets (smallest
	// first) when every non-free position is constant; sharedCand their
	// pre-materialized dense intersection. nil: resolve per row.
	shared     []*store.IDSet
	sharedCand *store.IDSet
}

// bgpPlan is a compiled BGP: the reordered patterns broken into steps.
// Plans are immutable after compilation and safe for concurrent use.
type bgpPlan struct {
	// empty is set when a non-path pattern names a constant term the
	// graph has never seen: the conjunction can match nothing.
	empty bool
	steps []planStep
}

// planKey identifies a compiled plan within one graph version's memo: the
// BGP identity and sig, which encodes the slots certainly bound at entry
// (the join-order estimates and the fusion segmentation both depend on
// that set) and, for a template BGP, the join order.
type planKey struct {
	bgp *BGP
	sig string
}

// planCacheMax bounds each graph version's plan memo; on overflow that
// memo is emptied.
const planCacheMax = 4096

var (
	// planGen tags every plan memo; ResetPlanCache bumps it, so every
	// memo filled before the reset is replaced on its next lookup.
	planGen    atomic.Uint64
	planHits   atomic.Uint64
	planMisses atomic.Uint64
)

// PlanCacheStats returns the cumulative plan-cache hit and miss counts
// since process start (or the last ResetPlanCache). A repeated query on an
// unmodified graph hits; the first execution after any mutation misses.
func PlanCacheStats() (hits, misses uint64) {
	return planHits.Load(), planMisses.Load()
}

// ResetPlanCache discards every cached plan and zeroes the counters.
// Intended for tests and benchmarks that need a cold-plan baseline.
func ResetPlanCache() {
	planGen.Add(1)
	planHits.Store(0)
	planMisses.Store(0)
}

// appendBoundSig encodes the certainly-bound slot set: two little-endian
// bytes per bound slot index, collision-free up to 65536 slots (the env
// builder assigns dense indices, so any real query is far below that; a
// hypothetical wider one would panic here rather than alias two
// different bound sets onto one key).
func appendBoundSig(buf []byte, certain []bool) []byte {
	if len(certain) > 1<<16 {
		panic("sparql: query exceeds 65536 variable slots")
	}
	for s, b := range certain {
		if b {
			buf = append(buf, byte(s), byte(s>>8))
		}
	}
	return buf
}

// planBGP returns the plan for bgp entered by rows that bind every slot
// in certain, consulting the graph's plan memo unless join reordering is
// disabled (the A/B knob changes the plan shape and is not part of the
// key) or the graph mutated mid-query (the version the plan would be
// filed under is gone).
func (ec *evalContext) planBGP(bgp *BGP, certain []bool) *bgpPlan {
	cacheable := !DisableJoinReorder && ec.g.Version() == ec.gver
	var buf [64]byte
	sig := appendBoundSig(buf[:0], certain)
	var ibuf [8]patInfo
	if !bgp.hasParams() {
		if !cacheable {
			return ec.compileBGP(bgp, certain, ibuf[:0])
		}
		key := planKey{bgp: bgp, sig: string(sig)}
		if p := ec.loadPlan(key); p != nil {
			return p
		}
		return ec.storePlan(key, ec.compileBGP(bgp, certain, ibuf[:0]))
	}
	// A template BGP: estimate and order for this execution's constants.
	infos, empty := ec.estimateBGP(bgp.Triples, ibuf[:0])
	if empty {
		return &bgpPlan{empty: true}
	}
	var obuf [8]int
	order := orderBGP(infos, certain, obuf[:0])
	if !cacheable {
		return ec.segmentBGP(bgp, infos, order, certain)
	}
	var kbuf [64]byte
	key := binary.AppendUvarint(kbuf[:0], uint64(len(sig)))
	key = append(key, sig...)
	for _, i := range order {
		key = binary.AppendUvarint(key, uint64(i))
	}
	shared := planKey{bgp: bgp, sig: string(key)}
	if p := ec.loadPlan(shared); p != nil {
		return p.rebind(ec.g, infos)
	}
	return ec.storePlan(shared, ec.segmentBGP(bgp, infos, order, certain))
}

// loadPlan returns the plan filed under key in the graph's memo, or nil.
func (ec *evalContext) loadPlan(key planKey) *bgpPlan {
	if p, ok := ec.g.Memo(planGen.Load()).Load(key); ok {
		planHits.Add(1)
		return p.(*bgpPlan)
	}
	planMisses.Add(1)
	return nil
}

// storePlan files a freshly compiled plan under key and returns it.
func (ec *evalContext) storePlan(key planKey, p *bgpPlan) *bgpPlan {
	memo := ec.g.Memo(planGen.Load())
	if memo.Len() >= planCacheMax {
		memo.Clear()
	}
	memo.LoadOrStore(key, p)
	return p
}

// hasParams reports whether a pattern position reads the execution's
// parameter vector (the BGP belongs to a cached template).
func (bgp *BGP) hasParams() bool {
	for _, tp := range bgp.Triples {
		if tp.S.param|tp.P.param|tp.O.param != 0 {
			return true
		}
	}
	return false
}

// compileBGP estimates, orders and segments bgp; buf is scratch for the
// estimate.
func (ec *evalContext) compileBGP(bgp *BGP, certain []bool, buf []patInfo) *bgpPlan {
	infos, empty := ec.estimateBGP(bgp.Triples, buf)
	if empty {
		return &bgpPlan{empty: true}
	}
	return ec.segmentBGP(bgp, infos, orderBGP(infos, certain, nil), certain)
}

// segmentBGP encodes the ordered patterns and segments them into plan
// steps (fusing runs of patterns that share one fresh slot into
// intersection steps). Constant IDs come from the estimate.
func (ec *evalContext) segmentBGP(bgp *BGP, infos []patInfo, order []int, certain []bool) *bgpPlan {
	plan := &bgpPlan{}
	specs := make([]bgpSpec, len(order))
	for i, oi := range order {
		specs[i] = bgpSpec{ids: infos[oi].ids, slot: infos[oi].slots, pat: oi}
	}
	// Segment into steps, tracking which slots become certainly bound as
	// the pipeline executes (a pattern binds all its slots in every
	// surviving row; a path binds its endpoint slots).
	cert := append([]bool(nil), certain...)
	for i := 0; i < len(order); {
		tp := bgp.Triples[order[i]]
		if tp.Path != nil {
			plan.steps = append(plan.steps, planStep{tp: tp, isPath: true, freeSlot: -1})
			for _, tv := range [2]TermOrVar{tp.S, tp.O} {
				if tv.IsVar {
					if s := ec.env.slot(tv.Var); s >= 0 {
						cert[s] = true
					}
				}
			}
			i++
			continue
		}
		run := i
		freeSlot := -1
		if v, ok := fusableSlot(specs[i], cert); ok {
			freeSlot = v
			for run = i + 1; run < len(order); run++ {
				if bgp.Triples[order[run]].Path != nil {
					break
				}
				if v2, ok2 := fusableSlot(specs[run], cert); !ok2 || v2 != v {
					break
				}
			}
		}
		if run > i+1 {
			st := planStep{specs: specs[i:run:run], freeSlot: freeSlot}
			st.shared, st.sharedCand = fusedSharedSets(ec.g, st.specs, freeSlot)
			plan.steps = append(plan.steps, st)
			for _, spec := range st.specs {
				markCertain(spec, cert)
			}
			i = run
			continue
		}
		plan.steps = append(plan.steps, planStep{specs: specs[i : i+1 : i+1], freeSlot: -1})
		markCertain(specs[i], cert)
		i++
	}
	return plan
}

// rebind copies a template BGP's cached plan with this execution's
// constant IDs in every spec and its own row-invariant candidate sets.
// The steps, the order and the fusion segmentation are the cached ones.
func (p *bgpPlan) rebind(g *store.Graph, infos []patInfo) *bgpPlan {
	n := 0
	for _, st := range p.steps {
		n += len(st.specs)
	}
	out := &bgpPlan{steps: make([]planStep, len(p.steps))}
	specs := make([]bgpSpec, 0, n)
	for i, st := range p.steps {
		if !st.isPath {
			start := len(specs)
			for _, spec := range st.specs {
				spec.ids = infos[spec.pat].ids
				specs = append(specs, spec)
			}
			st.specs = specs[start:len(specs):len(specs)]
			if st.shared != nil {
				st.shared, st.sharedCand = fusedSharedSets(g, st.specs, st.freeSlot)
			}
		}
		out.steps[i] = st
	}
	return out
}

// DisableJoinReorder turns off selectivity-based BGP join reordering and
// evaluates triple patterns in their written order (plans are then always
// compiled fresh, bypassing the plan cache). The solution set is identical
// either way; the knob exists for A/B benchmarks and for tests that
// verify that equivalence.
var DisableJoinReorder = false

// patInfo is one pattern's part of a BGP estimate.
type patInfo struct {
	slots     [3]int      // slot per position, bgpConstPos when constant
	ids       [3]store.ID // constant IDs; NoID elsewhere
	baseCount int         // CountID over the constant positions
	isPath    bool
}

// estimateBGP looks every constant of the patterns up once — the IDs
// compilation encodes — and counts each plain pattern's constant
// positions. empty reports that some non-path pattern names a constant
// the graph has never interned (the BGP matches nothing). The estimate
// is appended to infos.
func (ec *evalContext) estimateBGP(tps []TriplePattern, infos []patInfo) ([]patInfo, bool) {
	for _, tp := range tps {
		pi := patInfo{isPath: tp.Path != nil, ids: [3]store.ID{store.NoID, store.NoID, store.NoID}}
		absent := false
		for j, tv := range [3]TermOrVar{tp.S, tp.P, tp.O} {
			pi.slots[j] = bgpConstPos
			if pi.isPath && j == 1 {
				continue // path position: no predicate term
			}
			if tv.IsVar {
				pi.slots[j] = ec.env.slot(tv.Var)
				continue
			}
			id, ok := ec.g.LookupID(ec.constOf(tv))
			if !ok {
				// A constant the graph never interned. For a plain pattern
				// the whole conjunction is empty; a path endpoint merely
				// counts as bound for estimation (zero-width paths can
				// still match it).
				if !pi.isPath {
					return nil, true
				}
				absent = true
				continue
			}
			pi.ids[j] = id
		}
		if !pi.isPath && !absent {
			pi.baseCount = ec.g.CountID(pi.ids[0], pi.ids[1], pi.ids[2])
		}
		infos = append(infos, pi)
	}
	return infos, false
}

// orderBGP returns indices of the BGP's triple patterns in a greedy join
// order: repeatedly pick the pattern with the lowest estimated cardinality
// given the slots bound so far, so selective patterns run first and each
// join extends as few intermediate rows as possible. The solution multiset
// of a conjunctive BGP is invariant under join order, so results are
// identical to the written order. The order is appended to order.
func orderBGP(infos []patInfo, certain []bool, order []int) []int {
	if len(infos) < 2 || DisableJoinReorder {
		for i := range infos {
			order = append(order, i)
		}
		return order
	}
	bound := append([]bool(nil), certain...)
	const pathCost = int(^uint(0) >> 1)
	estimate := func(pi patInfo) int {
		if pi.isPath {
			// Paths carry no index statistics. A path whose endpoints are
			// already bound is a near-constant reachability check and
			// should run as soon as it can prune; with endpoints free it
			// can enumerate large closures, so it goes last.
			boundEnds := 0
			if pi.slots[0] == bgpConstPos || bound[pi.slots[0]] {
				boundEnds++
			}
			if pi.slots[2] == bgpConstPos || bound[pi.slots[2]] {
				boundEnds++
			}
			switch boundEnds {
			case 2:
				return 8
			case 1:
				return 4096
			default:
				return pathCost
			}
		}
		// Each position held by an already-bound slot shrinks the
		// estimate: the join will probe with a concrete ID even though we
		// could not count it upfront.
		est := pi.baseCount
		for _, s := range pi.slots {
			if s != bgpConstPos && bound[s] && est > 1 {
				est = est/8 + 1
			}
		}
		return est
	}
	used := make([]bool, len(infos))
	for range infos {
		best, bestEst := -1, 0
		for i := range infos {
			if used[i] {
				continue
			}
			est := estimate(infos[i])
			if best < 0 || est < bestEst {
				best, bestEst = i, est
			}
		}
		used[best] = true
		order = append(order, best)
		for _, s := range infos[best].slots {
			if s != bgpConstPos {
				bound[s] = true
			}
		}
	}
	return order
}

// fusableSlot reports whether exactly one position of spec holds a slot
// not yet certainly bound, returning that slot. Such a pattern resolves,
// per row, to a single index-level candidate set — the shape the fused
// intersection join consumes. A pattern repeating its one fresh variable
// in two positions has two uncertain positions and is rejected, as is a
// pattern whose positions are all constants or certain (a pure existence
// test, which the plain expander handles without allocating).
func fusableSlot(spec bgpSpec, certain []bool) (int, bool) {
	free, n := -1, 0
	for j := 0; j < 3; j++ {
		if s := spec.slot[j]; s != bgpConstPos && !certain[s] {
			free = s
			n++
		}
	}
	return free, n == 1
}

// markCertain records that spec's slots are bound in every surviving row
// (expansion binds all of a pattern's slots).
func markCertain(spec bgpSpec, certain []bool) {
	for j := 0; j < 3; j++ {
		if spec.slot[j] != bgpConstPos {
			certain[spec.slot[j]] = true
		}
	}
}

// fusedSharedSets resolves a fused run's candidate sets when they are
// row-invariant: every position of every pattern other than the free slot
// holds a constant, so the per-row probes never differ. The live index
// sets are returned smallest first (the iteration/And order that does the
// least work); nil sets means some pattern reads another (certainly
// bound) slot and the sets must be resolved per row. When the smallest
// set is dense enough for word-level ANDs to pay off, cand is the
// materialized intersection, computed exactly once for the whole plan.
func fusedSharedSets(g *store.Graph, specs []bgpSpec, freeSlot int) (sets []*store.IDSet, cand *store.IDSet) {
	for _, spec := range specs {
		for j := 0; j < 3; j++ {
			if s := spec.slot[j]; s != bgpConstPos && s != freeSlot {
				return nil, nil
			}
		}
	}
	sets = make([]*store.IDSet, 0, len(specs))
	for _, spec := range specs {
		var probe [3]store.ID
		for j := 0; j < 3; j++ {
			if spec.slot[j] == bgpConstPos {
				probe[j] = spec.ids[j]
			} else {
				probe[j] = store.NoID
			}
		}
		sets = append(sets, g.MatchSetID(probe[0], probe[1], probe[2]))
	}
	sortSetsByLen(sets)
	if sets[0].Len() >= fusedAndMin {
		cand = andAll(sets)
	}
	return sets, cand
}

// andAll folds ≥ 2 sets (smallest first) into their intersection with
// word-level ANDs, stopping as soon as the product empties. The result is
// always a fresh set, never a live index level.
func andAll(sets []*store.IDSet) *store.IDSet {
	cand := sets[0].And(sets[1])
	for _, s := range sets[2:] {
		if cand.Len() == 0 {
			break
		}
		cand = cand.And(s)
	}
	return cand
}

// sortSetsByLen orders a handful of sets by ascending cardinality
// (insertion sort: runs are 2-4 patterns long).
func sortSetsByLen(sets []*store.IDSet) {
	for i := 1; i < len(sets); i++ {
		for j := i; j > 0 && sets[j].Len() < sets[j-1].Len(); j-- {
			sets[j], sets[j-1] = sets[j-1], sets[j]
		}
	}
}

// fusedAndMin is the smallest-candidate-set size at which materializing
// the word-level AND beats iterating the smallest set and probing the
// others. Below it the intersection runs allocation-free.
const fusedAndMin = 1024
