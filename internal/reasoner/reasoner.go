package reasoner

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/rdf"
	"repro/internal/store"
)

// Options configures a materialization run.
type Options struct {
	// Naive selects full re-evaluation each round instead of delta-driven
	// semi-naive evaluation: every round rebuilds the expression table and
	// applies every rule to every triple. It is the reference the
	// semi-naive engine is tested against and the ablation benchmark's
	// baseline; results are identical, only slower. A naive Reasoner never
	// takes the incremental path: MaterializeChanges falls back to full
	// runs.
	Naive bool
	// MaxRounds bounds naive evaluation rounds (and acts as a safety valve
	// for semi-naive). Zero means the default of 1000.
	MaxRounds int
	// TraceDerivations records, for every inferred triple, the rule and
	// premises that first produced it. Required for trace-based
	// explanations. The trace is held in dictionary IDs with no pointers:
	// one map entry (a 12-byte ID triple keying a 12-byte record) per
	// inferred triple plus 12 bytes per premise in a shared arena — about
	// 70 B per derivation, none of which the GC has to scan. A trace
	// restored from a snapshot is a sorted run instead: 24 B per entry
	// plus its premises, and nothing hashed (see RestoreClosure).
	TraceDerivations bool
	// IncludeReflexive additionally materializes the reflexive
	// rdfs:subClassOf/subPropertyOf triples of OWL RL rule scm-cls/scm-op.
	// The paper's SPARQL listings assume Protégé-style inferred exports,
	// which omit reflexive axioms, so the default is false.
	IncludeReflexive bool
}

// Derivation records how an inferred triple was first derived.
type Derivation struct {
	Rule     string       // OWL RL rule name, e.g. "cax-sco"
	Premises []rdf.Triple // the triples that matched the rule body
}

// Stats summarizes a materialization run.
type Stats struct {
	// Asserted counts the caller-asserted triples in the graph at the start
	// of the run: the graph size minus every triple this Reasoner inferred
	// in earlier runs on the same graph. (A fresh Reasoner pointed at an
	// already-materialized graph cannot tell inherited inferences from
	// assertions and counts them as asserted.)
	Asserted int
	// Inferred counts the new triples THIS run added — a per-run delta,
	// zero for a run that found the closure already complete.
	Inferred int
	// TotalInferred counts the triples this Reasoner inferred across all
	// its runs on the current graph, cumulative.
	TotalInferred int
	// Delta reports whether the run took the incremental path (seeded by a
	// mutation delta) instead of re-running over the whole graph. A delta
	// run that inferred a structural triple went on over the whole graph
	// and reports false.
	Delta       bool
	Rounds      int // triples processed (semi-naive) or naive rounds
	RuleFirings map[string]int
	Duration    time.Duration
}

// String renders the stats compactly for CLI output.
func (s Stats) String() string {
	mode := "full"
	if s.Delta {
		mode = "delta"
	}
	return fmt.Sprintf("asserted=%d inferred=%d total-inferred=%d mode=%s rounds=%d duration=%s",
		s.Asserted, s.Inferred, s.TotalInferred, mode, s.Rounds, s.Duration)
}

// iTriple is a dictionary-encoded triple. The whole rule engine — queue,
// joins, premise bookkeeping — and the derivation trace and journal run on
// these 12-byte values; rdf.Triple is only materialized at the public API
// boundary (Derivation, Proof, StaleDerivations, JournalSince), and only
// for what that call returns. It is a local type rather than an alias of
// store.IDTriple so the rule bodies can keep their positional literals;
// the two convert freely.
type iTriple struct {
	S, P, O store.ID
}

// derivation is one trace entry: the rule (an index into Reasoner.rules)
// and the premises r.premises[off : off+n]. Three uint32s, no pointers.
type derivation struct {
	rule, off, n uint32
}

// vocab holds the interned IDs of every RDF/RDFS/OWL term the rule bodies
// dispatch on. Interning happens once per full Materialize; afterwards
// predicate dispatch and joins compare uint32s instead of hashing term
// structs.
type vocab struct {
	typ, sco, spo, dom, rng, inv, eqc, eqp, same store.ID
	trans, sym, funcP, invFunc, thing, class     store.ID
	inter, union, onProp, svf, avf, hv, chain    store.ID
	first, rest                                  store.ID
}

func internVocab(g *store.Graph) vocab {
	return vocab{
		typ:     g.InternTerm(rdf.TypeIRI),
		sco:     g.InternTerm(rdf.SubClassOfIRI),
		spo:     g.InternTerm(rdf.SubPropertyOfIRI),
		dom:     g.InternTerm(rdf.DomainIRI),
		rng:     g.InternTerm(rdf.RangeIRI),
		inv:     g.InternTerm(rdf.InverseOfIRI),
		eqc:     g.InternTerm(rdf.EquivClassIRI),
		eqp:     g.InternTerm(rdf.EquivPropIRI),
		same:    g.InternTerm(rdf.SameAsIRI),
		trans:   g.InternTerm(rdf.NewIRI(rdf.OWLTransitiveProperty)),
		sym:     g.InternTerm(rdf.NewIRI(rdf.OWLSymmetricProperty)),
		funcP:   g.InternTerm(rdf.NewIRI(rdf.OWLFunctionalProperty)),
		invFunc: g.InternTerm(rdf.NewIRI(rdf.OWLInverseFunctional)),
		thing:   g.InternTerm(rdf.ThingIRI),
		class:   g.InternTerm(rdf.ClassIRI),
		inter:   g.InternTerm(rdf.NewIRI(rdf.OWLIntersectionOf)),
		union:   g.InternTerm(rdf.NewIRI(rdf.OWLUnionOf)),
		onProp:  g.InternTerm(rdf.NewIRI(rdf.OWLOnProperty)),
		svf:     g.InternTerm(rdf.NewIRI(rdf.OWLSomeValuesFrom)),
		avf:     g.InternTerm(rdf.NewIRI(rdf.OWLAllValuesFrom)),
		hv:      g.InternTerm(rdf.NewIRI(rdf.OWLHasValue)),
		chain:   g.InternTerm(rdf.NewIRI(rdf.OWLPropertyChainAxiom)),
		first:   g.InternTerm(rdf.FirstIRI),
		rest:    g.InternTerm(rdf.RestIRI),
	}
}

// structuralIDs returns the set of predicate IDs whose triples feed the
// expression table (see schema.go), as a bitmap probed once per delta op
// and per inference. A delta holding one of them runs full; an inference
// of one marks the table stale, and saturate rebuilds it.
func (v vocab) structuralIDs() *store.IDSet {
	s := store.NewIDSet()
	for _, id := range []store.ID{
		v.inter, v.union, v.onProp, v.svf, v.avf, v.hv, v.chain, v.first, v.rest,
	} {
		s.Add(id)
	}
	return s
}

// Reasoner materializes OWL 2 RL consequences into a graph.
//
// # Incremental contract
//
// A Reasoner carries its closure state — interned vocabulary, the parsed
// expression table, cumulative statistics, and (with TraceDerivations) the
// derivation map — across calls on the same graph. After a completed run,
// MaterializeChanges extends the closure with only the consequences of
// newly added triples: the semi-naive queue is seeded with the delta
// instead of the whole graph. The write-side cost is O(|delta closure|),
// not O(|graph|).
//
// The incremental path silently falls back to a full run whenever its
// preconditions fail: a different or never-materialized graph, a mutation
// the change set did not record (version mismatch), Graph.Clear, a naive
// Reasoner, any removal in the change set, or any structural triple
// (owl:intersectionOf, owl:unionOf, restrictions, property chains, and
// their rdf:first/rdf:rest lists) in it. Removals fall back because
// materialization is monotonic — consequences of removed triples are NOT
// retracted (see StaleDerivations for detecting proofs that lost support),
// and a removed triple that is still derivable comes back. Structural
// triples fall back because the expression table is only built whole; a
// delta run that infers one escalates to a full pass the same way and
// reports Stats.Delta = false.
type Reasoner struct {
	opts Options
	g    *store.Graph
	// dict is the graph's term dictionary at bind time; Graph.Clear swaps
	// the dictionary, which invalidates every cached ID and trace entry.
	dict      *store.TermDict
	v         vocab
	structIDs *store.IDSet
	expr      *exprTable
	queue     []iTriple
	stats     Stats
	// The derivation trace maps each inferred triple to its first
	// derivation. It persists across runs so proofs over old and new
	// inferences keep working after incremental updates, and it has two
	// parts: run, the read-only sorted run RestoreClosure installed, and
	// derivations, every derivation recorded since, which shadows run
	// for the same conclusion. Conclusions and premises are IDs of dict;
	// a dictionary swap drops the whole trace (see bind).
	run         []IDDerivation
	derivations map[iTriple]derivation
	// premises is the append-only arena every derivation's premise list
	// lives in. It is never rewritten in place: ClosureState hands out
	// subslices of it that a compaction may still be reading after the
	// writer lock is released, so a reset allocates a new arena instead.
	premises []store.IDTriple
	// rules interns rule names; derivation.rule indexes it.
	rules   []string
	ruleIDs map[string]uint32
	// exprStale reports that the run inferred a structural triple the
	// expression table does not reflect yet (see saturate).
	exprStale bool
	// totalInferred accumulates inferred-triple counts across runs on the
	// same graph; it backs the Stats.Asserted/TotalInferred split.
	totalInferred int
	// lastVersion is the graph's mutation version when the last run
	// finished; MaterializeChanges refuses the delta path unless the change
	// set spans exactly [lastVersion, current].
	lastVersion uint64
	// prepared reports that vocab/expr/lastVersion describe a completed
	// closure of g.
	prepared bool
	startLen int
	// journaling/journal implement the derivation journal (see state.go):
	// when enabled, every newly recorded derivation's conclusion is
	// appended here in inference order so commit-scoped consumers can read
	// exact derivation deltas via JournalSince. Positions below
	// journalFloor were journaled against a dictionary that has since been
	// replaced; their IDs mean nothing in the current one.
	journaling   bool
	journal      []iTriple
	journalFloor int
}

// New returns a Reasoner with the given options.
func New(opts Options) *Reasoner {
	if opts.MaxRounds == 0 {
		opts.MaxRounds = 1000
	}
	return &Reasoner{opts: opts, ruleIDs: make(map[string]uint32)}
}

// Materialize computes the OWL RL closure of g in place and returns run
// statistics. It can be called again after further assertions; the closure
// is recomputed from the full graph. When the mutations since the previous
// run were captured, MaterializeChanges does the same work in time
// proportional to the delta instead.
func (r *Reasoner) Materialize(g *store.Graph) Stats {
	start := time.Now()
	r.bind(g)
	r.beginRun(false)
	if r.opts.Naive {
		r.runNaive()
	} else {
		r.expr = buildExprTable(g, r.v)
		r.queue = r.snapshot()
		r.saturate()
	}
	return r.finishRun(start)
}

// MaterializeChanges brings the closure of g up to date after the mutations
// recorded in cs (stopping the capture if it is still active). When the
// change set proves the only mutations since the last run were additions,
// the closure is extended incrementally, seeded straight from the
// capture's ID-space op stream (IDOps, nothing decoded); any removal, a
// structural triple, a Clear, a version gap, or a foreign or
// never-materialized graph falls back to a full Materialize. A nil change
// set always runs full.
func (r *Reasoner) MaterializeChanges(g *store.Graph, cs *store.ChangeSet) Stats {
	cs.Stop()
	if cs == nil || cs.Graph() != g || !r.canDelta(g) || cs.Cleared() ||
		cs.BaseVersion() != r.lastVersion || cs.EndVersion() != g.Version() {
		return r.Materialize(g)
	}
	ops := cs.IDOps()
	seed := make([]iTriple, len(ops))
	for i, op := range ops {
		if op.Remove || r.structIDs.Contains(op.T.P) {
			return r.Materialize(g)
		}
		seed[i] = iTriple{op.T.S, op.T.P, op.T.O}
	}
	return r.runDelta(seed)
}

// canDelta reports whether this Reasoner holds reusable closure state for g.
func (r *Reasoner) canDelta(g *store.Graph) bool {
	return r.prepared && r.g == g && !r.opts.Naive
}

// runDelta seeds the semi-naive queue with just the delta and saturates
// it.
func (r *Reasoner) runDelta(seed []iTriple) Stats {
	start := time.Now()
	r.beginRun(true)
	r.queue = append(r.queue[:0], seed...)
	r.saturate()
	return r.finishRun(start)
}

// bind points the Reasoner at g, resetting cumulative state when the graph
// changed, and (re-)interns the vocabulary. Graph.Clear replaces the term
// dictionary without changing the graph's identity, so the dictionary
// pointer is part of the identity check: after a Clear the cumulative
// inferred count and the derivation trace describe triples that no longer
// exist and are dropped with the old dictionary.
func (r *Reasoner) bind(g *store.Graph) {
	if r.g != g || r.dict != g.Dict() {
		r.g = g
		r.dict = g.Dict()
		r.totalInferred = 0
		if r.derivations != nil {
			r.resetTrace(0)
		}
	}
	r.prepared = false
	r.v = internVocab(g)
	r.structIDs = r.v.structuralIDs()
}

// beginRun resets the per-run statistics.
func (r *Reasoner) beginRun(delta bool) {
	r.startLen = r.g.Len()
	if r.totalInferred > r.startLen {
		// More recorded inferences than triples: the graph shrank under us
		// (Clear, or removals of inferred triples). The split is lost;
		// restart the cumulative count rather than report negatives.
		r.totalInferred = 0
	}
	r.stats = Stats{
		Asserted:    r.startLen - r.totalInferred,
		Delta:       delta,
		RuleFirings: make(map[string]int),
	}
	if r.opts.TraceDerivations && r.derivations == nil {
		r.resetTrace(0)
	}
}

// resetTrace starts an empty derivation trace whose map is sized for n
// entries, in a fresh premise arena (the old one may still be aliased by
// an exported ClosureState). Journal entries recorded so far become
// unreachable.
func (r *Reasoner) resetTrace(n int) {
	r.run = nil
	r.derivations = make(map[iTriple]derivation, n)
	r.premises = nil
	r.journalFloor = len(r.journal)
}

// traceValid reports whether the trace describes r.g's current
// dictionary. Graph.Clear swaps the dictionary under the Reasoner; until
// the next run rebinds, the recorded IDs would decode to unrelated terms,
// so every trace read treats the trace as empty.
func (r *Reasoner) traceValid() bool {
	return r.g != nil && r.dict == r.g.Dict()
}

// derivationOf returns the recorded derivation of t, if the trace is
// valid: from the map when it holds t, else by binary search of the run.
func (r *Reasoner) derivationOf(t iTriple) (derivation, bool) {
	if !r.traceValid() {
		return derivation{}, false
	}
	if d, ok := r.derivations[t]; ok {
		return d, true
	}
	i, ok := slices.BinarySearchFunc(r.run, store.IDTriple(t), func(e IDDerivation, t store.IDTriple) int {
		return compareIDTriples(e.Conclusion, t)
	})
	if !ok {
		return derivation{}, false
	}
	return r.run[i].entry(), true
}

// record stores the derivation of concl whose premises were just appended
// to the arena at r.premises[off:].
//
//feo:idspace
func (r *Reasoner) record(concl iTriple, rule string, off int) {
	id, ok := r.ruleIDs[rule]
	if !ok {
		id = uint32(len(r.rules))
		r.rules = append(r.rules, rule)
		r.ruleIDs[rule] = id
	}
	r.derivations[concl] = derivation{rule: id, off: uint32(off), n: uint32(len(r.premises) - off)}
}

// premisesOf returns d's premise list, capacity-sealed so a caller's
// append can never write into the arena.
func (r *Reasoner) premisesOf(d derivation) []store.IDTriple {
	end := d.off + d.n
	return r.premises[d.off:end:end]
}

// lookup encodes t in the graph's dictionary without interning; false
// before any run, or when t has a term the graph never saw.
func (r *Reasoner) lookup(t rdf.Triple) (iTriple, bool) {
	if r.g == nil {
		return iTriple{}, false
	}
	s, ok1 := r.g.LookupID(t.S)
	p, ok2 := r.g.LookupID(t.P)
	o, ok3 := r.g.LookupID(t.O)
	return iTriple{s, p, o}, ok1 && ok2 && ok3
}

// decodeDerivation materializes a trace entry at the public API boundary.
func (r *Reasoner) decodeDerivation(d derivation) Derivation {
	out := Derivation{Rule: r.rules[d.rule]}
	if d.n > 0 {
		out.Premises = make([]rdf.Triple, d.n)
		for i, p := range r.premisesOf(d) {
			out.Premises[i] = r.decode(iTriple(p))
		}
	}
	return out
}

// finishRun folds the run's growth into the cumulative counters and records
// the closure snapshot version for the next delta.
func (r *Reasoner) finishRun(start time.Time) Stats {
	run := r.g.Len() - r.startLen
	r.totalInferred += run
	r.stats.Inferred = run
	r.stats.TotalInferred = r.totalInferred
	r.stats.Duration = time.Since(start)
	r.lastVersion = r.g.Version()
	r.prepared = true
	return r.stats
}

// decode materializes an ID triple at the public API / tracing boundary.
func (r *Reasoner) decode(t iTriple) rdf.Triple {
	return rdf.Triple{S: r.g.TermOf(t.S), P: r.g.TermOf(t.P), O: r.g.TermOf(t.O)}
}

// snapshot returns every triple currently in the graph as ID triples, in
// index order.
func (r *Reasoner) snapshot() []iTriple {
	out := make([]iTriple, 0, r.g.Len())
	r.g.ForEachID(store.NoID, store.NoID, store.NoID, func(s, p, o store.ID) bool {
		out = append(out, iTriple{s, p, o})
		return true
	})
	return out
}

// Derivation returns how t was inferred. ok is false for asserted triples,
// for unknown triples, or when tracing was disabled.
func (r *Reasoner) Derivation(t rdf.Triple) (Derivation, bool) {
	it, ok := r.lookup(t)
	if !ok {
		return Derivation{}, false
	}
	d, ok := r.derivationOf(it)
	if !ok {
		return Derivation{}, false
	}
	return r.decodeDerivation(d), true
}

// ProofTree returns the derivation of t and, recursively, of its premises,
// flattened in dependency order (premises before conclusions). Asserted
// premises appear with rule "asserted".
type ProofStep struct {
	Conclusion rdf.Triple
	Rule       string
	Premises   []rdf.Triple
}

// Proof reconstructs the full derivation chain for t. The result is empty
// when tracing was disabled or t is unknown. The walk runs on IDs; only
// the returned steps are decoded.
func (r *Reasoner) Proof(t rdf.Triple) []ProofStep {
	root, ok := r.lookup(t)
	if !ok {
		return nil
	}
	var steps []ProofStep
	seen := make(map[iTriple]bool)
	var walk func(iTriple)
	walk = func(cur iTriple) {
		if seen[cur] {
			return
		}
		seen[cur] = true
		d, ok := r.derivationOf(cur)
		if !ok {
			if r.g.HasID(cur.S, cur.P, cur.O) {
				steps = append(steps, ProofStep{Conclusion: r.decode(cur), Rule: "asserted"})
			}
			return
		}
		for _, p := range r.premisesOf(d) {
			walk(iTriple(p))
		}
		dd := r.decodeDerivation(d)
		steps = append(steps, ProofStep{Conclusion: r.decode(cur), Rule: dd.Rule, Premises: dd.Premises})
	}
	walk(root)
	return steps
}

// StaleDerivations reports the inferred triples still present in the graph
// whose recorded derivation — transitively — used one of the removed
// triples as a premise that the graph no longer contains. Materialization
// is monotonic, so such inferences stay in the graph with proofs that no
// longer ground out; callers (feo.Session.Update) surface them instead of
// silently serving stale proofs. Best-effort: only each triple's FIRST
// derivation is recorded, so a conclusion reported stale may still hold via
// an alternative derivation the trace never saw. Empty when tracing is off.
func (r *Reasoner) StaleDerivations(removed []rdf.Triple) []rdf.Triple {
	if len(removed) == 0 || len(r.run)+len(r.derivations) == 0 || !r.traceValid() {
		return nil
	}
	gone := make(map[iTriple]bool, len(removed))
	for _, t := range removed {
		// A term the dictionary never saw cannot be anyone's premise.
		if it, ok := r.lookup(t); ok && !r.g.HasID(it.S, it.P, it.O) { // deleted and not re-inserted
			gone[it] = true
		}
	}
	if len(gone) == 0 {
		return nil
	}
	// One pass over the trace (the map, then the run entries it does not
	// shadow) builds a premise→conclusions index; a worklist then walks
	// only the affected cone, so the cost is O(|trace| + |cone|) rather
	// than one full rescan per dependency level.
	rev := make(map[iTriple][]iTriple)
	index := func(concl iTriple, d derivation) {
		for _, p := range r.premisesOf(d) {
			rev[iTriple(p)] = append(rev[iTriple(p)], concl)
		}
	}
	for concl, d := range r.derivations {
		index(concl, d)
	}
	for _, e := range r.run {
		if _, shadowed := r.derivations[iTriple(e.Conclusion)]; !shadowed {
			index(iTriple(e.Conclusion), e.entry())
		}
	}
	stale := make(map[iTriple]bool)
	work := make([]iTriple, 0, len(gone))
	for t := range gone {
		work = append(work, t)
	}
	for len(work) > 0 {
		t := work[len(work)-1]
		work = work[:len(work)-1]
		for _, concl := range rev[t] {
			if !stale[concl] {
				stale[concl] = true
				work = append(work, concl)
			}
		}
	}
	out := make([]rdf.Triple, 0, len(stale))
	for t := range stale {
		if r.g.HasID(t.S, t.P, t.O) {
			out = append(out, r.decode(t))
		}
	}
	sort.Slice(out, func(i, j int) bool { return compareTriples(out[i], out[j]) < 0 })
	return out
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

// saturate drains the queue, then, while the expression table is stale,
// rebuilds it from the graph, re-queues every triple and drains again, so
// every rule has joined against the table of the final graph. A delta run
// that rebuilds has become a full one and reports so.
func (r *Reasoner) saturate() {
	for {
		r.drain()
		if !r.exprStale {
			return
		}
		r.exprStale = false
		r.stats.Delta = false
		r.expr = buildExprTable(r.g, r.v)
		r.queue = r.snapshot()
	}
}

// drain processes the semi-naive queue to fixpoint: each popped triple is
// matched against every rule position it could fill, joining the other
// premises against the current graph and expression table.
func (r *Reasoner) drain() {
	processed := 0
	for len(r.queue) > 0 {
		t := r.queue[len(r.queue)-1]
		r.queue = r.queue[:len(r.queue)-1]
		r.applyDelta(t)
		processed++
		if processed > r.opts.MaxRounds*1_000_000 {
			break // safety valve; unreachable in practice
		}
	}
	r.stats.Rounds += processed
}

// runNaive repeatedly applies every rule to every triple until a full round
// adds nothing. Kept for the A1 ablation benchmark and as the blessed
// reference implementation: it rebuilds the expression table from the whole
// graph every round and never takes the incremental path.
func (r *Reasoner) runNaive() {
	for round := 0; round < r.opts.MaxRounds; round++ {
		r.stats.Rounds = round + 1
		before := r.g.Len()
		r.expr = buildExprTable(r.g, r.v)
		for _, t := range r.snapshot() {
			r.applyDelta(t)
		}
		// Inferred structural triples join the table at the next round's
		// rebuild; the fixpoint round runs with a complete table.
		if r.g.Len() == before {
			return
		}
	}
}

// infer adds a conclusion triple; when new, it is queued for further delta
// processing and its derivation is recorded. All arguments are interned
// IDs, and tracing records them as IDs: nothing is decoded here.
//
//feo:idspace
func (r *Reasoner) infer(rule string, s, p, o store.ID, premises ...iTriple) {
	if !r.g.IsResourceID(s) || r.g.KindOf(p) != rdf.KindIRI {
		return
	}
	if !r.g.AddID(s, p, o) {
		return // already present (or invalid)
	}
	t := iTriple{s, p, o}
	r.stats.RuleFirings[rule]++
	if !r.opts.Naive {
		r.queue = append(r.queue, t)
		r.exprStale = r.exprStale || r.structIDs.Contains(p)
	}
	if r.opts.TraceDerivations {
		off := len(r.premises)
		for _, pt := range premises {
			r.premises = append(r.premises, store.IDTriple(pt))
		}
		r.record(t, rule, off)
		if r.journaling {
			r.journal = append(r.journal, t)
		}
	}
}
