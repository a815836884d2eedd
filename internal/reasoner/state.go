package reasoner

import (
	"cmp"
	"slices"

	"repro/internal/rdf"
	"repro/internal/store"
)

// Closure state export/restore and the derivation journal.
//
// The durability layer persists a Reasoner's carried closure state next to
// the graph it describes, so a process restart resumes incremental
// materialization exactly where the previous process stopped instead of
// paying a full re-run: ClosureState captures the cumulative inferred count
// and the derivation trace, RestoreClosure rebinds them to a freshly loaded
// graph (rebuilding the cheap derived structures — vocabulary, expression
// table — from the graph itself), and the journal streams each commit's
// newly recorded derivations so the write-ahead log can carry derivation
// deltas without re-serializing the whole trace.
//
// The trace stays in dictionary IDs end to end, in the form the snapshot
// stores it: a sorted run of fixed-size entries, a rule-name table and one
// premise arena. ClosureState exports the run merged with the derivations
// recorded since (premises alias the Reasoner's append-only arena), the
// snapshot codec writes those IDs as they are and decodes them straight
// back into a run and an arena, and RestoreClosure adopts the run as the
// Reasoner's read-only base without copying a premise or hashing an
// entry. On the persistence path only the journal decodes, because WAL
// records must stay self-describing: their ops introduce terms no
// snapshot dictionary has seen.

// TracedDerivation is one entry of the term-level derivation trace: the
// inferred triple together with the rule and premises that first produced
// it. JournalSince returns these for the write-ahead log.
type TracedDerivation struct {
	Conclusion rdf.Triple
	Rule       string
	Premises   []rdf.Triple
}

// IDDerivation is one entry of an exported derivation trace, in the
// dictionary of the graph the trace describes: the inferred triple, the
// index of its rule in ClosureState.Rules, and its premises
// ClosureState.Premises[Off : Off+N]. Six uint32s, no pointers.
type IDDerivation struct {
	Conclusion store.IDTriple
	Rule       uint32
	Off, N     uint32
}

// entry is d as the Reasoner's trace stores it.
func (d IDDerivation) entry() derivation { return derivation{rule: d.Rule, off: d.Off, n: d.N} }

// ClosureState is the portion of a Reasoner's carried state that cannot be
// recomputed from the materialized graph alone: the asserted/inferred
// split and the derivation trace. Everything else the incremental contract
// needs (vocabulary IDs, the expression table, the closure version) is
// derived from the graph at restore time.
//
// The trace is Run followed by Later. An entry of Later replaces any
// earlier entry (in Run, or earlier in Later) for the same conclusion, so
// a producer that reads derivations in any order keeps the rule "a later
// entry wins" by passing each one to Append or Add in that order. The
// slices of an exported or decoded state may alias memory that is never
// rewritten: change them only through Append and Add, which only append.
type ClosureState struct {
	// TotalInferred is the cumulative number of triples the reasoner
	// inferred into the current graph (Stats.TotalInferred).
	TotalInferred int
	// Run holds derivations in strictly ascending conclusion ID-triple
	// order. ClosureState exports the whole trace here, so repeated
	// exports of the same state are byte-identical once serialized.
	Run []IDDerivation
	// Later holds, in arrival order, the derivations whose conclusion did
	// not sort after Run's last entry when they arrived.
	Later []IDDerivation
	// Rules names the rules IDDerivation.Rule indexes.
	Rules []string
	// Premises is the arena IDDerivation.Off and N index.
	Premises []store.IDTriple
}

// Append adds the derivation of concl by rule st.Rules[rule] whose
// premises are st.Premises[off : off+n]: to Run when concl sorts after
// Run's last entry, to Later otherwise. Every entry of Later sorts at or
// before the Run entry that was last when it arrived, so no later Run
// entry can share its conclusion and Later always overrides Run.
func (st *ClosureState) Append(concl store.IDTriple, rule uint32, off, n int) {
	d := IDDerivation{Conclusion: concl, Rule: rule, Off: uint32(off), N: uint32(n)}
	if last := len(st.Run) - 1; last < 0 || compareIDTriples(st.Run[last].Conclusion, concl) < 0 {
		st.Run = append(st.Run, d)
	} else {
		st.Later = append(st.Later, d)
	}
}

// Add interns rule in st.Rules, copies premises into st.Premises and
// appends the derivation of concl (see Append).
func (st *ClosureState) Add(concl store.IDTriple, rule string, premises []store.IDTriple) {
	id := slices.Index(st.Rules, rule)
	if id < 0 {
		id = len(st.Rules)
		st.Rules = append(st.Rules, rule)
	}
	st.Append(concl, uint32(id), len(st.Premises), len(premises))
	st.Premises = append(st.Premises, premises...)
}

// PremisesOf returns d's premise list, capacity-sealed so a caller's
// append can never write into the arena.
func (st *ClosureState) PremisesOf(d IDDerivation) []store.IDTriple {
	end := d.Off + d.N
	return st.Premises[d.Off:end:end]
}

// TotalInferred returns the cumulative number of triples this Reasoner has
// inferred into the current graph.
func (r *Reasoner) TotalInferred() int { return r.totalInferred }

// LastRunInferred returns the Inferred count of the most recent
// materialization run — the per-run delta, zero for a run that found the
// closure already complete and zero before any run. Serve-time dashboards
// watch it to spot unexpectedly large incremental closures.
func (r *Reasoner) LastRunInferred() int { return r.stats.Inferred }

// ClosureState exports the reasoner's carried closure state for
// persistence: the whole trace as one Run, merged in a single linear pass
// from the restored run and the derivations recorded since, of which only
// the latter are sorted. Premises and Rules alias the trace's arena and
// rule table, which later commits only append to, and Run may alias the
// restored run, which is never rewritten, so the export stays valid after
// the caller releases its lock. It reads the trace and changes nothing.
//
//feo:idspace
func (r *Reasoner) ClosureState() ClosureState {
	st := ClosureState{TotalInferred: r.totalInferred}
	if len(r.run)+len(r.derivations) == 0 || !r.traceValid() {
		return st
	}
	st.Rules = r.rules[:len(r.rules):len(r.rules)]
	st.Premises = r.premises[:len(r.premises):len(r.premises)]
	if len(r.derivations) == 0 {
		st.Run = r.run[:len(r.run):len(r.run)]
		return st
	}
	fresh := make([]IDDerivation, 0, len(r.derivations))
	for concl, d := range r.derivations {
		fresh = append(fresh, IDDerivation{Conclusion: store.IDTriple(concl), Rule: d.rule, Off: d.off, N: d.n})
	}
	slices.SortFunc(fresh, compareConclusions)
	run := r.run
	st.Run = make([]IDDerivation, 0, len(run)+len(fresh))
	for len(run) > 0 && len(fresh) > 0 {
		c := compareConclusions(run[0], fresh[0])
		if c < 0 {
			st.Run = append(st.Run, run[0])
			run = run[1:]
			continue
		}
		if c == 0 { // recorded since the restore: it shadows the run
			run = run[1:]
		}
		st.Run = append(st.Run, fresh[0])
		fresh = fresh[1:]
	}
	st.Run = append(append(st.Run, run...), fresh...)
	return st
}

func compareConclusions(a, b IDDerivation) int { return compareIDTriples(a.Conclusion, b.Conclusion) }

func compareIDTriples(a, b store.IDTriple) int {
	if c := cmp.Compare(a.S, b.S); c != 0 {
		return c
	}
	if c := cmp.Compare(a.P, b.P); c != 0 {
		return c
	}
	return cmp.Compare(a.O, b.O)
}

// RestoreClosure points the Reasoner at g — a graph whose OWL RL closure is
// already complete (a reloaded snapshot of a materialized graph) — and
// installs the persisted closure state st, whose IDs are in g's
// dictionary, as if this Reasoner had computed it. The expression table
// and vocabulary are rebuilt from the graph; the closure version pins to
// the graph's current Version. st.Run becomes the trace's read-only sorted
// run and st.Premises its arena, both adopted without a copy; only the
// entries of st.Later are hashed, into the map that shadows the run.
// st must be well formed (every Rule, Off and N in range), as the snapshot
// codec and Add build it. Afterwards the incremental contract holds:
// MaterializeChanges extends the closure from deltas, Derivation/Proof
// answer from the restored trace.
func (r *Reasoner) RestoreClosure(g *store.Graph, st ClosureState) {
	r.bind(g)
	r.expr = buildExprTable(g, r.v)
	r.queue = nil
	r.totalInferred = st.TotalInferred
	if r.opts.TraceDerivations {
		r.restoreTrace(st)
	}
	r.lastVersion = g.Version()
	r.prepared = true
}

// restoreTrace replaces the trace with st's: the run and arena as they
// are, the rule table re-interned, and Later replayed into the map in
// order, so a later entry for a conclusion replaces an earlier one.
//
//feo:idspace
func (r *Reasoner) restoreTrace(st ClosureState) {
	r.resetTrace(len(st.Later))
	r.run = st.Run[:len(st.Run):len(st.Run)]
	r.premises = st.Premises[:len(st.Premises):len(st.Premises)]
	r.rules = slices.Clone(st.Rules)
	clear(r.ruleIDs)
	for i, name := range r.rules {
		r.ruleIDs[name] = uint32(i)
	}
	for _, d := range st.Later {
		r.derivations[iTriple(d.Conclusion)] = d.entry()
	}
}

// StartDerivationJournal begins journaling: from now on every newly
// recorded derivation is also appended, in inference order, to an internal
// journal that JournalSince reads. Requires TraceDerivations; without it
// the journal stays empty. Idempotent.
func (r *Reasoner) StartDerivationJournal() { r.journaling = true }

// JournalLen returns the current journal position, for use as a later
// JournalSince mark.
func (r *Reasoner) JournalLen() int { return len(r.journal) }

// JournalSince returns the derivations recorded at journal positions
// [mark, len): the derivation delta of the span since JournalLen returned
// mark, decoded to terms. Entries whose conclusion has since left the
// trace are skipped, and so is every entry journaled before the graph's
// dictionary was last replaced (Graph.Clear): its IDs belong to the old
// dictionary.
func (r *Reasoner) JournalSince(mark int) []TracedDerivation {
	mark = max(mark, r.journalFloor)
	if mark >= len(r.journal) || !r.traceValid() {
		return nil
	}
	out := make([]TracedDerivation, 0, len(r.journal)-mark)
	for _, concl := range r.journal[mark:] {
		if d, ok := r.derivationOf(concl); ok {
			dd := r.decodeDerivation(d)
			out = append(out, TracedDerivation{Conclusion: r.decode(concl), Rule: dd.Rule, Premises: dd.Premises})
		}
	}
	return out
}

// TrimJournal discards the journal's contents. Call after persisting a full
// ClosureState (which subsumes every journaled delta); earlier marks become
// invalid.
func (r *Reasoner) TrimJournal() {
	r.journal = r.journal[:0]
	r.journalFloor = 0
}
