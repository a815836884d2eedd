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
// The trace stays in dictionary IDs end to end. ClosureState exports it in
// the graph's dictionary (premise lists alias the Reasoner's append-only
// arena, so an export allocates one slice header per entry and copies no
// premise), the snapshot codec writes those IDs as they are, and
// RestoreClosure loads them straight back into the map and arena. On the
// persistence path only the journal decodes, because WAL records must stay
// self-describing: their ops introduce terms no snapshot dictionary has
// seen.

// TracedDerivation is one entry of the term-level derivation trace: the
// inferred triple together with the rule and premises that first produced
// it. JournalSince returns these for the write-ahead log.
type TracedDerivation struct {
	Conclusion rdf.Triple
	Rule       string
	Premises   []rdf.Triple
}

// IDDerivation is one entry of an exported derivation trace, in the
// dictionary of the graph the trace describes.
type IDDerivation struct {
	Conclusion store.IDTriple
	Rule       string
	// Premises may alias Reasoner memory that is never rewritten; treat
	// it as read-only.
	Premises []store.IDTriple
}

// ClosureState is the portion of a Reasoner's carried state that cannot be
// recomputed from the materialized graph alone: the asserted/inferred
// split and the derivation trace. Everything else the incremental contract
// needs (vocabulary IDs, the expression table, the closure version) is
// derived from the graph at restore time.
type ClosureState struct {
	// TotalInferred is the cumulative number of triples the reasoner
	// inferred into the current graph (Stats.TotalInferred).
	TotalInferred int
	// Derivations is the full derivation trace in the graph's dictionary.
	// ClosureState sorts it by conclusion ID triple for deterministic
	// serialization; RestoreClosure accepts any order, a later entry for
	// the same conclusion replacing an earlier one. Empty when tracing is
	// off.
	Derivations []IDDerivation
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
// persistence. The derivation slice is sorted by conclusion ID triple so
// repeated exports of the same state are byte-identical once serialized.
// Premise lists alias the trace's arena, which later commits only append
// to, so the export stays valid after the caller releases its lock.
//
//feo:idspace
func (r *Reasoner) ClosureState() ClosureState {
	st := ClosureState{TotalInferred: r.totalInferred}
	if len(r.derivations) > 0 && r.traceValid() {
		st.Derivations = make([]IDDerivation, 0, len(r.derivations))
		for concl, d := range r.derivations {
			st.Derivations = append(st.Derivations, IDDerivation{
				Conclusion: store.IDTriple(concl), Rule: r.rules[d.rule], Premises: r.premisesOf(d),
			})
		}
		slices.SortFunc(st.Derivations, func(a, b IDDerivation) int {
			return compareIDTriples(a.Conclusion, b.Conclusion)
		})
	}
	return st
}

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
// the graph's current Version. Afterwards the incremental contract holds:
// MaterializeChanges extends the closure from deltas, Derivation/Proof
// answer from the restored trace.
func (r *Reasoner) RestoreClosure(g *store.Graph, st ClosureState) {
	r.bind(g)
	r.expr = buildExprTable(g, r.v)
	r.queue = nil
	r.totalInferred = st.TotalInferred
	if r.opts.TraceDerivations {
		r.restoreTrace(st.Derivations)
	}
	r.lastVersion = g.Version()
	r.prepared = true
}

// restoreTrace replaces the trace with ds: one map entry per conclusion
// and one arena sized for every premise, filled without decoding.
//
//feo:idspace
func (r *Reasoner) restoreTrace(ds []IDDerivation) {
	r.resetTrace(len(ds))
	n := 0
	for _, d := range ds {
		n += len(d.Premises)
	}
	r.premises = make([]store.IDTriple, 0, n)
	for _, d := range ds {
		off := len(r.premises)
		r.premises = append(r.premises, d.Premises...)
		r.record(iTriple(d.Conclusion), d.Rule, off)
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
		if d, ok := r.derivations[concl]; ok {
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
