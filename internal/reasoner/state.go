package reasoner

import (
	"sort"

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

// TracedDerivation is one entry of the serializable derivation trace: the
// inferred triple together with the rule and premises that first produced
// it. It is the external, slice-form counterpart of the internal
// conclusion→Derivation map.
type TracedDerivation struct {
	Conclusion rdf.Triple
	Rule       string
	Premises   []rdf.Triple
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
	// Derivations is the full derivation trace, sorted by conclusion for
	// deterministic serialization. Empty when tracing is off.
	Derivations []TracedDerivation
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
// persistence. The derivation slice is sorted by conclusion so repeated
// exports of the same state are byte-identical once serialized.
func (r *Reasoner) ClosureState() ClosureState {
	st := ClosureState{TotalInferred: r.totalInferred}
	if len(r.derivations) > 0 {
		st.Derivations = make([]TracedDerivation, 0, len(r.derivations))
		for concl, d := range r.derivations {
			st.Derivations = append(st.Derivations, TracedDerivation{
				Conclusion: concl, Rule: d.Rule, Premises: d.Premises,
			})
		}
		sort.Slice(st.Derivations, func(i, j int) bool {
			return compareTriples(st.Derivations[i].Conclusion, st.Derivations[j].Conclusion) < 0
		})
	}
	return st
}

// RestoreClosure points the Reasoner at g — a graph whose OWL RL closure is
// already complete (a reloaded snapshot of a materialized graph) — and
// installs the persisted closure state st as if this Reasoner had computed
// it. The expression table and vocabulary are rebuilt from the graph; the
// closure version pins to the graph's current Version. Afterwards the
// incremental contract holds: MaterializeChanges extends the closure
// from deltas, Derivation/Proof answer from the restored trace.
func (r *Reasoner) RestoreClosure(g *store.Graph, st ClosureState) {
	r.bind(g)
	r.expr = buildExprTable(g, r.v)
	r.pendingExpr = nil
	r.queue = nil
	r.totalInferred = st.TotalInferred
	if r.opts.TraceDerivations {
		r.derivations = make(map[rdf.Triple]Derivation, len(st.Derivations))
		for _, d := range st.Derivations {
			r.derivations[d.Conclusion] = Derivation{Rule: d.Rule, Premises: d.Premises}
		}
	}
	r.lastVersion = g.Version()
	r.prepared = true
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
// mark. Entries whose conclusion has since left the trace (Graph.Clear
// resets it) are skipped.
func (r *Reasoner) JournalSince(mark int) []TracedDerivation {
	if mark < 0 {
		mark = 0
	}
	if mark >= len(r.journal) {
		return nil
	}
	out := make([]TracedDerivation, 0, len(r.journal)-mark)
	for _, concl := range r.journal[mark:] {
		if d, ok := r.derivations[concl]; ok {
			out = append(out, TracedDerivation{Conclusion: concl, Rule: d.Rule, Premises: d.Premises})
		}
	}
	return out
}

// TrimJournal discards the journal's contents. Call after persisting a full
// ClosureState (which subsumes every journaled delta); earlier marks become
// invalid.
func (r *Reasoner) TrimJournal() { r.journal = r.journal[:0] }
