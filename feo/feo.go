// Package feo is the public entry point of the FEO reproduction: semantic
// modeling for food recommendation explanations (Padhiar et al., ICDE 2021).
//
// A Session bundles everything a downstream application needs:
//
//	sess := feo.NewSession(feo.Options{})            // FEO + CQ data
//	rec  := sess.Recommend(user, 1)[0]               // Health Coach pick
//	ex, _ := sess.Explain(feo.Question{              // post-hoc explanation
//	    Type:    feo.Contextual,
//	    Primary: rec.Recipe,
//	})
//	fmt.Println(ex.Summary)
//
// Under the hood a Session owns an in-memory triple store, the OWL 2 RL
// materializer that substitutes for the paper's Pellet run, a SPARQL 1.1
// engine, the FEO/EO/food ontologies, and a simulated Health Coach
// recommender. All of it is stdlib-only Go.
package feo

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/foodkg"
	"repro/internal/healthcoach"
	"repro/internal/ontology"
	"repro/internal/rdf"
	"repro/internal/rdfxml"
	"repro/internal/reasoner"
	"repro/internal/sparql"
	"repro/internal/store"
	"repro/internal/turtle"
)

// Re-exported explanation types (Table I).
const (
	CaseBased       = core.CaseBased
	Contextual      = core.Contextual
	Contrastive     = core.Contrastive
	Counterfactual  = core.Counterfactual
	Everyday        = core.Everyday
	Scientific      = core.Scientific
	SimulationBased = core.SimulationBased
	Statistical     = core.Statistical
	TraceBased      = core.TraceBased
)

// Type aliases so callers only import this package.
type (
	// Question is a user question about a recommendation.
	Question = core.Question
	// Explanation is a generated explanation with evidence.
	Explanation = core.Explanation
	// ExplanationType selects one of the nine Table I types.
	ExplanationType = core.ExplanationType
	// Recommendation is one Health Coach result.
	Recommendation = healthcoach.Recommendation
	// Term is an RDF term.
	Term = rdf.Term
	// Graph is an indexed triple store.
	Graph = store.Graph
	// QueryResult holds SPARQL results.
	QueryResult = sparql.Result
	// KGConfig configures the synthetic FoodKG generator.
	KGConfig = foodkg.Config
	// ResultWriter serializes a streamed query result incrementally; each
	// Row gets the row's terms in Begin's variable order, in a slice
	// valid only during the call (a zero Term is unbound).
	ResultWriter = sparql.ResultWriter
	// StreamOptions bounds a streamed query (deadline, row/byte caps).
	StreamOptions = sparql.StreamOptions
	// StreamStats reports what a streamed query emitted.
	StreamStats = sparql.StreamStats
	// Truncation describes why a streamed result ended early.
	Truncation = sparql.Truncation
)

// Streaming-query sentinel errors (see Snapshot.QueryStream).
var (
	// ErrGraphResult marks a CONSTRUCT/DESCRIBE handed to QueryStream;
	// stream it with QueryGraphStream instead.
	ErrGraphResult = sparql.ErrGraphResult
	// ErrQueryDeadlineExceeded marks a query canceled by its deadline
	// before the first result byte was written.
	ErrQueryDeadlineExceeded = sparql.ErrDeadlineExceeded
)

// NewJSONResultWriter returns a streaming writer for the W3C SPARQL 1.1
// JSON results format (application/sparql-results+json).
func NewJSONResultWriter(w io.Writer) ResultWriter { return sparql.NewJSONWriter(w) }

// NewXMLResultWriter returns a streaming writer for the W3C SPARQL
// results XML format (application/sparql-results+xml).
func NewXMLResultWriter(w io.Writer) ResultWriter { return sparql.NewXMLWriter(w) }

// NewCSVResultWriter returns a streaming writer for the W3C SPARQL 1.1
// CSV results format (text/csv, CRLF records).
func NewCSVResultWriter(w io.Writer) ResultWriter { return sparql.NewCSVWriter(w) }

// NewTSVResultWriter returns a streaming writer for the W3C SPARQL 1.1
// TSV results format (text/tab-separated-values).
func NewTSVResultWriter(w io.Writer) ResultWriter { return sparql.NewTSVWriter(w) }

// ParseExplanationType maps a name like "contextual" to its type.
func ParseExplanationType(s string) (ExplanationType, error) {
	return core.ParseExplanationType(s)
}

// AllExplanationTypes lists the nine types in Table I order.
func AllExplanationTypes() []ExplanationType { return core.AllExplanationTypes() }

// QueryPlanCacheStats reports the SPARQL engine's cumulative plan-cache
// hit and miss counts. The engine memoizes each basic graph pattern's
// compiled plan (join order, constant encoding, fused intersection runs)
// per graph snapshot; a repeated query on an unmodified session hits,
// and any mutation (load, update, explain-time assertion) invalidates by
// bumping the graph version. Useful for serve-time dashboards.
func QueryPlanCacheStats() (hits, misses uint64) { return sparql.PlanCacheStats() }

// ResetQueryPlanCache drops every memoized query plan and zeroes the
// counters — a benchmarking/testing hook, never needed for correctness.
func ResetQueryPlanCache() { sparql.ResetPlanCache() }

// IRI builds an IRI term.
func IRI(s string) Term { return rdf.NewIRI(s) }

// FEO expands a local name in the FEO namespace (feo.FEO("Autumn")).
func FEO(local string) Term { return rdf.NewIRI(rdf.FEONS + local) }

// SyncPolicy selects when durable sessions fsync the write-ahead log; see
// the constants and internal/durable's package documentation.
type SyncPolicy = durable.SyncPolicy

// WAL fsync policies for Options.Sync, strongest first.
const (
	// SyncAlways fsyncs after every commit (the default): an acknowledged
	// mutation survives OS or power failure, not just process death.
	SyncAlways = durable.SyncAlways
	// SyncInterval fsyncs in the background every Options.SyncEvery:
	// process death loses nothing, power failure at most the last window.
	SyncInterval = durable.SyncInterval
	// SyncNever leaves flushing to the operating system.
	SyncNever = durable.SyncNever
)

// Options configures a Session.
type Options struct {
	// Data selects the initial instance data. DataCQ (default) loads the
	// paper's competency-question ABoxes; DataSynthetic generates a FoodKG
	// per KG; DataNone loads only the ontologies.
	Data DataSource
	// KG configures the synthetic FoodKG when Data == DataSynthetic.
	// Zero value means foodkg.DefaultConfig().
	KG KGConfig
	// DataDir, when non-empty, makes the session durable: mutations are
	// written ahead to a log in this directory before they are
	// acknowledged, and Open recovers the graph (and the reasoner's
	// closure state) from the directory's snapshot + log instead of
	// rebuilding from Data when it holds earlier state. Use Open rather
	// than NewSession so recovery errors are reportable.
	DataDir string
	// Sync selects the WAL fsync policy (default SyncAlways).
	Sync SyncPolicy
	// SyncEvery is the background fsync period under SyncInterval
	// (default 100ms).
	SyncEvery time.Duration
	// CompactBytes triggers automatic log compaction once the WAL reaches
	// this size, run by the commit that reached it (see Compact); a failed
	// compaction fails no commit. Zero means 64 MiB; negative disables
	// automatic compaction (Compact still works).
	CompactBytes int64
}

// DataSource selects a Session's initial instance data.
type DataSource int

// Data sources for NewSession.
const (
	DataCQ DataSource = iota
	DataSynthetic
	DataNone
)

// Session is a loaded, materialized knowledge graph with attached engines.
//
// # Concurrency
//
// A Session is safe for concurrent use, and its readers never block. The
// store serves reads from immutable versioned snapshots of the graph (see
// internal/store's MVCC documentation); every read-only call — Query,
// Recommend, RecommendGroup, Users, Recipes, Stats, Validate, WriteTurtle,
// WriteRDFXML — pins the latest snapshot and runs entirely against that
// frozen view. Readers run concurrently with each other AND with any
// in-flight mutation, and a reader that wants several calls to observe one
// consistent version pins explicitly with Snapshot and makes them all on
// the handle.
//
// Mutating calls (Explain — which asserts the question and explanation
// individuals into the graph — LoadTurtle, LoadRDFXML, Update) serialize
// on an internal writer lock and run as store transactions: mutate and
// incrementally re-materialize the OWL RL closure, then append the commit
// to the write-ahead log (durable sessions). The publish is deferred to
// the next Snapshot pin, so an uninterrupted burst of writes shares one
// copy-on-write freeze instead of paying one per commit. Readers observe
// the old version until a pin publishes and the new one after; they are
// never exposed to a half-applied mutation, and a writer stalled in the
// WAL append stalls no reader (pins taken meanwhile return the latest
// published version without waiting).
//
// ExplainTriple is the one read that consults live, unversioned state (the
// reasoner's derivation traces) and briefly shares a read lock with the
// mutate-and-materialize step; see its caveat.
//
// Graph exposes the raw live store and escapes all of this: callers that
// mutate it directly while other goroutines use the Session must provide
// their own serialization.
type Session struct {
	// mu serializes writers end to end: transaction, re-materialization,
	// WAL append, a compaction's pin. Readers never take it.
	mu sync.Mutex
	// compacting admits one compaction, pin to snapshot install: the size
	// trigger skips it (TryLock under mu), Compact and Close wait before mu.
	compacting         sync.Mutex
	compactionFailures atomic.Uint64
	// live guards the mutate-and-materialize step of a commit against the
	// few reads of live (unpublished, unversioned) state: ExplainTriple's
	// reasoner proofs. Writers hold it only while mutating — never across
	// the WAL append — so a stalled disk cannot stall those readers for
	// long, and snapshot readers skip this lock entirely.
	live sync.RWMutex
	// dirty reports committed-but-unpublished state: commits defer their
	// publish (so write bursts share one copy-on-write freeze) and the
	// next Snapshot pin publishes on demand. Set by commitWrite under mu;
	// cleared by whoever publishes (also under mu).
	dirty    atomic.Bool
	graph    *store.Graph
	reasoner *reasoner.Reasoner
	engine   *core.Engine
	coach    *healthcoach.Coach
	weights  healthcoach.Weights
	kg       *foodkg.KG
	// durable is non-nil for sessions opened with Options.DataDir: every
	// mutating call appends its commit to the write-ahead log before
	// acknowledging (and before publishing the snapshot, so a pinned
	// reader can never observe state that is not durably logged).
	durable      *durable.Store
	compactBytes int64
	replayed     bool
}

// NewSession loads the ontologies and data, materializes the OWL RL
// closure, and wires the explanation engine and Health Coach. It panics if
// the session cannot be built — which only durability (Options.DataDir)
// can cause; durable callers should prefer Open and handle the error.
func NewSession(opts Options) *Session {
	s, err := Open(opts)
	if err != nil {
		panic(fmt.Sprintf("feo.NewSession: %v (use feo.Open to handle durability errors)", err))
	}
	return s
}

// Open builds a Session. Without Options.DataDir it cannot fail and is
// equivalent to NewSession. With a DataDir it opens the directory's
// durability store first: if the directory holds earlier state, the graph
// and the reasoner's closure are recovered from its snapshot +
// write-ahead log (Options.Data is then ignored — the disk is the source
// of truth); a fresh directory is seeded with the initial dataset's
// snapshot. Either way the session's mutating calls then append to the
// log before acknowledging, and Close flushes it.
func Open(opts Options) (*Session, error) {
	var (
		st   *durable.Store
		boot *durable.Boot
		err  error
	)
	if opts.DataDir != "" {
		st, boot, err = durable.Open(opts.DataDir, durable.Options{
			Sync:      opts.Sync,
			SyncEvery: opts.SyncEvery,
		})
		if err != nil {
			return nil, err
		}
	}
	compactBytes := opts.CompactBytes
	switch {
	case compactBytes == 0:
		compactBytes = 64 << 20
	case compactBytes < 0:
		compactBytes = 0
	}

	r := reasoner.New(reasoner.Options{TraceDerivations: true})
	var (
		g        *store.Graph
		kg       *foodkg.KG
		replayed bool
	)
	if boot != nil && boot.Graph != nil {
		// Recovered boot: the snapshot + WAL replay IS the materialized
		// graph; restore the carried closure state instead of re-running
		// the reasoner, so the first write after recovery still takes the
		// incremental path.
		g = boot.Graph
		r.RestoreClosure(g, boot.Closure)
		replayed = true
	} else {
		g = ontology.TBox()
		switch opts.Data {
		case DataSynthetic:
			cfg := opts.KG
			if cfg.Recipes == 0 {
				cfg = foodkg.DefaultConfig()
			}
			kg = foodkg.Generate(cfg)
			g.Merge(kg.Graph)
		case DataNone:
			// ontologies only
		default:
			g.Merge(ontology.ABox(ontology.CQAll))
		}
		r.Materialize(g)
		if st != nil {
			// Seed the fresh data directory so the WAL has a snapshot to
			// hang off; a crash from here on recovers at least this state.
			if err := st.Compact(g, r.ClosureState()); err != nil {
				st.Close()
				return nil, err
			}
		}
	}
	if st != nil {
		r.StartDerivationJournal()
	}
	weights := healthcoach.DefaultWeights()
	coach := healthcoach.New(g, weights)
	engine := core.NewEngine(g, r)
	engine.SetCoach(coach)
	// Publish the boot state as the first snapshot so Session.Snapshot()
	// (and every pin-and-delegate read) has a version to pin before any
	// commit happens.
	g.Publish()
	return &Session{graph: g, reasoner: r, engine: engine, coach: coach,
		weights: weights, kg: kg,
		durable: st, compactBytes: compactBytes, replayed: replayed}, nil
}

// Replayed reports whether the session's graph was recovered from
// Options.DataDir (snapshot + WAL) rather than built from Options.Data.
func (s *Session) Replayed() bool { return s.replayed }

// Graph returns the session's live, mutable graph.
//
// Deprecated for reading: the live graph is NOT covered by any Session
// lock, and reading it while the session serves writers is a data race.
// Readers should use Snapshot (or the Session read methods, which pin one
// internally). Graph remains for tests and tooling that own the session
// exclusively — seeding fixtures, poking at store internals — where direct
// mutation of the live store is the point.
func (s *Session) Graph() *store.Graph { return s.graph }

// KG returns the generated FoodKG handles (nil unless DataSynthetic).
func (s *Session) KG() *foodkg.KG { return s.kg }

// Users returns the user individuals known to the session.
func (s *Session) Users() []Term { return s.Snapshot().Users() }

// Recipes returns the recipe individuals known to the session.
func (s *Session) Recipes() []Term { return s.Snapshot().Recipes() }

// commitWrite runs op as one writer commit. The sequence, under the
// writer lock:
//
//  1. Begin a store transaction (the mutation capture the WAL replays)
//     and run op — the mutation plus its incremental re-materialization —
//     holding the live read-write lock, so live-state readers
//     (ExplainTriple) never see a half-applied mutation. op receives the
//     transaction so it can read what it changed from tx.Changes()
//     instead of opening a capture of its own.
//  2. Release the live lock and append the commit record to the
//     write-ahead log. This is the slow, possibly stalling step (fsync);
//     no reader waits on it.
//  3. Commit the transaction with the publish deferred, marking the
//     session dirty: the next Snapshot pin publishes the accumulated
//     state (see Session.Snapshot). A freeze makes the next commit copy
//     the pages, runs and sets it writes (a few KiB, independent of the
//     dictionary and of history); deferring lets a burst of back-to-back
//     commits with no pin in between share one freeze, while isolation
//     is untouched, because pins only ever see published states and the
//     WAL append above still precedes every publish.
//  4. If the WAL reached Options.CompactBytes and no compaction is
//     running, pin one (beginCompact). Its snapshot write runs after the
//     writer lock is released, before commitWrite returns.
//
// The commit is logged and committed even when op failed: a parser can
// die after half its triples landed, and those mutations are part of the
// session's state now (there is no rollback), so op must leave them
// materialized too. Empty commits append nothing and leave the
// published snapshot untouched. A log failure poisons the durable store
// and is returned so the caller never acknowledges an unlogged mutation
// (the state is still committed — it is real, merely not durable). A
// panic in op is recovered and handled as op's error.
func (s *Session) commitWrite(op func(tx *store.Txn) error) error {
	var c *durable.Compaction
	defer func() {
		// After mu is released. The commit is logged: a failed compaction
		// is counted, not reported, and the next trigger retries.
		if c != nil {
			s.finishCompact(c)
		}
	}()
	s.mu.Lock()
	defer s.mu.Unlock()
	mark := 0
	ns := s.graph.Namespaces()
	nsGen := ns.Generation()
	if s.durable != nil {
		mark = s.reasoner.JournalLen()
	}
	tx := s.graph.Begin()
	opErr := s.runOp(op, tx)

	var logErr error
	if s.durable != nil {
		span := tx.Changes()
		ops := span.Ops()
		// A parse that declared prefixes logs the whole table; every other
		// commit leaves it out.
		var prefixes *rdf.Namespaces
		if ns.Generation() != nsGen {
			prefixes = ns
		}
		if span.Cleared() || len(ops) > 0 || prefixes != nil {
			logErr = s.durable.Append(durable.Record{
				Cleared:       span.Cleared(),
				Ops:           ops,
				EndVersion:    span.EndVersion(),
				TotalInferred: s.reasoner.TotalInferred(),
				Derivations:   s.reasoner.JournalSince(mark),
				Namespaces:    prefixes,
			})
		}
	}
	tx.CommitDeferred()
	if s.graph.Version() != s.graph.Snapshot().Version() {
		s.dirty.Store(true)
	}
	if logErr != nil {
		if opErr != nil {
			return fmt.Errorf("%w (additionally: %v)", opErr, logErr)
		}
		return logErr
	}
	if s.durable != nil && s.compactBytes > 0 && s.durable.WALSize() >= s.compactBytes &&
		s.compacting.TryLock() {
		c, _ = s.beginCompact() // a failure is counted
	}
	return opErr
}

// runOp runs op holding the live lock. A panic in op becomes its error,
// so the commit still logs, commits and closes tx, and the writer stays
// usable.
func (s *Session) runOp(op func(tx *store.Txn) error, tx *store.Txn) (err error) {
	s.live.Lock()
	defer s.live.Unlock()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("feo: write panicked: %v", r)
		}
	}()
	return op(tx)
}

// beginCompact pins a compaction under mu, compacting held: publish, rotate
// the WAL at the published state, and trim the journal the old WAL holds.
// On failure it counts the failure and frees compacting.
func (s *Session) beginCompact() (*durable.Compaction, error) {
	snap := s.graph.Publish()
	s.dirty.Store(false)
	c, err := s.durable.BeginCompact(snap.Graph(), s.reasoner.ClosureState())
	if err != nil {
		s.compactionFailures.Add(1)
		s.compacting.Unlock()
		return nil, err
	}
	s.reasoner.TrimJournal()
	return c, nil
}

// finishCompact writes the pinned snapshot after mu is released and
// frees compacting.
func (s *Session) finishCompact(c *durable.Compaction) error {
	defer s.compacting.Unlock()
	err := c.Finish()
	if err != nil {
		s.compactionFailures.Add(1)
	}
	return err
}

// Compact forces a durability compaction now: the current graph and
// closure state become the on-disk snapshot, and the write-ahead log
// restarts empty. No-op for non-durable sessions. Like the size trigger it
// rotates the log under the writer lock and writes the snapshot after
// releasing it, so commits go on into the new log; it waits for a
// compaction already running.
func (s *Session) Compact() error {
	if s.durable == nil {
		return nil
	}
	s.compacting.Lock()
	s.mu.Lock()
	c, err := s.beginCompact()
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return s.finishCompact(c)
}

// CompactionFailures counts the compactions that failed since Open. A
// failed compaction loses nothing: the WAL chain holds every commit.
func (s *Session) CompactionFailures() uint64 { return s.compactionFailures.Load() }

// Close flushes and closes the durability store (if any). Mutating calls
// after Close fail their commit append; read-only calls keep working.
func (s *Session) Close() error {
	if s.durable == nil {
		return nil
	}
	s.compacting.Lock() // let a compaction in flight finish
	defer s.compacting.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.durable.Close()
}

// LoadTurtle adds Turtle data to the session and re-materializes — only
// the loaded delta's consequences, not the whole closure. It commits as
// one writer transaction; readers keep the previous snapshot until the
// load publishes. A syntax error still commits, and closes, the triples
// parsed before it.
func (s *Session) LoadTurtle(doc string) error {
	return s.commitWrite(func(*store.Txn) error {
		err := turtle.ParseInto(s.graph, doc)
		s.engine.Rematerialize()
		return err
	})
}

// LoadRDFXML adds RDF/XML data (Protégé's export format) to the session
// and incrementally re-materializes, as one writer transaction. A syntax
// error still commits, and closes, the triples parsed before it.
func (s *Session) LoadRDFXML(r io.Reader) error {
	return s.commitWrite(func(*store.Txn) error {
		err := rdfxml.ParseInto(s.graph, r)
		s.engine.Rematerialize()
		return err
	})
}

// WriteRDFXML serializes the latest published snapshot as RDF/XML.
func (s *Session) WriteRDFXML(w io.Writer) error { return s.Snapshot().WriteRDFXML(w) }

// Query runs a SPARQL query against the latest published snapshot.
// Queries may run from many goroutines concurrently (each one evaluates
// on its caller's goroutine) and never block on — or get blocked by — the mutating calls (Explain,
// LoadTurtle, LoadRDFXML, Update): each query pins the snapshot current
// at its start and runs entirely against that frozen version.
func (s *Session) Query(q string) (*QueryResult, error) { return s.Snapshot().Query(q) }

// Explain generates an explanation for the question. Explanation
// generation WRITES: the engine asserts the question individual and the
// generated explanation individual (eo:Explanation node, eo:usesKnowledge
// evidence links, …) into the graph, so Explain runs as a writer
// transaction. Concurrent readers are untouched — they keep the previous
// snapshot until the commit publishes. The re-classification a new
// question triggers is incremental (delta) work, so the writer lock is
// held for the question's own consequences, not a whole-graph closure
// re-run.
func (s *Session) Explain(q Question) (*Explanation, error) {
	var ex *Explanation
	err := s.commitWrite(func(*store.Txn) error {
		var opErr error
		ex, opErr = s.engine.Explain(q)
		return opErr
	})
	if err != nil {
		return nil, err
	}
	return ex, nil
}

// Recommend ranks recipes for the user (Health Coach simulation) against
// the latest published snapshot.
func (s *Session) Recommend(user Term, limit int) []Recommendation {
	return s.Snapshot().Recommend(user, limit)
}

// RecommendGroup ranks recipes for a group; any member's hard constraint
// excludes a recipe. Runs against the latest published snapshot.
func (s *Session) RecommendGroup(users []Term, limit int) []Recommendation {
	return s.Snapshot().RecommendGroup(users, limit)
}

// Update applies a SPARQL 1.1 Update request (INSERT DATA, DELETE DATA,
// DELETE WHERE, DELETE/INSERT WHERE, CLEAR) and re-materializes whenever
// it added or removed a triple — incrementally for addition-only requests,
// with a full re-run when the request deleted, so the served graph is
// closed after every Update.
//
// Deletions remove only the named triples: consequences previously
// inferred from them are NOT retracted (forward-chaining materialization
// is monotonic, the same behavior as re-exporting from Pellet without
// reclassifying), and a deleted triple that is still derivable comes back
// with the re-run. Inferences whose recorded derivation lost a premise to
// the deletion are detected and returned in UpdateResult.StaleInferred so
// callers are never silently served stale proofs; to fully retract,
// rebuild the session from the edited source data.
func (s *Session) Update(req string) (sparql.UpdateResult, error) {
	var res sparql.UpdateResult
	err := s.commitWrite(func(tx *store.Txn) error {
		r, opErr := sparql.RunUpdate(s.graph, req)
		res = r
		if opErr != nil {
			return opErr
		}
		// A cleared capture no longer holds the removals made before the
		// CLEAR, so none are reported.
		if cs := tx.Changes(); res.Deleted > 0 && !cs.Cleared() {
			var removed []rdf.Triple
			for _, op := range cs.Ops() {
				if op.Remove {
					removed = append(removed, op.T)
				}
			}
			res.StaleInferred = s.reasoner.StaleDerivations(removed)
		}
		if res.Inserted > 0 || res.Deleted > 0 {
			s.engine.Rematerialize()
		}
		return nil
	})
	return res, err
}

// Validate runs the OWL consistency checks (disjoint classes, sameAs vs
// differentFrom, owl:Nothing, asymmetric/irreflexive violations, negative
// property assertions) over the latest published snapshot.
func (s *Session) Validate() []reasoner.Inconsistency { return s.Snapshot().Validate() }

// ExplainTriple returns the reasoner's derivation proof for a triple:
// which OWL RL rules produced it from which premises. Empty for asserted
// or unknown triples.
//
// Unlike the other reads, proofs come from the reasoner's live derivation
// traces, which are not versioned with the graph: ExplainTriple reflects
// every commit up to now (taking a short read lock against the
// mutate-and-materialize step), not the latest published snapshot.
func (s *Session) ExplainTriple(subject, predicate, object Term) []reasoner.ProofStep {
	s.live.RLock()
	defer s.live.RUnlock()
	return s.reasoner.Proof(rdf.Triple{S: subject, P: predicate, O: object})
}

// ReasonerInferred reports the reasoner's cumulative inferred-triple
// count and the per-run delta of its most recent materialization. Like
// ExplainTriple it reads the live session state (reasoner counters are
// not versioned with graph snapshots), under the live reader lock so it
// never races a committing writer. A serve-time observability hook: the
// /metrics endpoint exposes both numbers as gauges.
func (s *Session) ReasonerInferred() (total, lastRun int) {
	s.live.RLock()
	defer s.live.RUnlock()
	return s.reasoner.TotalInferred(), s.reasoner.LastRunInferred()
}

// WriteTurtle serializes the latest published snapshot as Turtle.
func (s *Session) WriteTurtle(w io.Writer) error { return s.Snapshot().WriteTurtle(w) }

// Stats summarizes the latest published snapshot.
func (s *Session) Stats() string { return s.Snapshot().Stats() }
