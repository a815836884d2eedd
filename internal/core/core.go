// Package core is the explanation engine — the paper's primary
// contribution operationalized. Given a question about a food
// recommendation, it asserts the question into the knowledge graph, runs
// the OWL RL reasoner to classify the ecosystem (exactly as the paper runs
// Pellet before querying), evaluates an explanation-type-specific SPARQL
// query, and renders the bindings as a natural-language explanation with
// full provenance.
//
// All nine literature-derived explanation types of the paper's Table I are
// implemented: the three the paper evaluates (contextual, contrastive,
// counterfactual — Listings 1-3) and the six it defers to future work
// (case-based, everyday, scientific, simulation-based, statistical,
// trace-based), built from the sketches in the paper's §VI.
package core

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/healthcoach"
	"repro/internal/ontology"
	"repro/internal/rdf"
	"repro/internal/reasoner"
	"repro/internal/sparql"
	"repro/internal/store"
)

// ExplanationType enumerates the nine Table I explanation types.
type ExplanationType int

// The explanation types, in Table I order.
const (
	CaseBased ExplanationType = iota
	Contextual
	Contrastive
	Counterfactual
	Everyday
	Scientific
	SimulationBased
	Statistical
	TraceBased
)

var typeNames = [...]string{
	"case-based", "contextual", "contrastive", "counterfactual",
	"everyday", "scientific", "simulation-based", "statistical",
	"trace-based",
}

// String returns the lowercase type name used by the CLI.
func (t ExplanationType) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("ExplanationType(%d)", int(t))
}

// ParseExplanationType maps a CLI name to a type.
func ParseExplanationType(s string) (ExplanationType, error) {
	for i, n := range typeNames {
		if n == s {
			return ExplanationType(i), nil
		}
	}
	return 0, fmt.Errorf("core: unknown explanation type %q", s)
}

// AllExplanationTypes lists every type in Table I order.
func AllExplanationTypes() []ExplanationType {
	out := make([]ExplanationType, len(typeNames))
	for i := range out {
		out[i] = ExplanationType(i)
	}
	return out
}

// ClassIRI returns the EO class for the explanation type.
func (t ExplanationType) ClassIRI() rdf.Term {
	switch t {
	case CaseBased:
		return ontology.EOCaseBasedExplanation
	case Contextual:
		return ontology.EOContextualExplanation
	case Contrastive:
		return ontology.EOContrastiveExplanation
	case Counterfactual:
		return ontology.EOCounterfactualExplanation
	case Everyday:
		return ontology.EOEverydayExplanation
	case Scientific:
		return ontology.EOScientificExplanation
	case SimulationBased:
		return ontology.EOSimulationBasedExplanation
	case Statistical:
		return ontology.EOStatisticalExplanation
	default:
		return ontology.EOTraceBasedExplanation
	}
}

// ExampleQuestion returns Table I's example user question for the type.
func (t ExplanationType) ExampleQuestion() string {
	switch t {
	case CaseBased:
		return "What results from other users recommend food A?"
	case Contextual:
		return "Why should I eat Food A?"
	case Contrastive:
		return "Why was Food A recommended over Food B?"
	case Counterfactual:
		return "What if we changed ingredient C?"
	case Everyday:
		return "What foods go together?"
	case Scientific:
		return "What literature recommends Food A?"
	case SimulationBased:
		return "What if I ate food A everyday?"
	case Statistical:
		return "What evidence from data suggests I follow diet D?"
	default:
		return "What steps led to recommendation E?"
	}
}

// Question is a user question about a recommendation.
type Question struct {
	// IRI optionally names a pre-asserted question individual (the CQ
	// datasets provide these); when zero the engine mints one.
	IRI rdf.Term
	// Type selects the explanation type to generate.
	Type ExplanationType
	// Primary is the main parameter (the recommended food, the changed
	// ingredient, the hypothetical condition, or the diet, depending on
	// type).
	Primary rdf.Term
	// Secondary is the contrast parameter for contrastive questions.
	Secondary rdf.Term
	// User is the asking user, when user context matters.
	User rdf.Term
	// Text is the free-form question text (kept for provenance).
	Text string
}

// Evidence is one unit of support for an explanation: the SPARQL bindings
// that produced it and the graph triples behind them.
type Evidence struct {
	Bindings sparql.Solution
	Triples  []rdf.Triple
	// Phrase is the rendered NL fragment for this evidence item.
	Phrase string
}

// Explanation is the engine's output.
type Explanation struct {
	Type     ExplanationType
	Question Question
	// IRI names the eo:Explanation individual asserted into the graph for
	// this explanation.
	IRI rdf.Term
	// Summary is the rendered natural-language explanation.
	Summary string
	// Evidence lists the supporting bindings in deterministic order.
	Evidence []Evidence
	// Query is the SPARQL text evaluated (empty for trace-based, which
	// reads the recommender trace instead).
	Query string
}

// Engine generates explanations over a materialized knowledge graph.
type Engine struct {
	g *store.Graph
	r *reasoner.Reasoner
	// coach is optional; it powers trace-based explanations.
	coach *healthcoach.Coach
	seq   int
	// dict is the graph's term dictionary the question bookkeeping was
	// built against. Graph.Clear swaps the dictionary, orphaning every
	// cached question IRI; syncQuestionState detects the swap and rebuilds.
	dict *store.TermDict
	// questionCache reuses minted question individuals for repeated asks,
	// keeping Explain idempotent on the graph. Keyed on the full question
	// identity including its free-form text, so asks that differ only in
	// phrasing each get their own individual (and exactly one rdfs:comment)
	// instead of piling comments onto a shared node.
	questionCache map[questionKey]rdf.Term
	// pending captures every graph mutation since the last
	// re-materialization — question/explanation assertions, session loads,
	// SPARQL updates, even direct Graph writes by the embedding
	// application — so Rematerialize can hand the reasoner an exact delta.
	pending *store.ChangeSet
}

type questionKey struct {
	typ                ExplanationType
	primary, secondary rdf.Term
	text               string
}

// NewEngine wraps a graph and its reasoner. The graph should contain the
// FEO TBox and instance data; the engine re-materializes (incrementally)
// after asserting new questions.
func NewEngine(g *store.Graph, r *reasoner.Reasoner) *Engine {
	if r == nil {
		r = reasoner.New(reasoner.Options{TraceDerivations: true})
		r.Materialize(g)
	}
	e := &Engine{g: g, r: r, dict: g.Dict(),
		questionCache: make(map[questionKey]rdf.Term),
		pending:       g.StartCapture()}
	e.restoreQuestionState()
	return e
}

// syncQuestionState rebuilds the minted-question bookkeeping after
// Graph.Clear replaced the term dictionary. The cached IRIs' triples died
// with the old graph, so reusing them would answer repeated questions with
// individuals absent from the graph, and the sequence counter would keep
// counting ghosts. Resetting and rescanning also keeps a live session's
// post-Clear behavior identical to a session recovered from the durability
// log, whose engine rebuilds this state from the replayed graph.
func (e *Engine) syncQuestionState() {
	if e.dict == e.g.Dict() {
		return
	}
	e.dict = e.g.Dict()
	e.seq = 0
	clear(e.questionCache)
	e.restoreQuestionState()
}

// restoreQuestionState rebuilds the minted-question bookkeeping from the
// graph, so an engine over a reloaded (durable) graph keeps Explain's
// invariants across restarts: the sequence counter resumes past every
// previously minted question IRI (never re-minting a colliding
// kg:question/qNNNN), and repeated asks of a question answered in an
// earlier process reuse its individual instead of asserting a duplicate.
// Only IRIs with the engine's own mint prefix participate; pre-asserted CQ
// question individuals are left alone exactly as in a fresh session.
func (e *Engine) restoreQuestionState() {
	const mintPrefix = "question/q"
	prefix := rdf.KGNS + mintPrefix
	for _, q := range e.g.InstancesOf(ontology.FEOFoodQuestion) {
		if q.Kind != rdf.KindIRI || !strings.HasPrefix(q.Value, prefix) {
			continue
		}
		n, err := strconv.Atoi(q.Value[len(prefix):])
		if err != nil || n <= 0 {
			continue
		}
		if n > e.seq {
			e.seq = n
		}
		typ, ok := e.questionType(q)
		if !ok {
			continue
		}
		key := questionKey{typ: typ}
		if p := e.g.FirstObject(q, ontology.FEOHasPrimaryParameter); p.IsValid() {
			key.primary = p
			key.secondary = e.g.FirstObject(q, ontology.FEOHasSecondaryParameter)
		} else {
			key.primary = e.g.FirstObject(q, ontology.FEOHasParameter)
		}
		if c := e.g.FirstObject(q, rdf.CommentIRI); c.IsValid() {
			key.text = c.Value
		}
		if _, exists := e.questionCache[key]; !exists {
			e.questionCache[key] = q
		}
	}
}

// questionType recovers the explanation type a minted question was asked
// with, from its asserted type classes (Table I order breaks ties).
func (e *Engine) questionType(q rdf.Term) (ExplanationType, bool) {
	for _, t := range AllExplanationTypes() {
		if e.g.Has(q, rdf.TypeIRI, t.ClassIRI()) {
			return t, true
		}
	}
	return 0, false
}

// Rematerialize brings the OWL RL closure up to date with every graph
// mutation since the previous run and re-arms change capture. The engine's
// capture spans runs, not transactions, so it also covers direct graph
// writes by the embedding application. When the mutations were pure
// additions (the serve-time common case: question assertions, INSERT DATA,
// document loads), the reasoner extends the closure incrementally in
// O(|delta closure|) from the capture's ID-space op stream; removals,
// OWL class-expression triples (intersections, unions, restrictions,
// property chains, list cells), Clear, or mutations that bypassed capture
// fall back to a full re-run.
// Callers that mutate the graph directly may invoke it themselves; Explain
// and feo.Session call it automatically, including after a load that
// failed part-way, so whatever landed is closed before it is published.
func (e *Engine) Rematerialize() reasoner.Stats {
	cs := e.pending
	e.pending = nil
	stats := e.r.MaterializeChanges(e.g, cs)
	e.pending = e.g.StartCapture()
	return stats
}

// SetCoach attaches a Health Coach recommender whose traces power
// trace-based explanations.
func (e *Engine) SetCoach(c *healthcoach.Coach) { e.coach = c }

// Graph exposes the underlying graph (read-mostly).
func (e *Engine) Graph() *store.Graph { return e.g }

// Reasoner exposes the attached reasoner (for proof inspection).
func (e *Engine) Reasoner() *reasoner.Reasoner { return e.r }

// Explain dispatches to the generator for q.Type, then asserts the
// generated explanation back into the graph as an eo:Explanation
// individual — FEO's core premise is that explanations are first-class,
// queryable semantic objects.
func (e *Engine) Explain(q Question) (*Explanation, error) {
	ex, err := e.generate(q)
	if err != nil {
		return nil, err
	}
	ex.IRI = e.assertExplanation(ex)
	return ex, nil
}

func (e *Engine) generate(q Question) (*Explanation, error) {
	if !q.Primary.IsValid() && q.Type != Everyday {
		return nil, fmt.Errorf("core: question needs a primary parameter")
	}
	e.ensureQuestion(&q)
	switch q.Type {
	case Contextual:
		return e.contextual(q)
	case Contrastive:
		return e.contrastive(q)
	case Counterfactual:
		return e.counterfactual(q)
	case CaseBased:
		return e.caseBased(q)
	case Everyday:
		return e.everyday(q)
	case Scientific:
		return e.scientific(q)
	case SimulationBased:
		return e.simulationBased(q)
	case Statistical:
		return e.statistical(q)
	case TraceBased:
		return e.traceBased(q)
	default:
		return nil, fmt.Errorf("core: unsupported explanation type %v", q.Type)
	}
}

// ensureQuestion asserts the question individual and parameters into the
// graph and re-materializes so parameter classification (feo:Parameter,
// eo:Fact/eo:Foil) reflects the question being asked. The
// re-materialization is incremental: the write-critical section costs
// O(closure of the few question triples), not O(|graph|).
func (e *Engine) ensureQuestion(q *Question) {
	e.syncQuestionState()
	if !q.IRI.IsValid() {
		key := questionKey{typ: q.Type, primary: q.Primary, secondary: q.Secondary, text: q.Text}
		if cached, ok := e.questionCache[key]; ok {
			q.IRI = cached
		} else {
			e.seq++
			q.IRI = rdf.NewIRI(rdf.KGNS + fmt.Sprintf("question/q%04d", e.seq))
			e.questionCache[key] = q.IRI
		}
	}
	added := false
	add := func(s, p, o rdf.Term) {
		if e.g.Add(s, p, o) {
			added = true
		}
	}
	add(q.IRI, rdf.TypeIRI, ontology.FEOFoodQuestion)
	add(q.IRI, rdf.TypeIRI, q.Type.ClassIRI())
	if q.Text != "" {
		add(q.IRI, rdf.CommentIRI, rdf.NewLiteral(q.Text))
	}
	if q.Primary.IsValid() {
		if q.Secondary.IsValid() {
			add(q.IRI, ontology.FEOHasPrimaryParameter, q.Primary)
			add(q.IRI, ontology.FEOHasSecondaryParameter, q.Secondary)
		} else {
			add(q.IRI, ontology.FEOHasParameter, q.Primary)
		}
	}
	if added {
		e.Rematerialize()
	}
}

// assertExplanation writes the explanation into the graph as an
// eo:Explanation individual: its type class, the question it addresses,
// the knowledge (evidence terms) it uses, and the rendered summary. Reuses
// one individual per (question, type) pair so repeated asks stay
// idempotent. The added triples land in the engine's pending change
// capture and are classified by the next (incremental) Rematerialize,
// matching the historical timing of the full re-run.
func (e *Engine) assertExplanation(ex *Explanation) rdf.Term {
	node := rdf.NewIRI(rdf.KGNS + "explanation/" +
		localOf(shrinkOr(e.g, ex.Question.IRI)) + "-" + ex.Type.String())
	e.g.Add(node, rdf.TypeIRI, rdf.NewIRI(rdf.EONS+"Explanation"))
	e.g.Add(node, rdf.TypeIRI, ex.Type.ClassIRI())
	e.g.Add(node, ontology.EOAddresses, ex.Question.IRI)
	e.g.Add(node, rdf.CommentIRI, rdf.NewLiteral(ex.Summary))
	for _, ev := range ex.Evidence {
		for _, t := range ev.Triples {
			if t.S.IsValid() && (t.S.IsIRI() || t.S.IsBlank()) {
				e.g.Add(node, ontology.EOUsesKnowledge, t.S)
			}
		}
	}
	// Link to the recommendation being explained when the primary
	// parameter was recommended by a system.
	for _, sys := range e.g.InstancesOf(ontology.EOSystem) {
		if e.g.Has(sys, ontology.EORecommends, ex.Question.Primary) {
			e.g.Add(node, ontology.EOExplains, ex.Question.Primary)
			e.g.Add(node, ontology.EOGeneratedBy, sys)
		}
	}
	return node
}

func shrinkOr(g *store.Graph, t rdf.Term) string {
	if q, ok := g.Namespaces().Shrink(t.Value); ok {
		return q
	}
	return t.Value
}

// label renders a term for humans: rdfs:label, else QName local part.
func (e *Engine) label(t rdf.Term) string {
	if l := e.g.FirstObject(t, rdf.LabelIRI); l.IsValid() {
		return l.Value
	}
	if q, ok := e.g.Namespaces().Shrink(t.Value); ok {
		return spaceCamel(localOf(q))
	}
	return t.Value
}

func localOf(qname string) string {
	for i := len(qname) - 1; i >= 0; i-- {
		if qname[i] == ':' {
			return qname[i+1:]
		}
	}
	return qname
}

// spaceCamel turns "CauliflowerPotatoCurry" into "Cauliflower Potato Curry".
func spaceCamel(s string) string {
	out := make([]rune, 0, len(s)+4)
	runes := []rune(s)
	for i, r := range runes {
		if i > 0 && r >= 'A' && r <= 'Z' && runes[i-1] >= 'a' && runes[i-1] <= 'z' {
			out = append(out, ' ')
		}
		out = append(out, r)
	}
	return string(out)
}
