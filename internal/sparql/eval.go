package sparql

import (
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/rdf"
	"repro/internal/store"
)

// Result holds the outcome of executing a query.
type Result struct {
	Kind QueryKind
	// Vars lists the projected variable names in order (SELECT).
	Vars []string
	// Solutions holds the rows (SELECT).
	Solutions []Solution
	// Boolean is the ASK answer.
	Boolean bool
	// Graph holds CONSTRUCT/DESCRIBE output.
	Graph *store.Graph
	// Namespaces from the query, for rendering.
	Namespaces *rdf.Namespaces
}

// Execute runs a parsed query against a graph, entirely on the calling
// goroutine. The graph must be quiescent (no concurrent writers) for the
// duration of the call, per the store's reader contract. Concurrent Execute
// calls against one graph are safe; that is where the engine's parallelism
// comes from.
//
// Internally every operator works on fixed-slot ID rows (see idspace.go).
// SELECT and ASK run the same push pipeline as ExecuteStream, with a sink
// that decodes each projected row into its public Solution map — the one
// map allocation per result row.
func Execute(g *store.Graph, q *Query) (*Result, error) {
	return prepare(q).execute(g)
}

// prepared is a query ready to run: a parsed tree or a cached template,
// its slot table, and the values of the template's parameters.
type prepared struct {
	q      *Query
	env    *slotEnv
	params []rdf.Term
}

func prepare(q *Query) prepared { return prepared{q: q, env: buildQueryEnv(q)} }

// context pins g for one execution.
func (pq prepared) context(g *store.Graph) *evalContext {
	ec := newEvalContext(g, pq.env)
	ec.params = pq.params
	return ec
}

func (pq prepared) execute(g *store.Graph) (*Result, error) {
	q, ec := pq.q, pq.context(g)
	res := &Result{Kind: q.Kind, Namespaces: q.Namespaces}
	switch q.Kind {
	case KindAsk:
		res.Boolean = ec.exists(q.Where, ec.newRow())
	case KindConstruct, KindDescribe:
		res.Graph = ec.resultGraph(q, ec.graphTriples(q))
	default:
		var slots []int
		res.Vars, slots = ec.projection(q)
		ec.evalSelect(q, slots, func(r idRow) bool {
			sol := make(Solution, len(slots))
			for i, s := range slots {
				if s >= 0 && r[s] != store.NoID {
					sol[res.Vars[i]] = ec.termOf(r[s])
				}
			}
			res.Solutions = append(res.Solutions, sol)
			return true
		})
	}
	return res, nil
}

// Run parses and executes src against g in one call. Parses are cached
// by query shape (see lookupQuery), so a request stream of one query
// template with ever-new constants reuses one immutable parse tree —
// which in turn is what lets the plan cache hit across requests: its keys
// include BGP identity, and a fresh parse would mint fresh identities.
func Run(g *store.Graph, src string) (*Result, error) {
	pq, err := lookupQuery(src)
	if err != nil {
		return nil, err
	}
	return pq.execute(g)
}

// The shape cache maps a query's fingerprint (lexer.go) to an immutable
// template: the parse tree with every lifted constant in a triple-pattern
// position or an expression replaced by a parameter reference, plus its
// slot table. A hit costs one scan of the text — no parse tree, no
// namespace map — and the scan's parameter vector binds the template.
//
// A template that compiled some lifted constants in (a VALUES cell, a
// path endpoint, a CONSTRUCT or DESCRIBE term, a signed number, a
// GROUP_CONCAT separator) lists them as pinned: its fingerprint's entry
// holds only that list, and the template itself is filed under the
// fingerprint extended by the pinned values. Bounded like a plan memo:
// on overflow the whole map drops.
var shapeCache struct {
	sync.RWMutex
	m map[string]*shape
}

// shape is one shape-cache entry: a template, or (q == nil) the list of
// pinned parameters that completes its fingerprint's key.
type shape struct {
	q      *Query
	env    *slotEnv
	pinned []int
}

const shapeCacheMax = 512

var shapeHits, shapeMisses atomic.Uint64

// ShapeCacheStats returns the cumulative shape-cache hit and miss counts
// of Run, RunStream and RunGraphStream since process start.
func ShapeCacheStats() (hits, misses uint64) {
	return shapeHits.Load(), shapeMisses.Load()
}

// lookupQuery returns the template src binds and its parameter values,
// parsing and caching the template on a miss. Parse errors are not
// cached.
func lookupQuery(src string) (prepared, error) {
	var buf [256]byte
	key, params, err := fingerprint(src, buf[:0])
	if err != nil {
		if _, perr := ParseQuery(src); perr != nil {
			err = perr // the error a parse reports
		}
		return prepared{}, err
	}
	fpLen := len(key)
	shapeCache.RLock()
	s := shapeCache.m[string(key)]
	if s != nil && s.q == nil {
		key = appendPinned(key, s.pinned, params)
		s = shapeCache.m[string(key)]
	}
	shapeCache.RUnlock()
	if s != nil {
		shapeHits.Add(1)
		return prepared{q: s.q, env: s.env, params: params}, nil
	}
	shapeMisses.Add(1)
	q, p, err := parse(src, true)
	if err != nil {
		return prepared{}, err
	}
	pq := prepared{q: q, env: buildQueryEnv(q), params: p.lx.params}
	storeShape(key[:fpLen], p.pinned, pq)
	return pq, nil
}

// storeShape files a freshly parsed template under fingerprint fp.
func storeShape(fp []byte, pinned []int, pq prepared) {
	slices.Sort(pinned)
	pinned = slices.Compact(pinned)
	shapeCache.Lock()
	defer shapeCache.Unlock()
	if shapeCache.m == nil || len(shapeCache.m) >= shapeCacheMax {
		shapeCache.m = make(map[string]*shape)
	}
	tmpl := &shape{q: pq.q, env: pq.env}
	if len(pinned) == 0 {
		shapeCache.m[string(fp)] = tmpl
		return
	}
	// Every text with this fingerprint that parses pins the same
	// parameters: the parser's path depends only on the token stream the
	// key keeps.
	if shapeCache.m[string(fp)] == nil {
		shapeCache.m[string(fp)] = &shape{pinned: pinned}
	}
	shapeCache.m[string(appendPinned(fp, pinned, pq.params))] = tmpl
}

// evalContext is the state of one execution. It is confined to the
// goroutine that called Execute, so its lazily filled caches need no
// synchronisation; only the caches shared across executions (the
// package-level shape and regex caches, the graph's plan memo) are.
type evalContext struct {
	g *store.Graph
	// env is the query's variable→slot binding table; every idRow this
	// context touches has exactly env.width() slots.
	env *slotEnv
	// gver is the graph's mutation version at Execute entry, and dictLen
	// the dictionary size of that snapshot (the boundary between graph IDs
	// and query-local extension IDs). The memo caches below are only valid
	// for that snapshot; the path caches and the plan cache check it and
	// bypass themselves if the graph mutated mid-query (a reader-contract
	// violation, degraded to uncached evaluation instead of stale results).
	gver    uint64
	dictLen int
	// params holds the values of a cached template's parameter
	// references (see lookupQuery); nil for a parsed query.
	params []rdf.Term
	// Query-local extension dictionary: terms the graph has never interned
	// (expression results, VALUES constants), with IDs growing downward
	// from just below store.NoID. See idspace.go.
	extIDs   map[rdf.Term]store.ID
	extTerms []rdf.Term
	// Per-query property-path memos, ID-keyed: the graph is immutable
	// while a query runs, so the ID set a path reaches from a given
	// endpoint is computed once even when many rows probe the same
	// (path, endpoint, direction) triple, and an IRI step's predicate is
	// looked up once. See path.go.
	pathMemo      map[pathIDKey][]store.ID
	pathStartMemo map[*Path][]store.ID
	pathPreds     map[*Path]store.ID
	// chains memoizes the push chain of every EXISTS body (and ASK's
	// WHERE clause) this execution evaluated, so a body probed once per
	// row compiles, and looks its plans up, once.
	chains map[*Group]*groupChain
	// stop, when non-nil, is a cooperative cancellation flag (set by
	// ExecuteStream's deadline timer). The row loops and the push steps
	// poll it and unwind with partial state, which the caller then
	// discards; rows already pushed to a sink were complete when pushed.
	// nil — the plain Execute path — keeps the polls to a nil check.
	stop *atomic.Bool
}

// rowSink receives one solution row from a push evaluation. The row is
// the producer's scratch, valid only during the call: a sink must not
// write to it, and must clone it to keep it. Returning false stops the
// evaluation.
type rowSink func(idRow) bool

// canceled reports whether this execution's deadline has fired.
func (ec *evalContext) canceled() bool { return ec.stop != nil && ec.stop.Load() }

// newEvalContext pins the graph snapshot for this execution.
func newEvalContext(g *store.Graph, env *slotEnv) *evalContext {
	return &evalContext{
		g:       g,
		env:     env,
		gver:    g.Version(),
		dictLen: g.Dict().Len(),
	}
}

// constOf returns a constant pattern position's term: this execution's
// parameter value for a template's parameter reference.
func (ec *evalContext) constOf(tv TermOrVar) rdf.Term {
	if tv.param > 0 {
		return ec.params[tv.param-1]
	}
	return tv.Term
}

type pathIDKey struct {
	p        *Path
	t        store.ID
	backward bool
}

// groupChain is the push chain of a group evaluated as a probe — an
// EXISTS body or ASK's WHERE clause — whose solutions only matter up to
// the first. It is compiled at the first evaluation and reused for every
// row after that; certain is the bound-slot set of the point that
// evaluates it, registered when the enclosing group compiled (nil: none).
type groupChain struct {
	certain []bool
	entry   rowSink
	found   bool
}

// chainFor returns g's probe memo entry, creating it.
func (ec *evalContext) chainFor(g *Group) *groupChain {
	c := ec.chains[g]
	if c == nil {
		if ec.chains == nil {
			ec.chains = make(map[*Group]*groupChain)
		}
		c = &groupChain{}
		ec.chains[g] = c
	}
	return c
}

// exists reports whether group g has a solution extending r (ASK, EXISTS),
// stopping the evaluation at the first one.
func (ec *evalContext) exists(g *Group, r idRow) bool {
	c := ec.chainFor(g)
	if c.entry == nil {
		c.entry = ec.chainGroup(g, c.certain, func(idRow) bool {
			c.found = true
			return false
		})
	}
	c.found = false
	c.entry(r)
	return c.found
}

// noteExists registers certain as the entry set of every EXISTS body e
// evaluates directly (a body nested in another body registers when that
// one compiles). An EXISTS that no group registers — in a projection,
// ORDER BY, GROUP BY or HAVING expression — enters with nothing certain.
func (ec *evalContext) noteExists(e Expression, certain []bool) {
	switch x := e.(type) {
	case *ExistsExpr:
		ec.chainFor(x.Pattern).certain = certain
	case *BinaryExpr:
		ec.noteExists(x.Left, certain)
		ec.noteExists(x.Right, certain)
	case *UnaryExpr:
		ec.noteExists(x.Expr, certain)
	case *FuncExpr:
		for _, a := range x.Args {
			ec.noteExists(a, certain)
		}
	case *InExpr:
		ec.noteExists(x.Expr, certain)
		for _, a := range x.List {
			ec.noteExists(a, certain)
		}
	}
}

// evalWhere pushes the solutions of a WHERE clause, evaluated in a fresh
// scope, into sink.
func (ec *evalContext) evalWhere(g *Group, sink rowSink) {
	ec.chainGroup(g, nil, sink)(ec.newRow())
}

// collect gathers what a push evaluation emits, cloning each row out of
// the producer's scratch: the only copy a pushed row ever gets.
func collect(push func(rowSink)) []idRow {
	var out []idRow
	push(func(r idRow) bool {
		out = append(out, cloneRow(r))
		return true
	})
	return out
}

// pushRows hands rows to sink in order until it stops.
func pushRows(rows []idRow, sink rowSink) bool {
	for _, r := range rows {
		if !sink(r) {
			return false
		}
	}
	return true
}

// groupStages is the static analysis a group's chain is compiled from.
// From entry, the slots bound in every row that enters g, it derives
// top-down certs[k], the slots bound in every row that reaches pattern k
// (certs[len(g.Patterns)]: every row that leaves the last pattern), and
// the stage each filter runs at: the first k at which every variable the
// filter mentions is certainly bound or can never be bound by g, else the
// end. A pushed-down filter prunes rows before later patterns multiply
// them; its value for a row cannot change once its variables are bound,
// so the solutions are those of filtering at the end.
func (ec *evalContext) groupStages(g *Group, entry []bool) (certs [][]bool, stage []int) {
	n, w := len(g.Patterns), ec.env.width()
	sets := make([]bool, (n+2)*w) // certs[0..n], then possible
	certs = make([][]bool, n+1)
	for k := range certs {
		certs[k] = sets[k*w : (k+1)*w : (k+1)*w]
	}
	copy(certs[0], entry)
	for k, p := range g.Patterns {
		copy(certs[k+1], certs[k])
		ec.addCertain(p, certs[k+1])
	}
	if len(g.Filters) == 0 {
		return certs, nil
	}
	possible := sets[(n+1)*w:]
	for _, p := range g.Patterns {
		collectPossibleVars(p, func(v string) {
			if s := ec.env.slot(v); s >= 0 {
				possible[s] = true
			}
		})
	}
	stage = make([]int, len(g.Filters))
	for i, f := range g.Filters {
		vars := collectExprVars(f)
		k := 0
		for ; k < n; k++ {
			ready := true
			for _, v := range vars {
				// A variable blocks the filter only while g could still bind
				// it: anything else is bound already or stays unbound forever
				// (existential / error semantics).
				if s := ec.env.slot(v); s >= 0 && !certs[k][s] && possible[s] {
					ready = false
					break
				}
			}
			if ready {
				break
			}
		}
		stage[i] = k
	}
	return certs, stage
}

// chainGroup compiles g, entered by rows that bind every slot in entry,
// into a push chain in front of sink and returns its entry: each pattern
// is one link handing the rows it produces to the next, and each filter
// runs between the links of its stage (groupStages). The chain is built
// once per evaluation of the enclosing query and carries every row: the
// links' scratch rows and plans are reused, nothing is collected. A link
// is never re-entered while it runs — rows only flow forward through the
// pattern tree — so its scratch needs no copy per call.
func (ec *evalContext) chainGroup(g *Group, entry []bool, sink rowSink) rowSink {
	certs, stage := ec.groupStages(g, entry)
	next := sink
	for k := len(g.Patterns); k >= 0; k-- {
		var fs []Expression
		for i, f := range g.Filters {
			if stage[i] == k {
				fs = append(fs, f)
				ec.noteExists(f, certs[k])
			}
		}
		if len(fs) > 0 {
			next = ec.filterLink(fs, next)
		}
		if k > 0 {
			next = ec.chainPattern(g.Patterns[k-1], certs[k-1], next)
		}
	}
	return next
}

// filterLink passes on the rows every filter in fs accepts.
func (ec *evalContext) filterLink(fs []Expression, next rowSink) rowSink {
	return func(r idRow) bool {
		for _, f := range fs {
			if ok, err := ebvOf(f, ec, r); err != nil || !ok {
				return true
			}
		}
		return next(r)
	}
}

// chainPattern compiles one pattern, entered by rows that bind every slot
// in certain, into a link in front of next. BGPs, nested groups, OPTIONAL,
// UNION, BIND, VALUES and filters push row by row; MINUS and a subquery,
// whose right side does not depend on the row, materialize that side once,
// at the first row.
func (ec *evalContext) chainPattern(p Pattern, certain []bool, next rowSink) rowSink {
	switch pat := p.(type) {
	case *BGP:
		return ec.chainBGP(pat, certain, next)
	case *Group:
		return ec.chainGroup(pat, certain, next)
	case *Optional:
		// The body's end marks that this row extended; a row the body
		// never extends passes on as it came.
		matched := false
		body := ec.chainGroup(pat.Pattern, certain, func(r idRow) bool {
			matched = true
			return next(r)
		})
		return func(r idRow) bool {
			matched = false
			if !body(r) {
				return false
			}
			return matched || next(r)
		}
	case *Union:
		left := ec.chainGroup(pat.Left, certain, next)
		right := ec.chainGroup(pat.Right, certain, next)
		return func(r idRow) bool { return left(r) && right(r) }
	case *Minus:
		var rhs []idRow
		built := false
		return func(r idRow) bool {
			if !built {
				rhs = collect(func(sink rowSink) { ec.evalWhere(pat.Pattern, sink) })
				built = true
			}
			if ec.canceled() {
				return false
			}
			return minusMatchesRows(r, rhs) || next(r)
		}
	case *Bind:
		return ec.bindLink(pat, certain, next)
	case *InlineData:
		return ec.valuesLink(pat, next)
	case *SubSelect:
		// Subqueries evaluate in a fresh scope; their projected rows carry
		// only the projected slots, then join with the outer rows.
		var rows []idRow
		built := false
		out := ec.newRow()
		return func(r idRow) bool {
			if !built {
				_, slots := ec.projection(pat.Query)
				rows = collect(func(sink rowSink) { ec.evalSelect(pat.Query, slots, sink) })
				built = true
			}
			if ec.canceled() {
				return false
			}
			for _, sr := range rows {
				if joinInto(out, r, sr) && !next(out) {
					return false
				}
			}
			return true
		}
	}
	return func(idRow) bool { return true }
}

// bindLink binds BIND's variable in each row: an expression error leaves
// it unbound, and a row that already binds it passes only with the same
// value.
func (ec *evalContext) bindLink(pat *Bind, certain []bool, next rowSink) rowSink {
	ec.noteExists(pat.Expr, certain)
	slot := ec.env.slot(pat.Var)
	out := ec.newRow()
	return func(r idRow) bool {
		v, err := pat.Expr.Eval(ec, r)
		if err != nil {
			return next(r)
		}
		id := ec.encodeTerm(v)
		if r[slot] != store.NoID {
			return r[slot] != id || next(r)
		}
		copy(out, r)
		out[slot] = id
		return next(out)
	}
}

// valuesLink joins a VALUES block: each data row's cells are encoded once,
// then merged into every input row (ID equality).
func (ec *evalContext) valuesLink(pat *InlineData, next rowSink) rowSink {
	slots := make([]int, len(pat.Vars))
	for i, v := range pat.Vars {
		slots[i] = ec.env.slot(v)
	}
	enc := make([]idRow, len(pat.Rows))
	for i, row := range pat.Rows {
		enc[i] = ec.newRow()
		for j, cell := range row {
			if cell.Defined { // UNDEF stays NoID
				enc[i][slots[j]] = ec.encodeTerm(cell.Term)
			}
		}
	}
	out := ec.newRow()
	return func(r idRow) bool {
		for _, data := range enc {
			if joinInto(out, r, data) && !next(out) {
				return false
			}
		}
		return true
	}
}

// collectPossibleVars calls add for every variable p could bind in any
// solution.
func collectPossibleVars(p Pattern, add func(string)) {
	switch pat := p.(type) {
	case *BGP:
		for _, tp := range pat.Triples {
			for _, tv := range [3]TermOrVar{tp.S, tp.P, tp.O} {
				if tv.IsVar {
					add(tv.Var)
				}
			}
		}
	case *Group:
		for _, sub := range pat.Patterns {
			collectPossibleVars(sub, add)
		}
	case *Optional:
		collectPossibleVars(pat.Pattern, add)
	case *Union:
		collectPossibleVars(pat.Left, add)
		collectPossibleVars(pat.Right, add)
	case *Bind:
		add(pat.Var)
	case *InlineData:
		for _, v := range pat.Vars {
			add(v)
		}
	case *SubSelect:
		for _, item := range pat.Query.Projection {
			add(item.Var)
		}
		if len(pat.Query.Projection) == 0 && pat.Query.Where != nil {
			// SELECT *: anything its WHERE clause mentions.
			collectPossibleVars(pat.Query.Where, add)
		}
	}
	// *Minus binds nothing.
}

// addCertain marks the slots bound in every solution after p evaluates
// successfully: every variable of a BGP, what a group's patterns
// guarantee, what both sides of a UNION guarantee, the variable of a BIND
// of a constant, and each VALUES column without an UNDEF cell. OPTIONAL,
// MINUS, a subquery and a BIND of any other expression guarantee nothing:
// their bindings can be absent from individual solutions.
func (ec *evalContext) addCertain(p Pattern, certain []bool) {
	mark := func(v string) {
		if s := ec.env.slot(v); s >= 0 {
			certain[s] = true
		}
	}
	switch pat := p.(type) {
	case *BGP:
		collectPossibleVars(pat, mark)
	case *Group:
		for _, sub := range pat.Patterns {
			ec.addCertain(sub, certain)
		}
	case *Union:
		left, right := slices.Clone(certain), slices.Clone(certain)
		ec.addCertain(pat.Left, left)
		ec.addCertain(pat.Right, right)
		for s := range certain {
			certain[s] = left[s] && right[s]
		}
	case *Bind:
		switch pat.Expr.(type) {
		case *ConstExpr, *paramExpr: // a constant never fails to bind
			mark(pat.Var)
		}
	case *InlineData:
		for j, v := range pat.Vars {
			if !slices.ContainsFunc(pat.Rows, func(row []TermOrNil) bool { return !row[j].Defined }) {
				mark(v)
			}
		}
	}
}

// collectExprVars returns every variable an expression mentions, including
// variables anywhere inside EXISTS patterns — pattern positions and filter
// expressions alike, at every nesting depth. Pushdown correctness depends
// on this being an over-approximation, never an under-approximation.
func collectExprVars(e Expression) []string {
	var out []string
	add := func(v string) { out = append(out, v) }
	var walk func(Expression)
	var walkPat func(Pattern)
	var walkGroup func(g *Group)
	walkGroup = func(g *Group) {
		if g == nil {
			return
		}
		for _, sub := range g.Patterns {
			walkPat(sub)
		}
		for _, f := range g.Filters {
			walk(f)
		}
	}
	walkPat = func(p Pattern) {
		collectPossibleVars(p, add)
		switch pat := p.(type) {
		case *Group:
			walkGroup(pat)
		case *Optional:
			walkGroup(pat.Pattern)
		case *Union:
			walkGroup(pat.Left)
			walkGroup(pat.Right)
		case *Minus:
			walkGroup(pat.Pattern)
		case *Bind:
			walk(pat.Expr)
		case *SubSelect:
			if pat.Query != nil {
				walkGroup(pat.Query.Where)
				for _, item := range pat.Query.Projection {
					if item.Expr != nil {
						walk(item.Expr)
					}
				}
				for _, h := range pat.Query.Having {
					walk(h)
				}
			}
		}
	}
	walk = func(e Expression) {
		switch x := e.(type) {
		case *VarExpr:
			add(x.Name)
		case *BinaryExpr:
			walk(x.Left)
			walk(x.Right)
		case *UnaryExpr:
			walk(x.Expr)
		case *FuncExpr:
			for _, a := range x.Args {
				walk(a)
			}
		case *InExpr:
			walk(x.Expr)
			for _, a := range x.List {
				walk(a)
			}
		case *AggExpr:
			if x.Arg != nil {
				walk(x.Arg)
			}
		case *ExistsExpr:
			walkGroup(x.Pattern)
		}
	}
	walk(e)
	return out
}

// minusMatchesRows reports whether r is excluded by any row in rhs per
// SPARQL MINUS semantics (compatible and sharing at least one variable).
//
//feo:idspace
func minusMatchesRows(r idRow, rhs []idRow) bool {
	for _, m := range rhs {
		shared := false
		compatible := true
		for s, v := range m {
			if v == store.NoID {
				continue
			}
			if rv := r[s]; rv != store.NoID {
				shared = true
				if rv != v {
					compatible = false
					break
				}
			}
		}
		if shared && compatible {
			return true
		}
	}
	return false
}

// chainBGP compiles a basic graph pattern into a depth-first ID-space push:
// the compiled (and cached) plan orders the patterns by estimated
// selectivity and fuses runs sharing one fresh slot into bitmap
// intersections; each plan step extends one row at a time into its own
// scratch row and hands it to the next step, the last one to next. Rows
// come out in the order a step-at-a-time join would emit them, nothing is
// allocated or decoded per row, and next returning false stops the walk.
func (ec *evalContext) chainBGP(bgp *BGP, certain []bool, next rowSink) rowSink {
	if len(bgp.Triples) == 0 {
		return next
	}
	plan := ec.planBGP(bgp, certain)
	if plan.empty {
		return func(idRow) bool { return true }
	}
	w := ec.env.width()
	scratch := make(idRow, len(plan.steps)*w) // each step copies its input row in first
	for i := len(plan.steps) - 1; i >= 0; i-- {
		st, out := &plan.steps[i], scratch[i*w:(i+1)*w]
		switch {
		case st.isPath:
			next = ec.pathStep(st.tp, out, next)
		case len(st.specs) > 1:
			// Fused run: per row, each pattern's candidate bitmap comes
			// straight from an index level and the run's matches are
			// their word-level intersection, in the exact ascending-ID
			// order the unfused expand-then-filter cascade would emit.
			next = intersectStep(ec.g, ec.stop, st, out, next)
		default:
			next = expandStep(ec.g, ec.stop, st.specs[0], out, next)
		}
	}
	return next
}

// probeFor resolves one pattern against one row: constants from the spec,
// everything else from the row's slots (NoID when the slot is unbound).
//
//feo:idspace
func probeFor(spec bgpSpec, r idRow) [3]store.ID {
	var probe [3]store.ID
	for j := 0; j < 3; j++ {
		if spec.slot[j] == bgpConstPos {
			probe[j] = spec.ids[j]
		} else {
			probe[j] = r[spec.slot[j]]
		}
	}
	return probe
}

// intersectStep is the push step of a fused run of patterns that all
// constrain the same single fresh slot. Per row, each pattern contributes
// the live index bitmap behind its doubly-bound probe; the run's matches
// are the intersection of those bitmaps — iterated off the smallest set
// with membership probes into the rest when the smallest is small (no
// allocation), materialized as word-level ANDs when it is dense. Either
// way the surviving IDs extend the row in ascending order — exactly what
// expanding the first pattern and filtering through the rest would emit,
// without a row per pre-filter candidate. Rows that already bind the slot
// degrade to one membership test per pattern.
//
//feo:idspace
func intersectStep(g *store.Graph, stop *atomic.Bool, st *planStep, out idRow, next rowSink) rowSink {
	specs, freeSlot := st.specs, st.freeSlot
	var scratch [8]*store.IDSet
	return func(r idRow) bool {
		if stop != nil && stop.Load() {
			return false
		}
		if v := r[freeSlot]; v != store.NoID {
			switch {
			case st.sharedCand != nil:
				if !st.sharedCand.Contains(v) {
					return true
				}
			case st.shared != nil:
				for _, set := range st.shared {
					if !set.Contains(v) {
						return true
					}
				}
			default:
				for _, spec := range specs {
					if probe := probeFor(spec, r); !g.HasID(probe[0], probe[1], probe[2]) {
						return true
					}
				}
			}
			return next(r)
		}
		copy(out, r)
		emit := func(id store.ID) bool {
			out[freeSlot] = id
			return next(out)
		}
		if st.sharedCand != nil {
			return st.sharedCand.ForEach(emit)
		}
		sets := st.shared
		if sets == nil {
			sets = scratch[:0]
			for _, spec := range specs {
				probe := probeFor(spec, r)
				set := g.MatchSetID(probe[0], probe[1], probe[2])
				if set.Len() == 0 {
					return true
				}
				sets = append(sets, set)
			}
			sortSetsByLen(sets)
			if sets[0].Len() >= fusedAndMin {
				// Dense row-dependent candidates: materialize this row's
				// word-level AND.
				return andAll(sets).ForEach(emit)
			}
		}
		// Sparse candidates: iterate the smallest set and probe the others —
		// ascending order, nothing allocated.
		return sets[0].ForEach(func(id store.ID) bool {
			for _, s := range sets[1:] {
				if !s.Contains(id) {
					return true
				}
			}
			return emit(id)
		})
	}
}

// expandStep is the push step of one encoded pattern: it extends each row
// with every match, in index order.
//
//feo:idspace
func expandStep(g *store.Graph, stop *atomic.Bool, spec bgpSpec, out idRow, next rowSink) rowSink {
	return func(r idRow) bool {
		if stop != nil && stop.Load() {
			return false
		}
		more := true
		probe := probeFor(spec, r) // NoID in unbound positions
		g.ForEachID(probe[0], probe[1], probe[2], func(s, p, o store.ID) bool {
			match := [3]store.ID{s, p, o}
			copy(out, r)
			for j := 0; j < 3; j++ {
				slot := spec.slot[j]
				if slot == bgpConstPos || probe[j] != store.NoID {
					continue // constant or pre-bound: index guaranteed it
				}
				if out[slot] != store.NoID {
					// Same variable matched earlier in this triple.
					if out[slot] != match[j] {
						return true
					}
					continue
				}
				out[slot] = match[j]
			}
			more = next(out)
			return more
		})
		return more
	}
}

// ---- SELECT finalization: grouping, aggregates, projection, modifiers ----

// projection returns q's projected variables in column order and the slot
// each one binds (-1 for a variable the query never mentions).
func (ec *evalContext) projection(q *Query) ([]string, []int) {
	vars := projectionVars(q)
	slots := make([]int, len(vars))
	for i, v := range vars {
		slots[i] = ec.env.slot(v)
	}
	return vars, slots
}

// evalSelect pushes q's solutions, projected onto slots, into emit: rows
// binding only the projected slots (subquery joins rely on that), valid
// only during the call. One per-row tail projects, drops DISTINCT/REDUCED
// duplicates and applies OFFSET and LIMIT. A query with no barrier — GROUP
// BY, aggregates, ORDER BY — runs it, after the projection expressions,
// inside the WHERE clause's sink, so rows leave while the join still runs
// and LIMIT (or emit returning false) stops it. A barrier query collects
// every solution, groups, extends and sorts them, then replays the tail.
func (ec *evalContext) evalSelect(q *Query, slots []int, emit rowSink) {
	if q.Limit == 0 {
		return
	}
	out, skip, n := ec.newRow(), q.Offset, 0
	var seen map[string]bool
	if q.Distinct || q.Reduced {
		seen = make(map[string]bool)
	}
	var kb []byte
	tail := func(r idRow) bool {
		for _, s := range slots {
			if s >= 0 {
				out[s] = r[s]
			}
		}
		if seen != nil {
			// Dedup by the projected slots' IDs: exact term identity.
			kb = kb[:0]
			for _, s := range slots {
				id := store.NoID
				if s >= 0 {
					id = out[s]
				}
				kb = append(kb, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
			}
			if seen[string(kb)] {
				return true
			}
			seen[string(kb)] = true
		}
		if skip > 0 {
			skip--
			return true
		}
		n++
		return emit(out) && n != q.Limit
	}
	// Aggregation applies when GROUP BY is present or any projection/having
	// expression contains an aggregate.
	aggs := collectAggregates(q)
	grouped := len(q.GroupBy) > 0 || len(aggs) > 0
	if !grouped && len(q.OrderBy) == 0 {
		ext := ec.newRow()
		ec.evalWhere(q.Where, func(r idRow) bool {
			copy(ext, r)
			ec.bindProjection(q, ext)
			return tail(ext)
		})
		return
	}
	rows := collect(func(sink rowSink) { ec.evalWhere(q.Where, sink) })
	if ec.canceled() {
		return
	}
	if grouped {
		rows = ec.groupAndAggregateRows(q, rows, aggs)
	}
	// Extend rows with computed projection values first, so ORDER BY can
	// reference both SELECT aliases and variables that the projection will
	// later drop. The rows are collect's (or the grouping's) own copies.
	for _, r := range rows {
		ec.bindProjection(q, r)
	}
	if len(q.OrderBy) > 0 {
		sortRows(ec, rows, q.OrderBy)
	}
	pushRows(rows, tail)
}

// bindProjection evaluates q's projection expressions into r in order, so
// each sees the aliases before it; an evaluation error leaves its alias
// unbound.
func (ec *evalContext) bindProjection(q *Query, r idRow) {
	for _, item := range q.Projection {
		if item.Expr == nil {
			continue
		}
		if v, err := item.Expr.Eval(ec, r); err == nil {
			if s := ec.env.slot(item.Var); s >= 0 {
				r[s] = ec.encodeTerm(v)
			}
		}
	}
}

func collectAggregates(q *Query) []*AggExpr {
	var aggs []*AggExpr
	var walk func(e Expression)
	walk = func(e Expression) {
		switch x := e.(type) {
		case *AggExpr:
			aggs = append(aggs, x)
		case *BinaryExpr:
			walk(x.Left)
			walk(x.Right)
		case *UnaryExpr:
			walk(x.Expr)
		case *FuncExpr:
			for _, a := range x.Args {
				walk(a)
			}
		case *InExpr:
			walk(x.Expr)
			for _, a := range x.List {
				walk(a)
			}
		}
	}
	for _, item := range q.Projection {
		if item.Expr != nil {
			walk(item.Expr)
		}
	}
	for _, h := range q.Having {
		walk(h)
	}
	return aggs
}

// groupAndAggregateRows partitions rows by the GROUP BY keys (compared by
// ID — exact sameTerm semantics), computes each aggregate per group, and
// returns one row per group carrying the key bindings plus aggregate
// values under their internal slots.
func (ec *evalContext) groupAndAggregateRows(q *Query, rows []idRow, aggs []*AggExpr) []idRow {
	type groupData struct {
		key  idRow
		rows []idRow
	}
	groups := make(map[string]*groupData)
	var order []string
	var kb []byte
	// Key slots are loop-invariant: resolve each GROUP BY expression's
	// target slot (the variable's own, or the planner's " gk<i>") once.
	keySlots := make([]int, len(q.GroupBy))
	for i, ge := range q.GroupBy {
		if ve, isVar := ge.(*VarExpr); isVar {
			keySlots[i] = ec.env.slot(ve.Name)
		} else {
			keySlots[i] = ec.env.slot(" gk" + strconv.Itoa(i))
		}
	}
	keyIDs := make([]store.ID, len(q.GroupBy))
	for _, r := range rows {
		kb = kb[:0]
		for i, ge := range q.GroupBy {
			id := store.NoID // expression error: key component stays unbound
			if v, err := ge.Eval(ec, r); err == nil {
				id = ec.encodeTerm(v)
			}
			keyIDs[i] = id
			kb = append(kb, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
		}
		k := string(kb)
		gd, ok := groups[k]
		if !ok {
			// The key row materializes once per distinct group, not per
			// input row.
			key := ec.newRow()
			for i, id := range keyIDs {
				if s := keySlots[i]; s >= 0 && id != store.NoID {
					key[s] = id
				}
			}
			gd = &groupData{key: key}
			groups[k] = gd
			order = append(order, k)
		}
		gd.rows = append(gd.rows, r)
	}
	// With no GROUP BY, all rows form one group (even when empty).
	if len(q.GroupBy) == 0 && len(groups) == 0 {
		groups[""] = &groupData{key: ec.newRow()}
		order = append(order, "")
	}
	var out []idRow
	for _, k := range order {
		gd := groups[k]
		row := cloneRow(gd.key)
		for _, agg := range aggs {
			values := ec.aggregateValues(agg, gd.rows)
			if v, ok := foldAggregate(agg.Name, agg.Sep, values); ok {
				if s := ec.env.slot(agg.key); s >= 0 {
					row[s] = ec.encodeTerm(v)
				}
			}
		}
		keep := true
		for _, h := range q.Having {
			ok, err := ebvOf(h, ec, row)
			if err != nil || !ok {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, row)
		}
	}
	return out
}

// aggregateValues evaluates an aggregate's argument over a group's rows
// (COUNT(*) counts rows; evaluation errors skip the row), applying the
// DISTINCT modifier.
func (ec *evalContext) aggregateValues(agg *AggExpr, rows []idRow) []rdf.Term {
	var values []rdf.Term
	for _, r := range rows {
		if agg.Arg == nil { // COUNT(*)
			values = append(values, rdf.TrueLiteral)
			continue
		}
		if v, err := agg.Arg.Eval(ec, r); err == nil {
			values = append(values, v)
		}
	}
	if agg.Distinct {
		values = dedupTerms(values)
	}
	return values
}

// dedupTerms removes duplicate terms, keeping first-occurrence order.
func dedupTerms(values []rdf.Term) []rdf.Term {
	seen := make(map[rdf.Term]bool, len(values))
	var out []rdf.Term
	for _, v := range values {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// foldAggregate folds gathered values into the aggregate's result. Pure:
// shared by the production engine and the reference evaluator so both
// agree on numeric typing and the deterministic SAMPLE/GROUP_CONCAT.
func foldAggregate(name, sep string, values []rdf.Term) (rdf.Term, bool) {
	switch name {
	case "COUNT":
		return rdf.NewInt(int64(len(values))), true
	case "SUM", "AVG":
		sum := 0.0
		n := 0
		allInt := true
		for _, v := range values {
			if f, ok := v.Float(); ok {
				sum += f
				n++
				if v.Datatype != rdf.XSDInteger {
					allInt = false
				}
			}
		}
		if name == "SUM" {
			if allInt {
				return rdf.NewInt(int64(sum)), true
			}
			return rdf.NewFloat(sum), true
		}
		if n == 0 {
			return rdf.NewInt(0), true
		}
		return rdf.NewFloat(sum / float64(n)), true
	case "MIN", "MAX":
		if len(values) == 0 {
			return rdf.Term{}, false
		}
		best := values[0]
		for _, v := range values[1:] {
			c, err := orderCompare(v, best)
			if err != nil {
				c = rdf.Compare(v, best)
			}
			if (name == "MIN" && c < 0) || (name == "MAX" && c > 0) {
				best = v
			}
		}
		return best, true
	case "SAMPLE":
		if len(values) == 0 {
			return rdf.Term{}, false
		}
		// Deterministic sample: smallest term.
		best := values[0]
		for _, v := range values[1:] {
			if rdf.Compare(v, best) < 0 {
				best = v
			}
		}
		return best, true
	case "GROUP_CONCAT":
		parts := make([]string, 0, len(values))
		for _, v := range values {
			parts = append(parts, v.Value)
		}
		sort.Strings(parts) // deterministic
		return rdf.NewLiteral(strings.Join(parts, sep)), true
	}
	return rdf.Term{}, false
}

// projectionVars determines the output column order.
func projectionVars(q *Query) []string {
	if len(q.Projection) > 0 {
		vars := make([]string, 0, len(q.Projection))
		for _, item := range q.Projection {
			vars = append(vars, item.Var)
		}
		return vars
	}
	// SELECT *: variables in order of first appearance in the pattern tree.
	var vars []string
	seen := make(map[string]bool)
	add := func(name string) {
		if name != "" && !seen[name] && !strings.HasPrefix(name, " ") {
			seen[name] = true
			vars = append(vars, name)
		}
	}
	var walkGroup func(g *Group)
	var walkPattern func(p Pattern)
	walkPattern = func(p Pattern) {
		switch pat := p.(type) {
		case *BGP:
			for _, tp := range pat.Triples {
				if tp.S.IsVar {
					add(tp.S.Var)
				}
				if tp.P.IsVar {
					add(tp.P.Var)
				}
				if tp.O.IsVar {
					add(tp.O.Var)
				}
			}
		case *Group:
			walkGroup(pat)
		case *Optional:
			walkGroup(pat.Pattern)
		case *Union:
			walkGroup(pat.Left)
			walkGroup(pat.Right)
		case *Minus:
			// MINUS variables are not projected.
		case *Bind:
			add(pat.Var)
		case *InlineData:
			for _, v := range pat.Vars {
				add(v)
			}
		}
	}
	walkGroup = func(g *Group) {
		for _, p := range g.Patterns {
			walkPattern(p)
		}
	}
	if q.Where != nil {
		walkGroup(q.Where)
	}
	return vars
}

func sortRows(ec *evalContext, rows []idRow, conds []OrderCondition) {
	sort.SliceStable(rows, func(i, j int) bool {
		for _, c := range conds {
			vi, ei := c.Expr.Eval(ec, rows[i])
			vj, ej := c.Expr.Eval(ec, rows[j])
			var cmp int
			switch {
			case ei != nil && ej != nil:
				cmp = 0
			case ei != nil:
				cmp = -1 // unbound sorts first
			case ej != nil:
				cmp = 1
			default:
				var err error
				cmp, err = orderCompare(vi, vj)
				if err != nil {
					cmp = rdf.Compare(vi, vj)
				}
			}
			if c.Descending {
				cmp = -cmp
			}
			if cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
}

// ---- CONSTRUCT / DESCRIBE ----

// graphTriples evaluates a CONSTRUCT or DESCRIBE query to the triples of
// its result graph in ec's ID space (graph IDs plus extension IDs),
// duplicates included: what ExecuteGraphStream hands the Turtle writer
// and Execute builds Result.Graph from. The WHERE clause runs through
// evalSelect, so LIMIT, OFFSET and ORDER BY select the solutions the
// template instantiates or the described variables bind, and no term is
// decoded.
func (ec *evalContext) graphTriples(q *Query) []store.IDTriple {
	if q.Kind == KindDescribe {
		return ec.describeTriples(q)
	}
	tmpl, slots := ec.compileTemplate(q.Template)
	var out []store.IDTriple
	row := 0
	ec.evalSelect(q, slots, func(r idRow) bool {
		row++
		out = ec.instantiate(tmpl, r, row, out)
		return true
	})
	return out
}

// templatePos is one template position resolved against the query's ID
// space: a constant's ID, a variable's slot (-1 for a variable the WHERE
// clause never binds), or a template blank node, fresh per solution.
type templatePos struct {
	id    store.ID
	slot  int
	blank string // the blank node's parser name, e.g. "bnode3"
}

// compileTemplate resolves every template position once per query and
// returns the slots its variables read. A template triple whose constant
// subject is not a resource or whose constant predicate is not an IRI can
// never instantiate and is dropped.
func (ec *evalContext) compileTemplate(tps []TriplePattern) ([][3]templatePos, []int) {
	var out [][3]templatePos
	var slots []int
	for _, tp := range tps {
		var t [3]templatePos
		for i, tv := range [3]TermOrVar{tp.S, tp.P, tp.O} {
			switch {
			case !tv.IsVar:
				t[i] = templatePos{id: ec.encodeTerm(tv.Term), slot: -1}
			case strings.HasPrefix(tv.Var, " bnode"):
				t[i] = templatePos{id: store.NoID, slot: -1, blank: strings.TrimSpace(tv.Var)}
			default:
				t[i] = templatePos{id: store.NoID, slot: ec.env.slot(tv.Var)}
				if t[i].slot >= 0 {
					slots = append(slots, t[i].slot)
				}
			}
		}
		if (!tp.S.IsVar && !tp.S.Term.IsResource()) || (!tp.P.IsVar && !tp.P.Term.IsIRI()) {
			continue
		}
		out = append(out, t)
	}
	return out, slots
}

// instantiate appends the template's triples for one solution row (the
// row-th, numbering from 1, which names its blank nodes) to out. A triple
// with an unbound position, a subject that is not a resource or a
// predicate that is not an IRI is skipped, as RDF requires.
func (ec *evalContext) instantiate(tmpl [][3]templatePos, r idRow, row int, out []store.IDTriple) []store.IDTriple {
	for _, tp := range tmpl {
		var ids [3]store.ID
		for i, pos := range tp {
			switch {
			case pos.slot >= 0:
				ids[i] = r[pos.slot]
			case pos.blank != "":
				ids[i] = ec.encodeTerm(rdf.NewBlank("c" + strconv.Itoa(row) + pos.blank))
			default:
				ids[i] = pos.id
			}
		}
		if ids[0] == store.NoID || ids[1] == store.NoID || ids[2] == store.NoID {
			continue
		}
		if k := ec.kindOf(ids[0]); (k != rdf.KindIRI && k != rdf.KindBlank) || ec.kindOf(ids[1]) != rdf.KindIRI {
			continue
		}
		out = append(out, store.IDTriple{S: ids[0], P: ids[1], O: ids[2]})
	}
	return out
}

// describeTriples returns the concise bounded description of every
// described resource: all triples with the resource as subject, recursing
// through blank-node objects, plus incoming triples. Targets are taken in
// first-seen order; a triple is emitted once.
func (ec *evalContext) describeTriples(q *Query) []store.IDTriple {
	g := ec.g
	var targets []store.ID
	isTarget := make(map[store.ID]bool)
	addTarget := func(id store.ID) {
		if id != store.NoID && !isTarget[id] {
			isTarget[id] = true
			targets = append(targets, id)
		}
	}
	var slots []int
	for _, dt := range q.DescribeTerms {
		if !dt.IsVar {
			if id, ok := g.LookupID(dt.Term); ok {
				addTarget(id)
			}
		} else if s := ec.env.slot(dt.Var); s >= 0 {
			slots = append(slots, s)
		}
	}
	if len(slots) > 0 {
		ec.evalSelect(q, slots, func(r idRow) bool {
			for _, s := range slots {
				addTarget(r[s])
			}
			return true
		})
	}
	var out []store.IDTriple
	seen := make(map[store.IDTriple]bool)
	add := func(s, p, o store.ID) bool {
		t := store.IDTriple{S: s, P: p, O: o}
		if seen[t] {
			return false
		}
		seen[t] = true
		out = append(out, t)
		return true
	}
	var describe func(id store.ID, depth int)
	describe = func(id store.ID, depth int) {
		if depth > 8 {
			return
		}
		g.ForEachID(id, store.NoID, store.NoID, func(s, p, o store.ID) bool {
			if add(s, p, o) && g.KindOf(o) == rdf.KindBlank {
				describe(o, depth+1)
			}
			return true
		})
	}
	for _, t := range targets {
		describe(t, 0)
		g.ForEachID(store.NoID, store.NoID, t, func(s, p, o store.ID) bool {
			add(s, p, o)
			return true
		})
	}
	return out
}

// resultGraph builds Result.Graph from graphTriples' output: a fresh graph
// carrying a copy of the query's namespaces (the standard prefixes plus
// its own), the table graphStream writes with.
func (ec *evalContext) resultGraph(q *Query, ts []store.IDTriple) *store.Graph {
	out := store.New()
	*out.Namespaces() = *q.Namespaces.Clone()
	for _, t := range ts {
		out.Add(ec.termOf(t.S), ec.termOf(t.P), ec.termOf(t.O))
	}
	return out
}
