package sparql

import (
	"strconv"

	"repro/internal/rdf"
	"repro/internal/store"
)

// This file holds the internal ID-space solution representation: fixed-slot
// rows of dictionary IDs plus the per-query variable→slot binding table.
//
// Every variable the query can ever mention — pattern positions, BIND and
// VALUES targets, SELECT aliases, the planner's internal aggregate and
// group-key bindings, variables of nested subqueries and EXISTS bodies —
// is assigned one dense slot before evaluation starts. An intermediate
// solution is then an idRow: a []store.ID of exactly that width, with
// store.NoID marking an unbound slot. Extending a binding is a small
// memcopy plus a store; joining is integer comparison; no term is hashed
// or decoded on the hot path. Terms are decoded once per projected result
// row, by the sink at the end of the pipeline (Execute's Solution maps,
// ExecuteStream's term slice).
//
// Terms that exist only inside the query — BIND/projection expression
// results, VALUES constants, aggregate outputs — have no graph-dictionary
// ID. The evalContext interns them in a query-local extension dictionary
// whose IDs grow downward from just below store.NoID, so they can never
// collide with graph IDs, graph index probes against them simply miss
// (map lookup and bitmap Contains of an absent ID), and ID equality
// remains exactly RDF term identity across both ID ranges.

// idRow is one intermediate solution in ID space: one slot per query
// variable, store.NoID where unbound. A push link writes only into its
// own scratch row, so a row handed on (into an OPTIONAL body, an EXISTS
// body, a UNION branch) is never mutated.
type idRow []store.ID

// slotEnv is the per-query variable→slot binding table.
type slotEnv struct {
	slots map[string]int
	names []string
}

// slot returns the slot of name, or -1 when the query never mentions it.
//
//feo:idspace
func (e *slotEnv) slot(name string) int {
	if i, ok := e.slots[name]; ok {
		return i
	}
	return -1
}

// width returns the fixed row width (number of assigned slots).
func (e *slotEnv) width() int { return len(e.names) }

func (e *slotEnv) add(name string) {
	if name == "" {
		return
	}
	if _, ok := e.slots[name]; ok {
		return
	}
	e.slots[name] = len(e.names)
	e.names = append(e.names, name)
}

// buildQueryEnv assigns a slot to every variable q can bind or read, in a
// deterministic walk order (so equal parse trees get equal slot layouts).
func buildQueryEnv(q *Query) *slotEnv {
	env := &slotEnv{slots: make(map[string]int)}
	addQueryVars(q, env.add)
	return env
}

// buildUpdateEnv assigns slots for one update operation: its WHERE clause
// plus the variables of its delete/insert templates.
func buildUpdateEnv(op *UpdateOperation) *slotEnv {
	env := &slotEnv{slots: make(map[string]int)}
	if op.Where != nil {
		addGroupVars(op.Where, env.add)
	}
	for _, tmpl := range [2][]TriplePattern{op.Delete, op.Insert} {
		for _, tp := range tmpl {
			for _, tv := range [3]TermOrVar{tp.S, tp.P, tp.O} {
				if tv.IsVar {
					env.add(tv.Var)
				}
			}
		}
	}
	return env
}

func addQueryVars(q *Query, add func(string)) {
	for _, item := range q.Projection {
		add(item.Var)
		if item.Expr != nil {
			addExprVars(item.Expr, add)
		}
	}
	for _, dt := range q.DescribeTerms {
		if dt.IsVar {
			add(dt.Var)
		}
	}
	if q.Where != nil {
		addGroupVars(q.Where, add)
	}
	for i, ge := range q.GroupBy {
		if _, isVar := ge.(*VarExpr); !isVar {
			add(" gk" + strconv.Itoa(i))
		}
		addExprVars(ge, add)
	}
	for _, h := range q.Having {
		addExprVars(h, add)
	}
	for _, oc := range q.OrderBy {
		addExprVars(oc.Expr, add)
	}
}

func addGroupVars(g *Group, add func(string)) {
	if g == nil {
		return
	}
	for _, p := range g.Patterns {
		addPatternVars(p, add)
	}
	for _, f := range g.Filters {
		addExprVars(f, add)
	}
}

func addPatternVars(p Pattern, add func(string)) {
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
		addGroupVars(pat, add)
	case *Optional:
		addGroupVars(pat.Pattern, add)
	case *Union:
		addGroupVars(pat.Left, add)
		addGroupVars(pat.Right, add)
	case *Minus:
		addGroupVars(pat.Pattern, add)
	case *Bind:
		add(pat.Var)
		addExprVars(pat.Expr, add)
	case *InlineData:
		for _, v := range pat.Vars {
			add(v)
		}
	case *SubSelect:
		if pat.Query != nil {
			addQueryVars(pat.Query, add)
		}
	}
}

// addExprVars adds every variable an expression can read or carry,
// including the planner's internal aggregate keys and the variables of
// nested EXISTS bodies — the slot table must cover anything Eval can see.
func addExprVars(e Expression, add func(string)) {
	switch x := e.(type) {
	case *VarExpr:
		add(x.Name)
	case *BinaryExpr:
		addExprVars(x.Left, add)
		addExprVars(x.Right, add)
	case *UnaryExpr:
		addExprVars(x.Expr, add)
	case *FuncExpr:
		for _, a := range x.Args {
			addExprVars(a, add)
		}
	case *InExpr:
		addExprVars(x.Expr, add)
		for _, a := range x.List {
			addExprVars(a, add)
		}
	case *AggExpr:
		add(x.key)
		if x.Arg != nil {
			addExprVars(x.Arg, add)
		}
	case *ExistsExpr:
		addGroupVars(x.Pattern, add)
	}
}

// newRow returns a fresh all-unbound row of the query's width.
func (ec *evalContext) newRow() idRow {
	r := make(idRow, ec.env.width())
	for i := range r {
		r[i] = store.NoID
	}
	return r
}

func cloneRow(r idRow) idRow {
	out := make(idRow, len(r))
	copy(out, r)
	return out
}

// encodeTerm returns the ID of t: the graph dictionary's when the graph
// knows the term, otherwise a query-local extension ID (extension terms
// are the rare case: expression results and VALUES constants, never triple
// matches).
func (ec *evalContext) encodeTerm(t rdf.Term) store.ID {
	if id, ok := ec.g.LookupID(t); ok {
		return id
	}
	if id, ok := ec.extIDs[t]; ok {
		return id
	}
	id := store.NoID - 1 - store.ID(len(ec.extTerms))
	if ec.extIDs == nil {
		ec.extIDs = make(map[rdf.Term]store.ID)
	}
	ec.extTerms = append(ec.extTerms, t)
	ec.extIDs[t] = id
	return id
}

// termOf decodes an ID from either range: graph IDs resolve through the
// (lock-free) graph dictionary, extension IDs through the query-local
// table. This is the only decode path row values may take — g.TermOf
// would panic on an extension ID.
func (ec *evalContext) termOf(id store.ID) rdf.Term {
	if int64(id) < int64(ec.dictLen) {
		return ec.g.TermOf(id)
	}
	idx := int(store.NoID - 1 - id)
	if idx >= 0 && idx < len(ec.extTerms) {
		return ec.extTerms[idx]
	}
	// An ID above the snapshot's dictionary length that is not an
	// extension ID: the graph grew mid-query (a reader-contract
	// violation); degrade to the live dictionary rather than panic.
	return ec.g.TermOf(id)
}

// kindOf returns the kind of the term behind an ID from either range,
// without copying a graph term out of the dictionary.
func (ec *evalContext) kindOf(id store.ID) rdf.TermKind {
	if int64(id) < int64(ec.dictLen) {
		return ec.g.KindOf(id)
	}
	return ec.termOf(id).Kind
}

// valueOf resolves a variable against a row, decoding lazily.
func (ec *evalContext) valueOf(r idRow, name string) (rdf.Term, bool) {
	s := ec.env.slot(name)
	if s < 0 || r[s] == store.NoID {
		return rdf.Term{}, false
	}
	return ec.termOf(r[s]), true
}

// joinInto writes the join of a and b into out and reports whether their
// shared slots agree.
//
//feo:idspace
func joinInto(out, a, b idRow) bool {
	copy(out, a)
	for s, v := range b {
		if v == store.NoID {
			continue
		}
		if out[s] != store.NoID {
			if out[s] != v {
				return false
			}
			continue
		}
		out[s] = v
	}
	return true
}
