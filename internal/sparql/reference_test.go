package sparql

// A deliberately naive reference evaluator, used by the randomized
// equivalence harness (equivalence_test.go) to lock in the production
// engine's semantics.
//
// Where the production engine runs on fixed-slot ID rows with join
// reordering, pattern fusion, filter pushdown, and a plan cache, this
// evaluator does none of that: it works on map-based Solutions, joins
// triple patterns by nested-loop scans in their written order, applies
// every filter at the end of its group, recomputes property-path
// reachability from scratch at every use, and never caches.
// Anything the two engines must agree on *by definition* — the scalar
// builtin library, numeric typing, term comparison, aggregate folding —
// is shared (evalBuiltin, ebv, termsEqual, orderCompare, numericResult,
// foldAggregate), so a divergence between the engines points at the
// solution pipeline, not at arithmetic.

import (
	"strconv"
	"strings"

	"repro/internal/rdf"
	"repro/internal/store"
)

type refEvaluator struct {
	g *store.Graph
	// budget bounds the total rows the nested-loop engine may produce:
	// random query generation can emit cartesian shapes that a naive
	// evaluator cannot finish, and the harness skips those (by catching
	// the errRefBudget panic) rather than bounding the generator's shape
	// space. 0 = unlimited.
	budget int
}

// errRefBudget is panicked when a budgeted reference run exceeds its row
// allowance; refExecuteBudget converts it into ok=false.
var errRefBudget = &struct{ s string }{"reference evaluator budget exceeded"}

func (re *refEvaluator) spend(n int) {
	if re.budget == 0 {
		return
	}
	re.budget -= n
	if re.budget <= 0 {
		panic(errRefBudget)
	}
}

// refExecute evaluates q against g with the reference engine. Only SELECT
// and ASK are supported (the harness compares solution multisets).
func refExecute(g *store.Graph, q *Query) *Result {
	re := &refEvaluator{g: g}
	return re.execute(q)
}

// refExecuteBudget is refExecute with a row budget; ok=false means the
// query was too explosive for nested loops and should be skipped.
func refExecuteBudget(g *store.Graph, q *Query, budget int) (res *Result, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if r == errRefBudget {
				res, ok = nil, false
				return
			}
			panic(r)
		}
	}()
	re := &refEvaluator{g: g, budget: budget}
	return re.execute(q), true
}

func (re *refEvaluator) execute(q *Query) *Result {
	sols := re.evalGroup(q.Where, []Solution{{}})
	res := &Result{Kind: q.Kind, Namespaces: q.Namespaces}
	if q.Kind == KindAsk {
		res.Boolean = len(sols) > 0
		return res
	}
	return re.finishSelect(q, sols)
}

// evalGroup: patterns in written order, every filter at the very end.
func (re *refEvaluator) evalGroup(g *Group, input []Solution) []Solution {
	seq := input
	for _, pat := range g.Patterns {
		seq = re.evalPattern(pat, seq)
	}
	for _, f := range g.Filters {
		var out []Solution
		for _, sol := range seq {
			if ok, err := re.ebv(f, sol); err == nil && ok {
				out = append(out, sol)
			}
		}
		seq = out
	}
	return seq
}

func (re *refEvaluator) evalPattern(p Pattern, seq []Solution) []Solution {
	re.spend(len(seq))
	switch pat := p.(type) {
	case *BGP:
		for _, tp := range pat.Triples {
			var out []Solution
			for _, sol := range seq {
				out = append(out, re.evalTriple(tp, sol)...)
				re.spend(1)
			}
			re.spend(len(out))
			seq = out
		}
		return seq
	case *Group:
		return re.evalGroup(pat, seq)
	case *Optional:
		var out []Solution
		for _, sol := range seq {
			ext := re.evalGroup(pat.Pattern, []Solution{sol})
			if len(ext) > 0 {
				out = append(out, ext...)
			} else {
				out = append(out, sol)
			}
		}
		return out
	case *Union:
		left := re.evalGroup(pat.Left, seq)
		right := re.evalGroup(pat.Right, seq)
		return append(left, right...)
	case *Minus:
		rhs := re.evalGroup(pat.Pattern, []Solution{{}})
		var out []Solution
		for _, sol := range seq {
			excluded := false
			for _, m := range rhs {
				shared, compatible := false, true
				for k, v := range m {
					if sv, ok := sol[k]; ok {
						shared = true
						if sv != v {
							compatible = false
							break
						}
					}
				}
				if shared && compatible {
					excluded = true
					break
				}
			}
			if !excluded {
				out = append(out, sol)
			}
		}
		return out
	case *Bind:
		var out []Solution
		for _, sol := range seq {
			v, err := re.eval(pat.Expr, sol)
			if err != nil {
				out = append(out, sol)
				continue
			}
			if existing, bound := sol[pat.Var]; bound {
				if existing == v {
					out = append(out, sol)
				}
				continue
			}
			ns := sol.clone()
			ns[pat.Var] = v
			out = append(out, ns)
		}
		return out
	case *InlineData:
		var out []Solution
		for _, sol := range seq {
			for _, row := range pat.Rows {
				merged := sol.clone()
				ok := true
				for i, v := range pat.Vars {
					if !row[i].Defined {
						continue
					}
					if existing, bound := merged[v]; bound {
						if existing != row[i].Term {
							ok = false
							break
						}
						continue
					}
					merged[v] = row[i].Term
				}
				if ok {
					out = append(out, merged)
				}
			}
		}
		return out
	case *SubSelect:
		sub := re.execute(pat.Query) // shares the row budget
		var out []Solution
		for _, sol := range seq {
			for _, sr := range sub.Solutions {
				merged := sol.clone()
				ok := true
				for k, v := range sr {
					if existing, bound := merged[k]; bound {
						if existing != v {
							ok = false
							break
						}
						continue
					}
					merged[k] = v
				}
				if ok {
					out = append(out, merged)
				}
			}
		}
		return out
	default:
		return nil
	}
}

// evalTriple extends one solution against one triple pattern by scanning
// the graph term-level (property paths go through refPathForward).
func (re *refEvaluator) evalTriple(tp TriplePattern, sol Solution) []Solution {
	if tp.Path != nil {
		return re.evalPathTriple(tp, sol)
	}
	resolve := func(tv TermOrVar) (rdf.Term, string) {
		if !tv.IsVar {
			return tv.Term, ""
		}
		if t, ok := sol[tv.Var]; ok {
			return t, ""
		}
		return store.Wildcard, tv.Var
	}
	s, sVar := resolve(tp.S)
	p, pVar := resolve(tp.P)
	o, oVar := resolve(tp.O)
	var out []Solution
	re.g.ForEach(s, p, o, func(tr rdf.Triple) bool {
		ns := sol.clone()
		ok := true
		for _, bind := range [3]struct {
			name string
			val  rdf.Term
		}{{sVar, tr.S}, {pVar, tr.P}, {oVar, tr.O}} {
			if bind.name == "" {
				continue
			}
			if existing, bound := ns[bind.name]; bound {
				if existing != bind.val {
					ok = false
					break
				}
				continue
			}
			ns[bind.name] = bind.val
		}
		if ok {
			out = append(out, ns)
		}
		return true
	})
	return out
}

func (re *refEvaluator) evalPathTriple(tp TriplePattern, sol Solution) []Solution {
	resolve := func(tv TermOrVar) (rdf.Term, string, bool) {
		if !tv.IsVar {
			return tv.Term, "", true
		}
		if t, ok := sol[tv.Var]; ok {
			return t, "", true
		}
		return rdf.Term{}, tv.Var, false
	}
	s, sVar, sBound := resolve(tp.S)
	o, oVar, oBound := resolve(tp.O)
	// Variable endpoints only bind graph nodes; see the matching rule (and
	// rationale) in the production engine's evalPathRange.
	if (tp.S.IsVar && sBound && !re.isNode(s)) || (tp.O.IsVar && oBound && !re.isNode(o)) {
		return nil
	}
	var out []Solution
	switch {
	case sBound && oBound:
		for _, t := range re.pathForward(tp.Path, s) {
			if t == o {
				out = append(out, sol)
				break
			}
		}
	case sBound:
		for _, t := range re.pathForward(tp.Path, s) {
			if !re.isNode(t) {
				continue
			}
			ns := sol.clone()
			ns[oVar] = t
			out = append(out, ns)
		}
	case oBound:
		for _, t := range re.pathBackward(tp.Path, o) {
			if !re.isNode(t) {
				continue
			}
			ns := sol.clone()
			ns[sVar] = t
			out = append(out, ns)
		}
	default:
		// Both unbound: try every node of the graph as a start. Starts
		// with no outgoing path match contribute nothing, so this is
		// equivalent to any smarter candidate pruning.
		for _, start := range re.allNodes() {
			for _, t := range re.pathForward(tp.Path, start) {
				ns := sol.clone()
				if sVar == oVar {
					if start != t {
						continue
					}
					ns[sVar] = start
				} else {
					ns[sVar] = start
					ns[oVar] = t
				}
				out = append(out, ns)
			}
		}
	}
	return out
}

func (re *refEvaluator) isNode(t rdf.Term) bool {
	return re.g.Count(t, store.Wildcard, store.Wildcard) > 0 ||
		re.g.Count(store.Wildcard, store.Wildcard, t) > 0
}

func (re *refEvaluator) allNodes() []rdf.Term {
	seen := make(map[rdf.Term]bool)
	var out []rdf.Term
	re.g.ForEach(store.Wildcard, store.Wildcard, store.Wildcard, func(t rdf.Triple) bool {
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
	return out
}

// pathForward computes the forward reachability of a path from scratch —
// no memo, map-based BFS.
func (re *refEvaluator) pathForward(p *Path, from rdf.Term) []rdf.Term {
	switch p.Kind {
	case PathIRI:
		return re.g.Objects(from, p.IRI)
	case PathInverse:
		return re.pathBackward(p.Kids[0], from)
	case PathSeq:
		seen := make(map[rdf.Term]bool)
		var out []rdf.Term
		for _, m := range re.pathForward(p.Kids[0], from) {
			for _, t := range re.pathForward(p.Kids[1], m) {
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
			for _, t := range re.pathForward(kid, from) {
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
		for _, t := range re.pathForward(p.Kids[0], from) {
			if !seen[t] {
				seen[t] = true
				out = append(out, t)
			}
		}
		return out
	case PathZeroOrMore, PathOneOrMore:
		return re.bfs(p.Kids[0], from, p.Kind == PathZeroOrMore, false)
	}
	return nil
}

func (re *refEvaluator) pathBackward(p *Path, to rdf.Term) []rdf.Term {
	switch p.Kind {
	case PathIRI:
		return re.g.Subjects(p.IRI, to)
	case PathInverse:
		return re.pathForward(p.Kids[0], to)
	case PathSeq:
		seen := make(map[rdf.Term]bool)
		var out []rdf.Term
		for _, m := range re.pathBackward(p.Kids[1], to) {
			for _, t := range re.pathBackward(p.Kids[0], m) {
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
			for _, t := range re.pathBackward(kid, to) {
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
		for _, t := range re.pathBackward(p.Kids[0], to) {
			if !seen[t] {
				seen[t] = true
				out = append(out, t)
			}
		}
		return out
	case PathZeroOrMore, PathOneOrMore:
		return re.bfs(p.Kids[0], to, p.Kind == PathZeroOrMore, true)
	}
	return nil
}

func (re *refEvaluator) bfs(step *Path, start rdf.Term, includeStart, backward bool) []rdf.Term {
	visited := make(map[rdf.Term]bool)
	var out []rdf.Term
	if includeStart {
		visited[start] = true
		out = append(out, start)
	}
	frontier := []rdf.Term{start}
	for len(frontier) > 0 {
		var next []rdf.Term
		for _, node := range frontier {
			var steps []rdf.Term
			if backward {
				steps = re.pathBackward(step, node)
			} else {
				steps = re.pathForward(step, node)
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
	return out
}

// ---- expressions (term-level, own dispatch, shared scalar helpers) ----

func (re *refEvaluator) ebv(e Expression, sol Solution) (bool, error) {
	v, err := re.eval(e, sol)
	if err != nil {
		return false, err
	}
	return ebv(v)
}

func (re *refEvaluator) eval(e Expression, sol Solution) (rdf.Term, error) {
	switch x := e.(type) {
	case *VarExpr:
		if t, ok := sol[x.Name]; ok {
			return t, nil
		}
		return rdf.Term{}, errUnbound
	case *ConstExpr:
		return x.Term, nil
	case *AggExpr:
		if t, ok := sol[x.key]; ok {
			return t, nil
		}
		return rdf.Term{}, errUnbound
	case *ExistsExpr:
		res := re.evalGroup(x.Pattern, []Solution{sol})
		return boolTerm((len(res) > 0) != x.Negated), nil
	case *UnaryExpr:
		switch x.Op {
		case "!":
			v, err := re.ebv(x.Expr, sol)
			if err != nil {
				return rdf.Term{}, err
			}
			return boolTerm(!v), nil
		case "-":
			v, err := re.eval(x.Expr, sol)
			if err != nil {
				return rdf.Term{}, err
			}
			f, ok := v.Float()
			if !ok {
				return rdf.Term{}, errUnbound
			}
			if v.Datatype == rdf.XSDInteger {
				return rdf.NewInt(-int64(f)), nil
			}
			return rdf.NewFloat(-f), nil
		default: // unary +
			return re.eval(x.Expr, sol)
		}
	case *InExpr:
		v, err := re.eval(x.Expr, sol)
		if err != nil {
			return rdf.Term{}, err
		}
		found := false
		for _, item := range x.List {
			iv, err := re.eval(item, sol)
			if err != nil {
				continue
			}
			if eq, err := termsEqual(v, iv); err == nil && eq {
				found = true
				break
			}
		}
		return boolTerm(found != x.Negated), nil
	case *BinaryExpr:
		return re.evalBinary(x, sol)
	case *FuncExpr:
		switch x.Name {
		case "BOUND":
			v, ok := x.Args[0].(*VarExpr)
			if !ok {
				return rdf.Term{}, errUnbound
			}
			_, bound := sol[v.Name]
			return boolTerm(bound), nil
		case "COALESCE":
			for _, a := range x.Args {
				if v, err := re.eval(a, sol); err == nil {
					return v, nil
				}
			}
			return rdf.Term{}, errUnbound
		case "IF":
			if len(x.Args) != 3 {
				return rdf.Term{}, errUnbound
			}
			c, err := re.ebv(x.Args[0], sol)
			if err != nil {
				return rdf.Term{}, err
			}
			if c {
				return re.eval(x.Args[1], sol)
			}
			return re.eval(x.Args[2], sol)
		}
		args := make([]rdf.Term, len(x.Args))
		for i, a := range x.Args {
			v, err := re.eval(a, sol)
			if err != nil {
				return rdf.Term{}, err
			}
			args[i] = v
		}
		return evalBuiltin(x.Name, args)
	}
	return rdf.Term{}, errUnbound
}

func (re *refEvaluator) evalBinary(e *BinaryExpr, sol Solution) (rdf.Term, error) {
	switch e.Op {
	case "||":
		lv, lerr := re.ebv(e.Left, sol)
		rv, rerr := re.ebv(e.Right, sol)
		switch {
		case lerr == nil && lv, rerr == nil && rv:
			return rdf.TrueLiteral, nil
		case lerr != nil || rerr != nil:
			return rdf.Term{}, errUnbound
		default:
			return rdf.FalseLiteral, nil
		}
	case "&&":
		lv, lerr := re.ebv(e.Left, sol)
		rv, rerr := re.ebv(e.Right, sol)
		switch {
		case lerr == nil && !lv, rerr == nil && !rv:
			return rdf.FalseLiteral, nil
		case lerr != nil || rerr != nil:
			return rdf.Term{}, errUnbound
		default:
			return rdf.TrueLiteral, nil
		}
	}
	l, err := re.eval(e.Left, sol)
	if err != nil {
		return rdf.Term{}, err
	}
	r, err := re.eval(e.Right, sol)
	if err != nil {
		return rdf.Term{}, err
	}
	switch e.Op {
	case "=", "!=":
		eq, err := termsEqual(l, r)
		if err != nil {
			return rdf.Term{}, err
		}
		return boolTerm(eq == (e.Op == "=")), nil
	case "<", ">", "<=", ">=":
		c, err := orderCompare(l, r)
		if err != nil {
			return rdf.Term{}, err
		}
		switch e.Op {
		case "<":
			return boolTerm(c < 0), nil
		case ">":
			return boolTerm(c > 0), nil
		case "<=":
			return boolTerm(c <= 0), nil
		default:
			return boolTerm(c >= 0), nil
		}
	case "+", "-", "*", "/":
		lf, lok := l.Float()
		rf, rok := r.Float()
		if !lok || !rok {
			return rdf.Term{}, errUnbound
		}
		var v float64
		switch e.Op {
		case "+":
			v = lf + rf
		case "-":
			v = lf - rf
		case "*":
			v = lf * rf
		default:
			if rf == 0 {
				return rdf.Term{}, errUnbound
			}
			v = lf / rf
		}
		return numericResult(v, l, r, e.Op), nil
	}
	return rdf.Term{}, errUnbound
}

// ---- SELECT finalization ----

// termKey renders a term as an exact, collision-free map key.
func termKey(t rdf.Term, bound bool) string {
	if !bound {
		return "~"
	}
	var b strings.Builder
	b.WriteString(strconv.Itoa(int(t.Kind)))
	for _, s := range [3]string{t.Value, t.Lang, t.Datatype} {
		b.WriteString(strconv.Itoa(len(s)))
		b.WriteByte(':')
		b.WriteString(s)
	}
	return b.String()
}

func (re *refEvaluator) finishSelect(q *Query, sols []Solution) *Result {
	res := &Result{Kind: KindSelect, Namespaces: q.Namespaces}
	aggs := collectAggregates(q)
	if len(q.GroupBy) > 0 || len(aggs) > 0 {
		sols = re.groupAndAggregate(q, sols, aggs)
	}
	vars := projectionVars(q)
	res.Vars = vars
	extended := sols
	hasExprs := false
	for _, item := range q.Projection {
		if item.Expr != nil {
			hasExprs = true
			break
		}
	}
	if hasExprs {
		extended = make([]Solution, len(sols))
		for i, sol := range sols {
			ext := sol.clone()
			for _, item := range q.Projection {
				if item.Expr == nil {
					continue
				}
				if v, err := re.eval(item.Expr, ext); err == nil {
					ext[item.Var] = v
				}
			}
			extended[i] = ext
		}
	}
	// (No ORDER BY: the harness compares solution multisets, and without
	// LIMIT/OFFSET ordering cannot change the multiset.)
	projected := make([]Solution, len(extended))
	for i, sol := range extended {
		row := make(Solution, len(vars))
		for _, v := range vars {
			if t, ok := sol[v]; ok {
				row[v] = t
			}
		}
		projected[i] = row
	}
	if q.Distinct || q.Reduced {
		seen := make(map[string]bool, len(projected))
		var out []Solution
		for _, sol := range projected {
			var kb strings.Builder
			for _, v := range vars {
				t, ok := sol[v]
				kb.WriteString(termKey(t, ok))
				kb.WriteByte('|')
			}
			k := kb.String()
			if !seen[k] {
				seen[k] = true
				out = append(out, sol)
			}
		}
		projected = out
	}
	if q.Offset > 0 {
		if q.Offset >= len(projected) {
			projected = nil
		} else {
			projected = projected[q.Offset:]
		}
	}
	if q.Limit >= 0 && q.Limit < len(projected) {
		projected = projected[:q.Limit]
	}
	res.Solutions = projected
	return res
}

func (re *refEvaluator) groupAndAggregate(q *Query, sols []Solution, aggs []*AggExpr) []Solution {
	type groupData struct {
		key  Solution
		rows []Solution
	}
	groups := make(map[string]*groupData)
	var order []string
	for _, sol := range sols {
		var kb strings.Builder
		key := Solution{}
		for i, ge := range q.GroupBy {
			v, err := re.eval(ge, sol)
			bound := err == nil
			if bound {
				if ve, ok := ge.(*VarExpr); ok {
					key[ve.Name] = v
				} else {
					key[" gk"+strconv.Itoa(i)] = v
				}
			}
			kb.WriteString(termKey(v, bound))
			kb.WriteByte('|')
		}
		k := kb.String()
		gd, ok := groups[k]
		if !ok {
			gd = &groupData{key: key}
			groups[k] = gd
			order = append(order, k)
		}
		gd.rows = append(gd.rows, sol)
	}
	if len(q.GroupBy) == 0 && len(groups) == 0 {
		groups[""] = &groupData{key: Solution{}}
		order = append(order, "")
	}
	var out []Solution
	for _, k := range order {
		gd := groups[k]
		row := gd.key.clone()
		for _, agg := range aggs {
			var values []rdf.Term
			for _, r := range gd.rows {
				if agg.Arg == nil {
					values = append(values, rdf.TrueLiteral)
					continue
				}
				if v, err := re.eval(agg.Arg, r); err == nil {
					values = append(values, v)
				}
			}
			if agg.Distinct {
				values = dedupTerms(values)
			}
			if v, ok := foldAggregate(agg.Name, agg.Sep, values); ok {
				row[agg.key] = v
			}
		}
		keep := true
		for _, h := range q.Having {
			ok, err := re.ebv(h, row)
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
