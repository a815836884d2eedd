package sparql

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/store"
)

// boundCheck holds a query's BGP plans to the plans a row-driven planner
// would build. Every BGP is planned from a static bound-slot set, derived
// top-down through groupStages; this check runs the query link by link
// with the production chains and records, per BGP, the slots bound in
// every row that actually reaches it. Where the two sets agree, the
// static plan is the one a planner reading the rows would have chosen.
type boundCheck struct {
	ec     *evalContext
	static map[*BGP][]bool // the set the BGP is planned with
	seen   map[*BGP][]bool // bound in every row that reached it
	order  []*BGP
}

// staticBoundMismatches runs src against g (through the shape cache, as
// Run does) and describes every BGP whose static bound-slot set differs
// from the slots bound in every row that reaches it. A BGP no row
// reaches is not compared.
func staticBoundMismatches(g *store.Graph, src string) ([]string, error) {
	pq, err := lookupQuery(src)
	if err != nil {
		return nil, err
	}
	bc := &boundCheck{ec: pq.context(g), static: map[*BGP][]bool{}, seen: map[*BGP][]bool{}}
	bc.group(pq.q.Where, nil, []idRow{bc.ec.newRow()})
	names := func(set []bool) string {
		var vs []string
		for s, b := range set {
			if b {
				vs = append(vs, bc.ec.env.names[s])
			}
		}
		sort.Strings(vs)
		return "{" + strings.Join(vs, " ") + "}"
	}
	var out []string
	for i, b := range bc.order {
		if !slices.Equal(bc.static[b], bc.seen[b]) {
			out = append(out, fmt.Sprintf("BGP %d (%d patterns): planned with %s, rows bind %s",
				i, len(b.Triples), names(bc.static[b]), names(bc.seen[b])))
		}
	}
	return out, nil
}

// group pushes rows through g one link at a time, visiting each pattern
// and filter with the rows that reach it, and returns the group's rows.
func (bc *boundCheck) group(g *Group, entry []bool, rows []idRow) []idRow {
	ec := bc.ec
	certs, stage := ec.groupStages(g, entry)
	for k := 0; ; k++ {
		for i, f := range g.Filters {
			if stage[i] != k {
				continue
			}
			bc.bodies(f, certs[k], rows)
			var kept []idRow
			for _, r := range rows {
				if ok, err := ebvOf(f, ec, r); err == nil && ok {
					kept = append(kept, r)
				}
			}
			rows = kept
		}
		if k == len(g.Patterns) {
			return rows
		}
		p := g.Patterns[k]
		bc.pattern(p, certs[k], rows)
		rows = collect(func(sink rowSink) { pushRows(rows, ec.chainPattern(p, certs[k], sink)) })
	}
}

// pattern visits p's BGPs and nested groups with the rows that reach them.
func (bc *boundCheck) pattern(p Pattern, certain []bool, rows []idRow) {
	fresh := []idRow{bc.ec.newRow()}
	switch pat := p.(type) {
	case *BGP:
		if len(rows) == 0 {
			return
		}
		seen := bc.seen[pat]
		if seen == nil {
			bc.order = append(bc.order, pat)
			bc.static[pat] = certain
			seen = make([]bool, len(certain))
			for s := range seen {
				seen[s] = true
			}
			bc.seen[pat] = seen
		}
		for _, r := range rows {
			for s, id := range r {
				seen[s] = seen[s] && id != store.NoID
			}
		}
	case *Group:
		bc.group(pat, certain, rows)
	case *Optional:
		bc.group(pat.Pattern, certain, rows)
	case *Union:
		bc.group(pat.Left, certain, rows)
		bc.group(pat.Right, certain, rows)
	case *Minus:
		bc.group(pat.Pattern, nil, fresh)
	case *SubSelect:
		bc.group(pat.Query.Where, nil, fresh)
	case *Bind:
		bc.bodies(pat.Expr, certain, rows)
	}
}

// bodies visits the EXISTS bodies e evaluates, entered by rows.
func (bc *boundCheck) bodies(e Expression, certain []bool, rows []idRow) {
	switch x := e.(type) {
	case *ExistsExpr:
		bc.group(x.Pattern, certain, rows)
	case *BinaryExpr:
		bc.bodies(x.Left, certain, rows)
		bc.bodies(x.Right, certain, rows)
	case *UnaryExpr:
		bc.bodies(x.Expr, certain, rows)
	case *FuncExpr:
		for _, a := range x.Args {
			bc.bodies(a, certain, rows)
		}
	}
}
