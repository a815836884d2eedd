package sparql

import (
	"sort"
	"strings"

	"repro/internal/rdf"
)

// Get returns the binding of var in row i, or the zero Term.
func (r *Result) Get(i int, varName string) rdf.Term {
	if i < 0 || i >= len(r.Solutions) {
		return rdf.Term{}
	}
	return r.Solutions[i][varName]
}

// Len returns the number of solution rows.
func (r *Result) Len() int { return len(r.Solutions) }

// Sort orders the solution rows deterministically by the projected
// variables (rdf.Compare per column, left to right; unbound sorts first).
// Without an ORDER BY clause the evaluator's row order is unspecified —
// it follows index iteration, which varies run to run — so renderers that
// need byte-stable output across runs sort before rendering. A no-op on ASK/CONSTRUCT/DESCRIBE results.
func (r *Result) Sort() {
	sort.SliceStable(r.Solutions, func(i, j int) bool {
		a, b := r.Solutions[i], r.Solutions[j]
		for _, v := range r.Vars {
			if c := rdf.Compare(a[v], b[v]); c != 0 {
				return c < 0
			}
		}
		return false
	})
}

// Table renders SELECT results as an aligned text table using the query's
// prefixes, in the style the paper presents its listing outputs.
//
//feo:emit
func (r *Result) Table() string {
	if r.Kind == KindAsk {
		if r.Boolean {
			return "yes\n"
		}
		return "no\n"
	}
	cols := r.Vars
	widths := make([]int, len(cols))
	header := make([]string, len(cols))
	for i, c := range cols {
		header[i] = "?" + c
		widths[i] = len(header[i])
	}
	rows := make([][]string, 0, len(r.Solutions))
	for _, sol := range r.Solutions {
		row := make([]string, len(cols))
		for i, c := range cols {
			if t, ok := sol[c]; ok {
				row[i] = t.Compact(r.Namespaces)
			} else {
				row[i] = ""
			}
			if len(row[i]) > widths[i] {
				widths[i] = len(row[i])
			}
		}
		rows = append(rows, row)
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	sep := make([]string, len(cols))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// Column returns all bindings of one variable across rows (unbound cells
// are skipped).
func (r *Result) Column(varName string) []rdf.Term {
	out := make([]rdf.Term, 0, len(r.Solutions))
	for _, sol := range r.Solutions {
		if t, ok := sol[varName]; ok {
			out = append(out, t)
		}
	}
	return out
}

// HasRow reports whether some row binds every given (var, term) pair. A
// zero Term in want requires the variable to be unbound in the row, and a
// row entry holding a zero Term counts as unbound — absent and
// explicitly-unbound variables are indistinguishable on both sides, so
// reference-evaluator comparisons (and callers probing OPTIONAL results)
// can use the same map regardless of how a row spelled "no binding".
func (r *Result) HasRow(want map[string]rdf.Term) bool {
	zero := rdf.Term{}
	for _, sol := range r.Solutions {
		match := true
		//feo:unordered // membership check only
		for v, t := range want {
			got, bound := sol[v]
			if got == zero {
				bound = false // an explicit zero binding means unbound
			}
			if t == zero {
				if bound {
					match = false
					break
				}
				continue
			}
			if !bound || got != t {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}
