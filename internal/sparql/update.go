package sparql

import (
	"fmt"
	"strings"

	"repro/internal/rdf"
	"repro/internal/store"
)

// UpdateKind discriminates SPARQL 1.1 Update operations.
type UpdateKind int

// Supported update forms.
const (
	UpdateInsertData UpdateKind = iota
	UpdateDeleteData
	UpdateDeleteWhere
	UpdateModify // DELETE {} INSERT {} WHERE {}
	UpdateClear
)

// Update is a parsed SPARQL Update request (one or more operations
// separated by ';').
type Update struct {
	Operations []UpdateOperation
	Namespaces *rdf.Namespaces
}

// UpdateOperation is a single update operation.
type UpdateOperation struct {
	Kind   UpdateKind
	Insert []TriplePattern
	Delete []TriplePattern
	Where  *Group
}

// UpdateResult reports what an update changed.
type UpdateResult struct {
	Inserted int
	Deleted  int
	// StaleInferred lists previously inferred triples whose recorded
	// derivation lost at least one premise to this update's deletions.
	// Forward-chaining materialization is monotonic — such inferences stay
	// in the graph — so inference-aware layers surface them here instead of
	// silently serving stale proofs. The SPARQL executor itself never fills
	// this field; feo.Session.Update does, from the reasoner's derivation
	// trace.
	StaleInferred []rdf.Triple
}

// String renders the result for CLI output.
func (r UpdateResult) String() string {
	if n := len(r.StaleInferred); n > 0 {
		return fmt.Sprintf("inserted %d, deleted %d (%d inference(s) lost a premise and may be stale)",
			r.Inserted, r.Deleted, n)
	}
	return fmt.Sprintf("inserted %d, deleted %d", r.Inserted, r.Deleted)
}

// ParseUpdate parses a SPARQL 1.1 Update request supporting INSERT DATA,
// DELETE DATA, DELETE WHERE, DELETE/INSERT ... WHERE, and CLEAR.
func ParseUpdate(src string) (*Update, error) {
	p := newParser(src, false)
	u, err := p.parseUpdate()
	if err = p.finish(err); err != nil {
		return nil, err
	}
	return u, nil
}

func (p *qparser) parseUpdate() (*Update, error) {
	if err := p.parsePrologue(); err != nil {
		return nil, err
	}
	u := &Update{Namespaces: p.ns}
	for {
		op, err := p.parseUpdateOperation()
		if err != nil {
			return nil, err
		}
		u.Operations = append(u.Operations, op)
		if !p.acceptPunct(";") {
			break
		}
		// Allow a trailing ';'.
		if p.cur().kind == tokEOF {
			break
		}
		// Each operation may repeat the prologue per the SPARQL grammar.
		if err := p.parsePrologue(); err != nil {
			return nil, err
		}
	}
	if p.cur().kind != tokEOF {
		return nil, p.errf("unexpected trailing input %s", p.cur())
	}
	return u, nil
}

func (p *qparser) parseUpdateOperation() (UpdateOperation, error) {
	switch {
	case p.acceptKeyword("INSERT"):
		if p.acceptKeyword("DATA") {
			tmpl, err := p.parseQuadData(true)
			if err != nil {
				return UpdateOperation{}, err
			}
			return UpdateOperation{Kind: UpdateInsertData, Insert: tmpl}, nil
		}
		// INSERT {} WHERE {}
		tmpl, err := p.parseQuadData(false)
		if err != nil {
			return UpdateOperation{}, err
		}
		p.acceptKeyword("WHERE")
		w, err := p.parseGroupGraphPattern()
		if err != nil {
			return UpdateOperation{}, err
		}
		return UpdateOperation{Kind: UpdateModify, Insert: tmpl, Where: w}, nil
	case p.acceptKeyword("DELETE"):
		if p.acceptKeyword("DATA") {
			tmpl, err := p.parseQuadData(true)
			if err != nil {
				return UpdateOperation{}, err
			}
			return UpdateOperation{Kind: UpdateDeleteData, Delete: tmpl}, nil
		}
		if p.acceptKeyword("WHERE") {
			w, err := p.parseGroupGraphPattern()
			if err != nil {
				return UpdateOperation{}, err
			}
			tmpl := patternTriples(w)
			if tmpl == nil {
				return UpdateOperation{}, p.errf("DELETE WHERE requires a plain triple pattern")
			}
			return UpdateOperation{Kind: UpdateDeleteWhere, Delete: tmpl, Where: w}, nil
		}
		del, err := p.parseQuadData(false)
		if err != nil {
			return UpdateOperation{}, err
		}
		var ins []TriplePattern
		if p.acceptKeyword("INSERT") {
			ins, err = p.parseQuadData(false)
			if err != nil {
				return UpdateOperation{}, err
			}
		}
		p.acceptKeyword("WHERE")
		w, err := p.parseGroupGraphPattern()
		if err != nil {
			return UpdateOperation{}, err
		}
		return UpdateOperation{Kind: UpdateModify, Delete: del, Insert: ins, Where: w}, nil
	case p.acceptKeyword("CLEAR"):
		// Accept and ignore an optional ALL keyword (arrives as a pname).
		if p.cur().kind == tokPName && strings.EqualFold(p.cur().text, "ALL") {
			p.next()
		}
		return UpdateOperation{Kind: UpdateClear}, nil
	default:
		return UpdateOperation{}, p.errf("expected INSERT, DELETE, or CLEAR, found %s", p.cur())
	}
}

// parseQuadData parses '{ triples }'. ground=true rejects variables
// (INSERT/DELETE DATA must be concrete).
func (p *qparser) parseQuadData(ground bool) ([]TriplePattern, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	var out []TriplePattern
	for !p.isPunct("}") {
		tps, err := p.parseTriplesSameSubject()
		if err != nil {
			return nil, err
		}
		out = append(out, tps...)
		if !p.acceptPunct(".") {
			break
		}
	}
	if err := p.expectPunct("}"); err != nil {
		return nil, err
	}
	if ground {
		for _, tp := range out {
			if tp.S.IsVar || tp.P.IsVar || tp.O.IsVar || tp.Path != nil {
				return nil, p.errf("variables are not allowed in DATA blocks")
			}
		}
	}
	for _, tp := range out {
		if tp.Path != nil {
			return nil, p.errf("property paths are not allowed in update templates")
		}
	}
	return out, nil
}

// patternTriples extracts the triple patterns of a group consisting solely
// of BGPs (for DELETE WHERE), or nil if the group has other pattern kinds.
func patternTriples(g *Group) []TriplePattern {
	var out []TriplePattern
	if len(g.Filters) > 0 {
		return nil
	}
	for _, p := range g.Patterns {
		bgp, ok := p.(*BGP)
		if !ok {
			return nil
		}
		for _, tp := range bgp.Triples {
			if tp.Path != nil {
				return nil
			}
		}
		out = append(out, bgp.Triples...)
	}
	return out
}

// ExecuteUpdate applies a parsed update to the graph and reports the
// number of triples inserted and deleted. Operations run in order; each
// operation's WHERE clause is evaluated against the graph state left by
// the previous operation. Deletions are applied before insertions within
// one operation, per the SPARQL Update semantics.
func ExecuteUpdate(g *store.Graph, u *Update) (UpdateResult, error) {
	var res UpdateResult
	for _, op := range u.Operations {
		// Fresh context per operation: evalContext memoizes path
		// reachability under the assumption the graph does not change
		// mid-evaluation, and earlier operations may have mutated it.
		// gver pins that snapshot so the memo stays live for the WHERE
		// evaluation (and self-bypasses if the graph somehow mutates under
		// it).
		op := op
		ec := newEvalContext(g, buildUpdateEnv(&op))
		switch op.Kind {
		case UpdateInsertData:
			for _, tp := range op.Insert {
				if g.Add(tp.S.Term, tp.P.Term, tp.O.Term) {
					res.Inserted++
				}
			}
		case UpdateDeleteData:
			for _, tp := range op.Delete {
				if g.Remove(tp.S.Term, tp.P.Term, tp.O.Term) {
					res.Deleted++
				}
			}
		case UpdateDeleteWhere, UpdateModify:
			rows := collect(func(sink rowSink) { ec.evalWhere(op.Where, sink) })
			// Materialize both sets (decoding the ID rows) before mutating.
			var toDelete, toInsert []rdf.Triple
			for _, r := range rows {
				for _, tp := range op.Delete {
					if t, ok := ec.instantiateTripleRow(tp, r); ok {
						toDelete = append(toDelete, t)
					}
				}
				for _, tp := range op.Insert {
					if t, ok := ec.instantiateTripleRow(tp, r); ok {
						toInsert = append(toInsert, t)
					}
				}
			}
			for _, t := range toDelete {
				if g.Remove(t.S, t.P, t.O) {
					res.Deleted++
				}
			}
			for _, t := range toInsert {
				if g.AddTriple(t) {
					res.Inserted++
				}
			}
		case UpdateClear:
			res.Deleted += g.Len()
			g.Clear()
		}
	}
	return res, nil
}

// instantiateTripleRow fills an update template from one ID row, decoding
// each bound slot exactly once per instantiated position.
func (ec *evalContext) instantiateTripleRow(tp TriplePattern, r idRow) (rdf.Triple, bool) {
	resolvePos := func(tv TermOrVar) (rdf.Term, bool) {
		if !tv.IsVar {
			return tv.Term, true
		}
		return ec.valueOf(r, tv.Var)
	}
	s, ok1 := resolvePos(tp.S)
	p, ok2 := resolvePos(tp.P)
	o, ok3 := resolvePos(tp.O)
	if !ok1 || !ok2 || !ok3 {
		return rdf.Triple{}, false
	}
	t := rdf.Triple{S: s, P: p, O: o}
	return t, t.Valid()
}

// RunUpdate parses and executes an update request in one call.
func RunUpdate(g *store.Graph, src string) (UpdateResult, error) {
	u, err := ParseUpdate(src)
	if err != nil {
		return UpdateResult{}, err
	}
	return ExecuteUpdate(g, u)
}
