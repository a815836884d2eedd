// AST types for parsed queries; package documentation lives in doc.go.
package sparql

import (
	"repro/internal/rdf"
)

// QueryKind discriminates the four SPARQL query forms.
type QueryKind int

// Query forms.
const (
	KindSelect QueryKind = iota
	KindAsk
	KindConstruct
	KindDescribe
)

func (k QueryKind) String() string {
	switch k {
	case KindSelect:
		return "SELECT"
	case KindAsk:
		return "ASK"
	case KindConstruct:
		return "CONSTRUCT"
	default:
		return "DESCRIBE"
	}
}

// Query is a parsed SPARQL query.
type Query struct {
	Kind     QueryKind
	Distinct bool
	Reduced  bool
	// Projection lists the selected items; empty means SELECT *.
	Projection []SelectItem
	// DescribeTerms lists the IRIs/vars of a DESCRIBE query.
	DescribeTerms []TermOrVar
	// Template holds the CONSTRUCT template.
	Template []TriplePattern
	Where    *Group
	GroupBy  []Expression
	Having   []Expression
	OrderBy  []OrderCondition
	Limit    int // -1 when absent
	Offset   int
	// Namespaces carries the PREFIX declarations for result rendering.
	Namespaces *rdf.Namespaces
}

// SelectItem is a projected variable, optionally computed from an expression
// ("(expr AS ?v)").
type SelectItem struct {
	Var  string
	Expr Expression // nil for plain variables
}

// OrderCondition is one ORDER BY key.
type OrderCondition struct {
	Expr       Expression
	Descending bool
}

// TermOrVar is a triple-pattern position: either a concrete RDF term or a
// variable name. In a cached template a constant position may instead be
// a parameter reference, resolved per execution (evalContext.constOf).
type TermOrVar struct {
	Term  rdf.Term
	Var   string // non-empty means variable
	IsVar bool
	param int // 1 + the parameter index; 0 for a term or variable
}

// V returns a variable position.
func V(name string) TermOrVar { return TermOrVar{Var: name, IsVar: true} }

// T returns a concrete-term position.
func T(t rdf.Term) TermOrVar { return TermOrVar{Term: t} }

// String renders the position in SPARQL syntax.
func (tv TermOrVar) String() string {
	if tv.IsVar {
		return "?" + tv.Var
	}
	return tv.Term.String()
}

// TriplePattern is a single pattern in a basic graph pattern. When Path is
// non-nil the predicate position is a property path instead of a term/var.
type TriplePattern struct {
	S, P, O TermOrVar
	Path    *Path
}

// PathKind discriminates property-path operators.
type PathKind int

// Property path operators.
const (
	PathIRI        PathKind = iota // single predicate
	PathSeq                        // p1 / p2
	PathAlt                        // p1 | p2
	PathInverse                    // ^p
	PathZeroOrMore                 // p*
	PathOneOrMore                  // p+
	PathZeroOrOne                  // p?
)

// Path is a property-path expression tree.
type Path struct {
	Kind PathKind
	IRI  rdf.Term // for PathIRI
	Kids []*Path  // operands for the composite kinds
}

// Pattern is a node of the WHERE-clause pattern tree.
type Pattern interface{ isPattern() }

// Group is a braced group graph pattern: an ordered list of sub-patterns.
// Filters apply over the group's solutions after all other patterns.
type Group struct {
	Patterns []Pattern
	Filters  []Expression
}

// BGP is a basic graph pattern: a conjunction of triple patterns.
type BGP struct {
	Triples []TriplePattern
}

// Optional is OPTIONAL { ... }.
type Optional struct {
	Pattern *Group
}

// Union is { A } UNION { B } (n-ary unions are parsed left-nested).
type Union struct {
	Left, Right *Group
}

// Minus is MINUS { ... }.
type Minus struct {
	Pattern *Group
}

// Bind is BIND(expr AS ?v).
type Bind struct {
	Expr Expression
	Var  string
}

// SubSelect is a nested "{ SELECT ... }" subquery. It evaluates in a fresh
// scope and joins its projected solutions with the outer pattern.
type SubSelect struct {
	Query *Query
}

// InlineData is a VALUES block. A nil term in a row means UNDEF.
type InlineData struct {
	Vars []string
	Rows [][]TermOrNil
}

// TermOrNil is a VALUES cell; Defined=false encodes UNDEF.
type TermOrNil struct {
	Term    rdf.Term
	Defined bool
}

func (*Group) isPattern()      {}
func (*BGP) isPattern()        {}
func (*Optional) isPattern()   {}
func (*Union) isPattern()      {}
func (*Minus) isPattern()      {}
func (*Bind) isPattern()       {}
func (*InlineData) isPattern() {}
func (*SubSelect) isPattern()  {}
