package sparql

import (
	"errors"
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/rdf"
	"repro/internal/store"
)

// Solution is one query solution: a binding of variable names to terms.
type Solution map[string]rdf.Term

// clone copies a solution before extension. The extra headroom keeps the
// insert that follows from growing (and rehashing) the fresh map.
func (s Solution) clone() Solution {
	out := make(Solution, len(s)+2)
	//feo:unordered // map copy
	for k, v := range s {
		out[k] = v
	}
	return out
}

// errUnbound signals an expression error per SPARQL semantics: in FILTER it
// removes the solution; in BIND it leaves the variable unbound.
var errUnbound = errors.New("sparql: expression error")

// Expression is a SPARQL expression evaluable against an ID row.
//
// Variables resolve through the context's slot table and decode lazily:
// an expression that never needs a term's lexical form (BOUND, EXISTS)
// touches no term at all, and one that does decodes exactly the slots it
// reads. Expression trees are immutable after parsing, so one tree serves
// concurrent executions, each with its own evalContext; the only state an
// Eval shares across them (the regex cache) synchronizes internally.
type Expression interface {
	Eval(ec *evalContext, r idRow) (rdf.Term, error)
}

// ---- leaf expressions ----

// VarExpr references a variable.
type VarExpr struct{ Name string }

// Eval returns the bound term (decoded lazily) or an error when unbound.
func (e *VarExpr) Eval(ec *evalContext, r idRow) (rdf.Term, error) {
	if t, ok := ec.valueOf(r, e.Name); ok {
		return t, nil
	}
	return rdf.Term{}, errUnbound
}

// ConstExpr is a constant term.
type ConstExpr struct{ Term rdf.Term }

// Eval returns the constant.
func (e *ConstExpr) Eval(*evalContext, idRow) (rdf.Term, error) { return e.Term, nil }

// paramExpr is an expression constant lifted out of a cached template: it
// reads its execution's parameter vector.
type paramExpr struct{ index int }

// Eval returns this execution's value of the parameter.
func (e *paramExpr) Eval(ec *evalContext, _ idRow) (rdf.Term, error) {
	return ec.params[e.index], nil
}

// ---- compound expressions ----

// BinaryExpr applies an infix operator: || && = != < > <= >= + - * /.
type BinaryExpr struct {
	Op          string
	Left, Right Expression
}

// UnaryExpr applies ! or unary -.
type UnaryExpr struct {
	Op   string
	Expr Expression
}

// FuncExpr is a builtin function call.
type FuncExpr struct {
	Name string // upper-cased
	Args []Expression
}

// ExistsExpr is EXISTS{} / NOT EXISTS{}.
type ExistsExpr struct {
	Negated bool
	Pattern *Group
}

// InExpr is "expr IN (e1, e2, ...)" or NOT IN.
type InExpr struct {
	Negated bool
	Expr    Expression
	List    []Expression
}

// AggExpr is an aggregate call; it is evaluated by the GROUP BY machinery,
// not by Eval (Eval reads the precomputed value bound under its key).
type AggExpr struct {
	Name     string // COUNT, SUM, AVG, MIN, MAX, SAMPLE, GROUP_CONCAT
	Distinct bool
	Arg      Expression // nil for COUNT(*)
	Sep      string     // GROUP_CONCAT separator
	key      string     // internal binding key assigned by the planner
}

// Eval reads the aggregate's computed value from the group row.
func (e *AggExpr) Eval(ec *evalContext, r idRow) (rdf.Term, error) {
	if t, ok := ec.valueOf(r, e.key); ok {
		return t, nil
	}
	return rdf.Term{}, errUnbound
}

// Eval of BinaryExpr implements SPARQL operator semantics, including
// short-circuit || / && with the three-valued error handling of the spec.
func (e *BinaryExpr) Eval(ec *evalContext, row idRow) (rdf.Term, error) {
	switch e.Op {
	case "||":
		lv, lerr := ebvOf(e.Left, ec, row)
		rv, rerr := ebvOf(e.Right, ec, row)
		switch {
		case lerr == nil && lv, rerr == nil && rv:
			return rdf.TrueLiteral, nil
		case lerr != nil || rerr != nil:
			return rdf.Term{}, errUnbound
		default:
			return rdf.FalseLiteral, nil
		}
	case "&&":
		lv, lerr := ebvOf(e.Left, ec, row)
		rv, rerr := ebvOf(e.Right, ec, row)
		switch {
		case lerr == nil && !lv, rerr == nil && !rv:
			return rdf.FalseLiteral, nil
		case lerr != nil || rerr != nil:
			return rdf.Term{}, errUnbound
		default:
			return rdf.TrueLiteral, nil
		}
	}
	l, err := e.Left.Eval(ec, row)
	if err != nil {
		return rdf.Term{}, err
	}
	r, err := e.Right.Eval(ec, row)
	if err != nil {
		return rdf.Term{}, err
	}
	switch e.Op {
	case "=":
		eq, err := termsEqual(l, r)
		if err != nil {
			return rdf.Term{}, err
		}
		return boolTerm(eq), nil
	case "!=":
		eq, err := termsEqual(l, r)
		if err != nil {
			return rdf.Term{}, err
		}
		return boolTerm(!eq), nil
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
	return rdf.Term{}, fmt.Errorf("sparql: unknown operator %q", e.Op)
}

// numericResult keeps integer typing for integer operands of +,-,* and
// produces xsd:decimal otherwise.
func numericResult(v float64, l, r rdf.Term, op string) rdf.Term {
	if op != "/" && l.Datatype == rdf.XSDInteger && r.Datatype == rdf.XSDInteger && v == math.Trunc(v) {
		return rdf.NewInt(int64(v))
	}
	return rdf.NewTypedLiteral(strconv.FormatFloat(v, 'g', -1, 64), rdf.XSDDecimal)
}

// Eval of UnaryExpr.
func (e *UnaryExpr) Eval(ec *evalContext, r idRow) (rdf.Term, error) {
	switch e.Op {
	case "!":
		v, err := ebvOf(e.Expr, ec, r)
		if err != nil {
			return rdf.Term{}, err
		}
		return boolTerm(!v), nil
	case "-":
		v, err := e.Expr.Eval(ec, r)
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
	case "+":
		return e.Expr.Eval(ec, r)
	}
	return rdf.Term{}, fmt.Errorf("sparql: unknown unary operator %q", e.Op)
}

// Eval of InExpr.
func (e *InExpr) Eval(ec *evalContext, r idRow) (rdf.Term, error) {
	v, err := e.Expr.Eval(ec, r)
	if err != nil {
		return rdf.Term{}, err
	}
	found := false
	for _, item := range e.List {
		iv, err := item.Eval(ec, r)
		if err != nil {
			continue
		}
		if eq, err := termsEqual(v, iv); err == nil && eq {
			found = true
			break
		}
	}
	return boolTerm(found != e.Negated), nil
}

// Eval of ExistsExpr pushes the current row into the nested pattern's
// chain, compiled at the first row, up to its first solution.
func (e *ExistsExpr) Eval(ec *evalContext, r idRow) (rdf.Term, error) {
	return boolTerm(ec.exists(e.Pattern, r) != e.Negated), nil
}

// Eval of FuncExpr dispatches the builtin library.
func (e *FuncExpr) Eval(ec *evalContext, r idRow) (rdf.Term, error) {
	// BOUND and COALESCE/IF inspect raw evaluation outcomes.
	switch e.Name {
	case "BOUND":
		v, ok := e.Args[0].(*VarExpr)
		if !ok {
			return rdf.Term{}, errUnbound
		}
		s := ec.env.slot(v.Name)
		return boolTerm(s >= 0 && r[s] != store.NoID), nil
	case "COALESCE":
		for _, a := range e.Args {
			if v, err := a.Eval(ec, r); err == nil {
				return v, nil
			}
		}
		return rdf.Term{}, errUnbound
	case "IF":
		if len(e.Args) != 3 {
			return rdf.Term{}, errUnbound
		}
		c, err := ebvOf(e.Args[0], ec, r)
		if err != nil {
			return rdf.Term{}, err
		}
		if c {
			return e.Args[1].Eval(ec, r)
		}
		return e.Args[2].Eval(ec, r)
	}
	args := make([]rdf.Term, len(e.Args))
	for i, a := range e.Args {
		v, err := a.Eval(ec, r)
		if err != nil {
			return rdf.Term{}, err
		}
		args[i] = v
	}
	return evalBuiltin(e.Name, args)
}

func evalBuiltin(name string, args []rdf.Term) (rdf.Term, error) {
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("sparql: %s expects %d args, got %d", name, n, len(args))
		}
		return nil
	}
	switch name {
	case "ISIRI", "ISURI":
		if err := need(1); err != nil {
			return rdf.Term{}, err
		}
		return boolTerm(args[0].IsIRI()), nil
	case "ISBLANK":
		if err := need(1); err != nil {
			return rdf.Term{}, err
		}
		return boolTerm(args[0].IsBlank()), nil
	case "ISLITERAL":
		if err := need(1); err != nil {
			return rdf.Term{}, err
		}
		return boolTerm(args[0].IsLiteral()), nil
	case "ISNUMERIC":
		if err := need(1); err != nil {
			return rdf.Term{}, err
		}
		_, ok := args[0].Float()
		return boolTerm(ok), nil
	case "STR":
		if err := need(1); err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewLiteral(args[0].Value), nil
	case "LANG":
		if err := need(1); err != nil {
			return rdf.Term{}, err
		}
		if !args[0].IsLiteral() {
			return rdf.Term{}, errUnbound
		}
		return rdf.NewLiteral(args[0].Lang), nil
	case "LANGMATCHES":
		if err := need(2); err != nil {
			return rdf.Term{}, err
		}
		tag, rng := strings.ToLower(args[0].Value), strings.ToLower(args[1].Value)
		if rng == "*" {
			return boolTerm(tag != ""), nil
		}
		return boolTerm(tag == rng || strings.HasPrefix(tag, rng+"-")), nil
	case "DATATYPE":
		if err := need(1); err != nil {
			return rdf.Term{}, err
		}
		if !args[0].IsLiteral() {
			return rdf.Term{}, errUnbound
		}
		dt := args[0].Datatype
		if dt == "" {
			dt = rdf.XSDString
		}
		return rdf.NewIRI(dt), nil
	case "IRI", "URI":
		if err := need(1); err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewIRI(args[0].Value), nil
	case "STRLEN":
		if err := need(1); err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewInt(int64(len([]rune(args[0].Value)))), nil
	case "UCASE":
		if err := need(1); err != nil {
			return rdf.Term{}, err
		}
		return stringResult(strings.ToUpper(args[0].Value), args[0]), nil
	case "LCASE":
		if err := need(1); err != nil {
			return rdf.Term{}, err
		}
		return stringResult(strings.ToLower(args[0].Value), args[0]), nil
	case "CONTAINS":
		if err := need(2); err != nil {
			return rdf.Term{}, err
		}
		return boolTerm(strings.Contains(args[0].Value, args[1].Value)), nil
	case "STRSTARTS":
		if err := need(2); err != nil {
			return rdf.Term{}, err
		}
		return boolTerm(strings.HasPrefix(args[0].Value, args[1].Value)), nil
	case "STRENDS":
		if err := need(2); err != nil {
			return rdf.Term{}, err
		}
		return boolTerm(strings.HasSuffix(args[0].Value, args[1].Value)), nil
	case "STRBEFORE":
		if err := need(2); err != nil {
			return rdf.Term{}, err
		}
		if i := strings.Index(args[0].Value, args[1].Value); i >= 0 {
			return stringResult(args[0].Value[:i], args[0]), nil
		}
		return rdf.NewLiteral(""), nil
	case "STRAFTER":
		if err := need(2); err != nil {
			return rdf.Term{}, err
		}
		if i := strings.Index(args[0].Value, args[1].Value); i >= 0 {
			return stringResult(args[0].Value[i+len(args[1].Value):], args[0]), nil
		}
		return rdf.NewLiteral(""), nil
	case "CONCAT":
		var b strings.Builder
		for _, a := range args {
			b.WriteString(a.Value)
		}
		return rdf.NewLiteral(b.String()), nil
	case "SUBSTR":
		if len(args) != 2 && len(args) != 3 {
			return rdf.Term{}, errUnbound
		}
		runes := []rune(args[0].Value)
		start, ok := args[1].Int()
		if !ok || start < 1 {
			return rdf.Term{}, errUnbound
		}
		from := int(start) - 1
		if from > len(runes) {
			from = len(runes)
		}
		to := len(runes)
		if len(args) == 3 {
			n, ok := args[2].Int()
			if !ok {
				return rdf.Term{}, errUnbound
			}
			if from+int(n) < to {
				to = from + int(n)
			}
		}
		return stringResult(string(runes[from:to]), args[0]), nil
	case "REGEX", "REPLACE":
		// REGEX(text, pattern [, flags]); REPLACE(text, pattern, replacement [, flags]).
		nfix := 3
		if name == "REGEX" {
			nfix = 2
		}
		if len(args) != nfix && len(args) != nfix+1 {
			return rdf.Term{}, errUnbound
		}
		flags := ""
		if len(args) > nfix {
			flags = args[nfix].Value
		}
		re, err := compileRegex(args[1].Value, flags)
		switch {
		case err != nil:
			return rdf.Term{}, errUnbound
		case name == "REGEX":
			return boolTerm(re.MatchString(args[0].Value)), nil
		}
		return stringResult(re.ReplaceAllString(args[0].Value, args[2].Value), args[0]), nil
	case "ABS":
		if err := need(1); err != nil {
			return rdf.Term{}, err
		}
		return numericUnary(args[0], math.Abs)
	case "CEIL":
		if err := need(1); err != nil {
			return rdf.Term{}, err
		}
		return numericUnary(args[0], math.Ceil)
	case "FLOOR":
		if err := need(1); err != nil {
			return rdf.Term{}, err
		}
		return numericUnary(args[0], math.Floor)
	case "ROUND":
		if err := need(1); err != nil {
			return rdf.Term{}, err
		}
		return numericUnary(args[0], math.Round)
	case "SAMETERM":
		if err := need(2); err != nil {
			return rdf.Term{}, err
		}
		return boolTerm(args[0] == args[1]), nil
	}
	return rdf.Term{}, fmt.Errorf("sparql: unknown function %s", name)
}

// regexCache memoizes compiled REGEX/REPLACE patterns across queries. The
// pattern argument is re-evaluated per solution, so an uncached FILTER
// REGEX would recompile the same pattern once per row. Data-driven
// (per-row varying) patterns stop being cached once the cache is full,
// bounding memory; lookups stay lock-free either way.
var (
	regexCache    sync.Map // "pattern\x00flags" -> *regexp.Regexp
	regexCacheLen atomic.Int32
)

const regexCacheMax = 256

// compileRegex compiles an XPath regular expression (the REGEX/REPLACE
// pattern) under its flags string: s, m and i map to Go's (?s), (?m) and
// (?i); q matches the pattern literally (only i still applies); x drops
// whitespace outside character classes. Any other flag is an error.
func compileRegex(pattern, flags string) (*regexp.Regexp, error) {
	key := pattern + "\x00" + flags
	if re, ok := regexCache.Load(key); ok {
		return re.(*regexp.Regexp), nil
	}
	goFlags := ""
	for _, f := range flags {
		switch {
		case strings.ContainsRune("smi", f):
			goFlags += string(f)
		case f != 'q' && f != 'x':
			return nil, fmt.Errorf("sparql: invalid regex flag %q", f)
		}
	}
	switch {
	case strings.ContainsRune(flags, 'q'):
		pattern = regexp.QuoteMeta(pattern)
	case strings.ContainsRune(flags, 'x'):
		pattern = stripRegexSpace(pattern)
	}
	if goFlags != "" {
		pattern = "(?" + goFlags + ")" + pattern
	}
	re, err := regexp.Compile(pattern)
	if err != nil {
		return nil, err
	}
	if regexCacheLen.Load() < regexCacheMax {
		if _, loaded := regexCache.LoadOrStore(key, re); !loaded {
			regexCacheLen.Add(1)
		}
	}
	return re, nil
}

// stripRegexSpace applies the XPath x flag: whitespace (tab, newline,
// carriage return, space) is removed except inside character classes.
func stripRegexSpace(p string) string {
	var b strings.Builder
	depth, escaped := 0, false
	for _, r := range p {
		if depth == 0 && strings.ContainsRune(" \t\n\r", r) {
			continue
		}
		b.WriteRune(r)
		switch {
		case escaped:
			escaped = false
		case r == '\\':
			escaped = true
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		}
	}
	return b.String()
}

func numericUnary(t rdf.Term, f func(float64) float64) (rdf.Term, error) {
	v, ok := t.Float()
	if !ok {
		return rdf.Term{}, errUnbound
	}
	r := f(v)
	if t.Datatype == rdf.XSDInteger {
		return rdf.NewInt(int64(r)), nil
	}
	return rdf.NewFloat(r), nil
}

// stringResult preserves the language tag of the first argument per the
// SPARQL string-function rules.
func stringResult(s string, like rdf.Term) rdf.Term {
	if like.Lang != "" {
		return rdf.NewLangLiteral(s, like.Lang)
	}
	return rdf.NewLiteral(s)
}

func boolTerm(b bool) rdf.Term {
	if b {
		return rdf.TrueLiteral
	}
	return rdf.FalseLiteral
}

// ebvOf computes the effective boolean value of an expression.
func ebvOf(e Expression, ec *evalContext, r idRow) (bool, error) {
	v, err := e.Eval(ec, r)
	if err != nil {
		return false, err
	}
	return ebv(v)
}

// ebv implements SPARQL effective boolean value coercion.
func ebv(t rdf.Term) (bool, error) {
	if !t.IsLiteral() {
		return false, errUnbound
	}
	if b, ok := t.Bool(); ok {
		return b, nil
	}
	if f, ok := t.Float(); ok {
		return f != 0 && !math.IsNaN(f), nil
	}
	if t.Datatype == "" || t.Datatype == rdf.XSDString || t.Lang != "" {
		return t.Value != "", nil
	}
	return false, errUnbound
}

// termsEqual implements SPARQL "=" semantics: numeric comparison for
// numerics, value equality for booleans and strings, term equality for
// IRIs/blanks; comparing two incompatible literal types is an error.
func termsEqual(a, b rdf.Term) (bool, error) {
	if a == b {
		return true, nil
	}
	if a.IsLiteral() && b.IsLiteral() {
		if fa, ok := a.Float(); ok {
			if fb, ok2 := b.Float(); ok2 {
				return fa == fb, nil
			}
		}
		if ba, ok := a.Bool(); ok {
			if bb, ok2 := b.Bool(); ok2 {
				return ba == bb, nil
			}
		}
		if isPlainString(a) && isPlainString(b) {
			return a.Value == b.Value && a.Lang == b.Lang, nil
		}
		// Unknown datatype combinations with identical lexical forms were
		// caught by a == b above; different forms are errors per spec, but
		// returning false is more useful for this engine's closed world.
		return false, nil
	}
	return false, nil
}

func isPlainString(t rdf.Term) bool {
	return t.Datatype == "" || t.Datatype == rdf.XSDString || t.Lang != ""
}

// orderCompare compares two terms for <, >, ORDER BY: numeric, string, or
// boolean comparisons when compatible, otherwise the global term order.
func orderCompare(a, b rdf.Term) (int, error) {
	if a.IsLiteral() && b.IsLiteral() {
		if fa, ok := a.Float(); ok {
			if fb, ok2 := b.Float(); ok2 {
				switch {
				case fa < fb:
					return -1, nil
				case fa > fb:
					return 1, nil
				default:
					return 0, nil
				}
			}
		}
		if isPlainString(a) && isPlainString(b) {
			return strings.Compare(a.Value, b.Value), nil
		}
		if ba, ok := a.Bool(); ok {
			if bb, ok2 := b.Bool(); ok2 {
				switch {
				case !ba && bb:
					return -1, nil
				case ba && !bb:
					return 1, nil
				default:
					return 0, nil
				}
			}
		}
		return 0, errUnbound
	}
	if a.IsIRI() && b.IsIRI() {
		return strings.Compare(a.Value, b.Value), nil
	}
	return 0, errUnbound
}
