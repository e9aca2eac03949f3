// Package eval implements the semantics of Cypher expressions,
// [[expr]]_{G,u} in Section 4.3 of the paper: given a graph, a record u
// binding names to values, and query parameters, an expression denotes a
// value. The package also provides the aggregation functions used by WITH
// and RETURN.
package eval

import (
	"errors"
	"fmt"
	"regexp"
	"strings"

	"repro/internal/ast"
	"repro/internal/result"
	"repro/internal/value"
)

// ErrUnknownVariable is returned when an expression references a name that is
// not bound in the current record.
var ErrUnknownVariable = errors.New("eval: unknown variable")

// ErrUnknownParameter is returned when a query parameter was not supplied.
var ErrUnknownParameter = errors.New("eval: missing query parameter")

// ErrTypeError is returned when an expression is applied to a value of the
// wrong type.
var ErrTypeError = errors.New("eval: type error")

// ErrAggregateHere is returned when an aggregating function appears in a
// context where aggregation is not possible (e.g. inside WHERE).
var ErrAggregateHere = errors.New("eval: aggregation is not allowed in this context")

// PatternPredicateFunc checks whether a pattern predicate (a path pattern
// used as a boolean expression) has at least one match under the given
// record. The execution engine injects its matcher here to avoid an import
// cycle.
type PatternPredicateFunc func(part ast.PatternPart, rec result.Record) (bool, error)

// Context carries everything an expression may need: query parameters and
// the pattern-predicate hook. The graph itself is reached through the node
// and relationship values bound in records.
type Context struct {
	Params           map[string]value.Value
	PatternPredicate PatternPredicateFunc
}

// Evaluate computes the value of the expression under the record.
func (c *Context) Evaluate(e ast.Expr, rec result.Record) (value.Value, error) {
	switch x := e.(type) {
	case *ast.Literal:
		return x.Value, nil
	case *ast.Variable:
		if !rec.Has(x.Name) {
			return nil, fmt.Errorf("%w: %s", ErrUnknownVariable, x.Name)
		}
		return rec.Get(x.Name), nil
	case *ast.Parameter:
		if v, ok := c.Params[x.Name]; ok {
			return v, nil
		}
		return nil, fmt.Errorf("%w: $%s", ErrUnknownParameter, x.Name)
	case *ast.PropertyAccess:
		return c.evalPropertyAccess(x, rec)
	case *ast.ListLiteral:
		elems := make([]value.Value, len(x.Elems))
		for i, el := range x.Elems {
			v, err := c.Evaluate(el, rec)
			if err != nil {
				return nil, err
			}
			elems[i] = v
		}
		return value.NewListOf(elems), nil
	case *ast.MapLiteral:
		entries := make(map[string]value.Value, len(x.Keys))
		for i, k := range x.Keys {
			v, err := c.Evaluate(x.Values[i], rec)
			if err != nil {
				return nil, err
			}
			entries[k] = v
		}
		return value.NewMap(entries), nil
	case *ast.Index:
		return c.evalIndex(x, rec)
	case *ast.Slice:
		return c.evalSlice(x, rec)
	case *ast.BinaryOp:
		return c.evalBinary(x, rec)
	case *ast.UnaryOp:
		return c.evalUnary(x, rec)
	case *ast.IsNull:
		v, err := c.Evaluate(x.Operand, rec)
		if err != nil {
			return nil, err
		}
		isNull := value.IsNull(v)
		if x.Negated {
			return value.NewBool(!isNull), nil
		}
		return value.NewBool(isNull), nil
	case *ast.HasLabels:
		return c.evalHasLabels(x, rec)
	case *ast.FunctionCall:
		return c.evalFunction(x, rec)
	case *ast.CountStar:
		return nil, fmt.Errorf("%w: count(*)", ErrAggregateHere)
	case *ast.Case:
		return c.evalCase(x, rec)
	case *ast.ListComprehension:
		return c.evalListComprehension(x, rec)
	case *ast.Reduce:
		return c.evalReduce(x, rec)
	case *ast.PatternPredicate:
		if c.PatternPredicate == nil {
			return nil, errors.New("eval: pattern predicates are not supported in this context")
		}
		ok, err := c.PatternPredicate(x.Pattern, rec)
		if err != nil {
			return nil, err
		}
		return value.NewBool(ok), nil
	default:
		return nil, fmt.Errorf("eval: unsupported expression %T", e)
	}
}

// EvaluateTruth evaluates the expression as a WHERE predicate: only a result
// of true passes (false and null both reject), per Figure 7.
func (c *Context) EvaluateTruth(e ast.Expr, rec result.Record) (bool, error) {
	v, err := c.Evaluate(e, rec)
	if err != nil {
		return false, err
	}
	return value.TernaryOf(v) == value.TrueT, nil
}

func (c *Context) evalPropertyAccess(x *ast.PropertyAccess, rec result.Record) (value.Value, error) {
	subject, err := c.Evaluate(x.Subject, rec)
	if err != nil {
		return nil, err
	}
	return PropertyOf(subject, x.Key)
}

// PropertyOf implements `subject.key` for nodes, relationships, maps and
// null.
func PropertyOf(subject value.Value, key string) (value.Value, error) {
	switch {
	case value.IsNull(subject):
		return value.Null(), nil
	case subject.Kind() == value.KindNode:
		n, _ := value.AsNode(subject)
		return n.Property(key), nil
	case subject.Kind() == value.KindRelationship:
		r, _ := value.AsRelationship(subject)
		return r.Property(key), nil
	case subject.Kind() == value.KindMap:
		m, _ := value.AsMap(subject)
		if v, ok := m.Get(key); ok {
			return v, nil
		}
		return value.Null(), nil
	default:
		return nil, fmt.Errorf("%w: cannot access property %q of a %s", ErrTypeError, key, subject.Kind())
	}
}

func (c *Context) evalIndex(x *ast.Index, rec result.Record) (value.Value, error) {
	subject, err := c.Evaluate(x.Subject, rec)
	if err != nil {
		return nil, err
	}
	idx, err := c.Evaluate(x.Idx, rec)
	if err != nil {
		return nil, err
	}
	if value.IsNull(subject) || value.IsNull(idx) {
		return value.Null(), nil
	}
	switch subject.Kind() {
	case value.KindList:
		l, _ := value.AsList(subject)
		i, ok := value.AsInt(idx)
		if !ok {
			return nil, fmt.Errorf("%w: list index must be an integer, got %s", ErrTypeError, idx.Kind())
		}
		n := int64(l.Len())
		if i < 0 {
			i += n
		}
		if i < 0 || i >= n {
			return value.Null(), nil
		}
		return l.At(int(i)), nil
	case value.KindMap:
		m, _ := value.AsMap(subject)
		k, ok := value.AsString(idx)
		if !ok {
			return nil, fmt.Errorf("%w: map index must be a string, got %s", ErrTypeError, idx.Kind())
		}
		if v, present := m.Get(k); present {
			return v, nil
		}
		return value.Null(), nil
	case value.KindNode:
		n, _ := value.AsNode(subject)
		k, ok := value.AsString(idx)
		if !ok {
			return nil, fmt.Errorf("%w: property index must be a string", ErrTypeError)
		}
		return n.Property(k), nil
	case value.KindRelationship:
		r, _ := value.AsRelationship(subject)
		k, ok := value.AsString(idx)
		if !ok {
			return nil, fmt.Errorf("%w: property index must be a string", ErrTypeError)
		}
		return r.Property(k), nil
	default:
		return nil, fmt.Errorf("%w: cannot index a %s", ErrTypeError, subject.Kind())
	}
}

func (c *Context) evalSlice(x *ast.Slice, rec result.Record) (value.Value, error) {
	subject, err := c.Evaluate(x.Subject, rec)
	if err != nil {
		return nil, err
	}
	if value.IsNull(subject) {
		return value.Null(), nil
	}
	l, ok := value.AsList(subject)
	if !ok {
		return nil, fmt.Errorf("%w: cannot slice a %s", ErrTypeError, subject.Kind())
	}
	n := int64(l.Len())
	from, to := int64(0), n
	if x.From != nil {
		fv, err := c.Evaluate(x.From, rec)
		if err != nil {
			return nil, err
		}
		if value.IsNull(fv) {
			return value.Null(), nil
		}
		i, ok := value.AsInt(fv)
		if !ok {
			return nil, fmt.Errorf("%w: slice bound must be an integer", ErrTypeError)
		}
		from = i
	}
	if x.To != nil {
		tv, err := c.Evaluate(x.To, rec)
		if err != nil {
			return nil, err
		}
		if value.IsNull(tv) {
			return value.Null(), nil
		}
		i, ok := value.AsInt(tv)
		if !ok {
			return nil, fmt.Errorf("%w: slice bound must be an integer", ErrTypeError)
		}
		to = i
	}
	if from < 0 {
		from += n
	}
	if to < 0 {
		to += n
	}
	from = clamp(from, 0, n)
	to = clamp(to, 0, n)
	if from >= to {
		return value.NewList(), nil
	}
	elems := make([]value.Value, 0, to-from)
	for i := from; i < to; i++ {
		elems = append(elems, l.At(int(i)))
	}
	return value.NewListOf(elems), nil
}

func clamp(x, lo, hi int64) int64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

func (c *Context) evalBinary(x *ast.BinaryOp, rec result.Record) (value.Value, error) {
	// Logical connectives use three-valued logic over both operands.
	switch x.Op {
	case ast.OpAnd, ast.OpOr, ast.OpXor:
		lv, err := c.Evaluate(x.LHS, rec)
		if err != nil {
			return nil, err
		}
		rv, err := c.Evaluate(x.RHS, rec)
		if err != nil {
			return nil, err
		}
		lt, rt := value.TernaryOf(lv), value.TernaryOf(rv)
		switch x.Op {
		case ast.OpAnd:
			return value.And(lt, rt).ToValue(), nil
		case ast.OpOr:
			return value.Or(lt, rt).ToValue(), nil
		default:
			return value.Xor(lt, rt).ToValue(), nil
		}
	}

	lv, err := c.Evaluate(x.LHS, rec)
	if err != nil {
		return nil, err
	}
	rv, err := c.Evaluate(x.RHS, rec)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case ast.OpAdd:
		return value.Add(lv, rv)
	case ast.OpSub:
		return value.Sub(lv, rv)
	case ast.OpMul:
		return value.Mul(lv, rv)
	case ast.OpDiv:
		return value.Div(lv, rv)
	case ast.OpMod:
		return value.Mod(lv, rv)
	case ast.OpPow:
		return value.Pow(lv, rv)
	case ast.OpEq:
		return value.Equals(lv, rv).ToValue(), nil
	case ast.OpNeq:
		return value.Not(value.Equals(lv, rv)).ToValue(), nil
	case ast.OpLt:
		return value.Less(lv, rv).ToValue(), nil
	case ast.OpLe:
		return value.LessEq(lv, rv).ToValue(), nil
	case ast.OpGt:
		return value.Greater(lv, rv).ToValue(), nil
	case ast.OpGe:
		return value.GreaterEq(lv, rv).ToValue(), nil
	case ast.OpIn:
		return evalIn(lv, rv)
	case ast.OpStartsWith, ast.OpEndsWith, ast.OpContains:
		return evalStringPredicate(x.Op, lv, rv)
	case ast.OpRegexMatch:
		return evalRegex(lv, rv)
	default:
		return nil, fmt.Errorf("eval: unsupported binary operator %v", x.Op)
	}
}

func evalIn(needle, haystack value.Value) (value.Value, error) {
	if value.IsNull(haystack) {
		return value.Null(), nil
	}
	l, ok := value.AsList(haystack)
	if !ok {
		return nil, fmt.Errorf("%w: IN requires a list, got %s", ErrTypeError, haystack.Kind())
	}
	sawUnknown := false
	for _, el := range l.Elements() {
		switch value.Equals(needle, el) {
		case value.TrueT:
			return value.NewBool(true), nil
		case value.UnknownT:
			sawUnknown = true
		}
	}
	if sawUnknown || value.IsNull(needle) {
		return value.Null(), nil
	}
	return value.NewBool(false), nil
}

func evalStringPredicate(op ast.BinaryOperator, lv, rv value.Value) (value.Value, error) {
	if value.IsNull(lv) || value.IsNull(rv) {
		return value.Null(), nil
	}
	ls, lok := value.AsString(lv)
	rs, rok := value.AsString(rv)
	if !lok || !rok {
		// Non-string operands make the predicate null (consistent with
		// openCypher's lenient treatment).
		return value.Null(), nil
	}
	switch op {
	case ast.OpStartsWith:
		return value.NewBool(strings.HasPrefix(ls, rs)), nil
	case ast.OpEndsWith:
		return value.NewBool(strings.HasSuffix(ls, rs)), nil
	default:
		return value.NewBool(strings.Contains(ls, rs)), nil
	}
}

func evalRegex(lv, rv value.Value) (value.Value, error) {
	if value.IsNull(lv) || value.IsNull(rv) {
		return value.Null(), nil
	}
	ls, lok := value.AsString(lv)
	rs, rok := value.AsString(rv)
	if !lok || !rok {
		return value.Null(), nil
	}
	re, err := regexp.Compile("^(?:" + rs + ")$")
	if err != nil {
		return nil, fmt.Errorf("eval: invalid regular expression %q: %v", rs, err)
	}
	return value.NewBool(re.MatchString(ls)), nil
}

func (c *Context) evalUnary(x *ast.UnaryOp, rec result.Record) (value.Value, error) {
	v, err := c.Evaluate(x.Operand, rec)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case ast.OpNot:
		return value.Not(value.TernaryOf(v)).ToValue(), nil
	case ast.OpNeg:
		return value.Neg(v)
	default: // OpPos
		if value.IsNull(v) || value.IsNumber(v) {
			return v, nil
		}
		return nil, fmt.Errorf("%w: unary + requires a number", ErrTypeError)
	}
}

func (c *Context) evalHasLabels(x *ast.HasLabels, rec result.Record) (value.Value, error) {
	subject, err := c.Evaluate(x.Subject, rec)
	if err != nil {
		return nil, err
	}
	if value.IsNull(subject) {
		return value.Null(), nil
	}
	n, ok := value.AsNode(subject)
	if !ok {
		return nil, fmt.Errorf("%w: label predicate requires a node, got %s", ErrTypeError, subject.Kind())
	}
	for _, l := range x.Labels {
		if !n.HasLabel(l) {
			return value.NewBool(false), nil
		}
	}
	return value.NewBool(true), nil
}

func (c *Context) evalCase(x *ast.Case, rec result.Record) (value.Value, error) {
	if x.Test != nil {
		test, err := c.Evaluate(x.Test, rec)
		if err != nil {
			return nil, err
		}
		for _, alt := range x.Alternatives {
			w, err := c.Evaluate(alt.When, rec)
			if err != nil {
				return nil, err
			}
			if value.Equals(test, w) == value.TrueT {
				return c.Evaluate(alt.Then, rec)
			}
		}
	} else {
		for _, alt := range x.Alternatives {
			ok, err := c.EvaluateTruth(alt.When, rec)
			if err != nil {
				return nil, err
			}
			if ok {
				return c.Evaluate(alt.Then, rec)
			}
		}
	}
	if x.Else != nil {
		return c.Evaluate(x.Else, rec)
	}
	return value.Null(), nil
}

func (c *Context) evalListComprehension(x *ast.ListComprehension, rec result.Record) (value.Value, error) {
	listVal, err := c.Evaluate(x.List, rec)
	if err != nil {
		return nil, err
	}
	if value.IsNull(listVal) {
		return value.Null(), nil
	}
	l, ok := value.AsList(listVal)
	if !ok {
		return nil, fmt.Errorf("%w: list comprehension requires a list, got %s", ErrTypeError, listVal.Kind())
	}
	var out []value.Value
	for _, el := range l.Elements() {
		inner := rec.Extended(x.Variable, el)
		if x.Where != nil {
			ok, err := c.EvaluateTruth(x.Where, inner)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		if x.Projection != nil {
			v, err := c.Evaluate(x.Projection, inner)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		} else {
			out = append(out, el)
		}
	}
	return value.NewListOf(out), nil
}

// evalReduce folds a list: the accumulator starts at Init and is rebound to
// Expr for each element. A null list yields null, as elsewhere.
func (c *Context) evalReduce(x *ast.Reduce, rec result.Record) (value.Value, error) {
	acc, err := c.Evaluate(x.Init, rec)
	if err != nil {
		return nil, err
	}
	listVal, err := c.Evaluate(x.List, rec)
	if err != nil {
		return nil, err
	}
	if value.IsNull(listVal) {
		return value.Null(), nil
	}
	l, ok := value.AsList(listVal)
	if !ok {
		return nil, fmt.Errorf("%w: reduce requires a list, got %s", ErrTypeError, listVal.Kind())
	}
	for _, el := range l.Elements() {
		inner := rec.Extended(x.Accumulator, acc).Extended(x.Variable, el)
		acc, err = c.Evaluate(x.Expr, inner)
		if err != nil {
			return nil, err
		}
	}
	return acc, nil
}

func (c *Context) evalFunction(x *ast.FunctionCall, rec result.Record) (value.Value, error) {
	if IsAggregate(x.Name) {
		return nil, fmt.Errorf("%w: %s(...)", ErrAggregateHere, x.Name)
	}
	f, ok := scalarFunctions[x.Name]
	if !ok {
		return nil, fmt.Errorf("eval: unknown function %q", x.Name)
	}
	if err := ArityError(x.Name, f.arity, len(x.Args)); err != nil {
		return nil, fmt.Errorf("eval: %w", err)
	}
	args := make([]value.Value, len(x.Args))
	for i, a := range x.Args {
		v, err := c.Evaluate(a, rec)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	return f.fn(args)
}

// ContainsAggregate reports whether the expression contains an aggregating
// function call (count, collect, sum, ...), which determines whether a WITH
// or RETURN projection performs grouping.
func ContainsAggregate(e ast.Expr) bool {
	found := false
	WalkExpr(e, func(sub ast.Expr) {
		switch f := sub.(type) {
		case *ast.FunctionCall:
			if IsAggregate(f.Name) {
				found = true
			}
		case *ast.CountStar:
			found = true
		}
	})
	return found
}

// WalkExpr visits every sub-expression of e (including e itself) in
// depth-first order.
func WalkExpr(e ast.Expr, visit func(ast.Expr)) {
	if e == nil {
		return
	}
	visit(e)
	switch x := e.(type) {
	case *ast.PropertyAccess:
		WalkExpr(x.Subject, visit)
	case *ast.ListLiteral:
		for _, el := range x.Elems {
			WalkExpr(el, visit)
		}
	case *ast.MapLiteral:
		for _, v := range x.Values {
			WalkExpr(v, visit)
		}
	case *ast.Index:
		WalkExpr(x.Subject, visit)
		WalkExpr(x.Idx, visit)
	case *ast.Slice:
		WalkExpr(x.Subject, visit)
		WalkExpr(x.From, visit)
		WalkExpr(x.To, visit)
	case *ast.BinaryOp:
		WalkExpr(x.LHS, visit)
		WalkExpr(x.RHS, visit)
	case *ast.UnaryOp:
		WalkExpr(x.Operand, visit)
	case *ast.IsNull:
		WalkExpr(x.Operand, visit)
	case *ast.HasLabels:
		WalkExpr(x.Subject, visit)
	case *ast.FunctionCall:
		for _, a := range x.Args {
			WalkExpr(a, visit)
		}
	case *ast.Case:
		WalkExpr(x.Test, visit)
		for _, alt := range x.Alternatives {
			WalkExpr(alt.When, visit)
			WalkExpr(alt.Then, visit)
		}
		WalkExpr(x.Else, visit)
	case *ast.ListComprehension:
		WalkExpr(x.List, visit)
		WalkExpr(x.Where, visit)
		WalkExpr(x.Projection, visit)
	case *ast.Reduce:
		WalkExpr(x.Init, visit)
		WalkExpr(x.List, visit)
		WalkExpr(x.Expr, visit)
	}
}

// Variables returns the names of all free variables referenced by the
// expression (list-comprehension variables are bound locally and excluded).
func Variables(e ast.Expr) []string {
	bound := map[string]bool{}
	var out []string
	seen := map[string]bool{}
	var walk func(ast.Expr)
	walk = func(sub ast.Expr) {
		switch x := sub.(type) {
		case nil:
			return
		case *ast.Variable:
			if !bound[x.Name] && !seen[x.Name] {
				seen[x.Name] = true
				out = append(out, x.Name)
			}
		case *ast.ListComprehension:
			walk(x.List)
			prev := bound[x.Variable]
			bound[x.Variable] = true
			walk(x.Where)
			walk(x.Projection)
			bound[x.Variable] = prev
		case *ast.Reduce:
			walk(x.Init)
			walk(x.List)
			prevAcc, prevVar := bound[x.Accumulator], bound[x.Variable]
			bound[x.Accumulator], bound[x.Variable] = true, true
			walk(x.Expr)
			bound[x.Accumulator], bound[x.Variable] = prevAcc, prevVar
		case *ast.PatternPredicate:
			for _, v := range x.Pattern.Variables() {
				if !bound[v] && !seen[v] {
					seen[v] = true
					out = append(out, v)
				}
			}
			for _, np := range x.Pattern.Nodes {
				if np.Properties != nil {
					walk(np.Properties)
				}
			}
			for _, rp := range x.Pattern.Rels {
				if rp.Properties != nil {
					walk(rp.Properties)
				}
			}
		case *ast.PropertyAccess:
			walk(x.Subject)
		case *ast.ListLiteral:
			for _, el := range x.Elems {
				walk(el)
			}
		case *ast.MapLiteral:
			for _, v := range x.Values {
				walk(v)
			}
		case *ast.Index:
			walk(x.Subject)
			walk(x.Idx)
		case *ast.Slice:
			walk(x.Subject)
			walk(x.From)
			walk(x.To)
		case *ast.BinaryOp:
			walk(x.LHS)
			walk(x.RHS)
		case *ast.UnaryOp:
			walk(x.Operand)
		case *ast.IsNull:
			walk(x.Operand)
		case *ast.HasLabels:
			walk(x.Subject)
		case *ast.FunctionCall:
			for _, a := range x.Args {
				walk(a)
			}
		case *ast.Case:
			walk(x.Test)
			for _, alt := range x.Alternatives {
				walk(alt.When)
				walk(alt.Then)
			}
			walk(x.Else)
		}
	}
	walk(e)
	return out
}
