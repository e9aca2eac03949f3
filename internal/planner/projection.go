package planner

import (
	"fmt"
	"slices"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/plan"
)

// planProjection compiles a WITH or RETURN clause. It returns the resulting
// operator and the declared output column names (which become the new scope
// for WITH and the result columns for RETURN). where is the WITH ... WHERE
// predicate (nil for RETURN).
func (p *Planner) planProjection(input plan.Operator, proj ast.Projection, sc *scope, where ast.Expr) (plan.Operator, []string, error) {
	items, err := p.expandStar(proj, sc)
	if err != nil {
		return nil, nil, err
	}
	var columns []string
	seen := map[string]bool{}
	for _, it := range items {
		name := it.Name()
		if seen[name] {
			return nil, nil, fmt.Errorf("planner: duplicate column name %q in projection", name)
		}
		seen[name] = true
		columns = append(columns, name)
	}

	hasAggregate := false
	for _, it := range items {
		if eval.ContainsAggregate(it.Expr) {
			hasAggregate = true
			break
		}
	}

	var op plan.Operator
	switch {
	case hasAggregate:
		op, err = p.planAggregation(input, items, sc)
		if err != nil {
			return nil, nil, err
		}
		op = &plan.SelectColumns{Input: op, Columns: columns}
		if proj.Distinct {
			op = &plan.Distinct{Input: op, Columns: columns}
		}
	case proj.Distinct:
		for _, it := range items {
			if err := p.checkVariables(it.Expr, sc); err != nil {
				return nil, nil, err
			}
		}
		op = &plan.Project{Input: input, Items: projectionItems(items)}
		op = &plan.SelectColumns{Input: op, Columns: columns}
		op = &plan.Distinct{Input: op, Columns: columns}
	default:
		for _, it := range items {
			if err := p.checkVariables(it.Expr, sc); err != nil {
				return nil, nil, err
			}
		}
		op = &plan.Project{Input: input, Items: projectionItems(items)}
	}

	if len(proj.OrderBy) > 0 {
		keys := make([]plan.SortKey, len(proj.OrderBy))
		for i, s := range proj.OrderBy {
			keys[i] = plan.SortKey{Expr: s.Expr, Descending: s.Descending}
		}
		op = &plan.Sort{Input: op, Keys: keys}
	}
	if proj.Skip != nil {
		op = &plan.Skip{Input: op, Count: proj.Skip}
	}
	if proj.Limit != nil {
		op = &plan.Limit{Input: op, Count: proj.Limit}
	}
	// The scope cut: only the declared columns survive (for the plain
	// non-aggregated case this also prunes the pre-projection variables that
	// ORDER BY was still allowed to see). An aggregating projection with
	// nothing after it already ends in the same cut.
	if sel, ok := op.(*plan.SelectColumns); !ok || !slices.Equal(sel.Columns, columns) {
		op = &plan.SelectColumns{Input: op, Columns: columns}
	}
	if where != nil {
		whereScope := newScope()
		for _, c := range columns {
			whereScope.add(c)
		}
		if err := p.checkVariables(where, whereScope); err != nil {
			return nil, nil, err
		}
		op = &plan.Filter{Input: op, Predicate: where}
	}
	return op, columns, nil
}

// expandStar resolves `*` projections into one item per variable in scope.
func (p *Planner) expandStar(proj ast.Projection, sc *scope) ([]ast.ReturnItem, error) {
	if !proj.Star {
		return proj.Items, nil
	}
	if len(sc.names) == 0 {
		return nil, fmt.Errorf("planner: RETURN * is not allowed when there are no variables in scope")
	}
	var items []ast.ReturnItem
	for _, name := range sc.names {
		items = append(items, ast.ReturnItem{Expr: &ast.Variable{Name: name}})
	}
	return append(items, proj.Items...), nil
}

func projectionItems(items []ast.ReturnItem) []plan.ProjectionItem {
	out := make([]plan.ProjectionItem, len(items))
	for i, it := range items {
		out[i] = plan.ProjectionItem{Name: it.Name(), Expr: it.Expr}
	}
	return out
}

// planAggregation compiles a projection that contains aggregating functions:
// the non-aggregating items become grouping keys (as in the paper's WITH
// example, where `r` acts as the implicit grouping key for count(s)), and
// every aggregate sub-expression is computed by an Aggregate operator; a
// final Project reassembles items that mix aggregates with other arithmetic.
func (p *Planner) planAggregation(input plan.Operator, items []ast.ReturnItem, sc *scope) (plan.Operator, error) {
	agg := &plan.Aggregate{Input: input}
	var postItems []plan.ProjectionItem
	aggCounter := 0

	for _, it := range items {
		name := it.Name()
		if !eval.ContainsAggregate(it.Expr) {
			if err := p.checkVariables(it.Expr, sc); err != nil {
				return nil, err
			}
			agg.Grouping = append(agg.Grouping, plan.ProjectionItem{Name: name, Expr: it.Expr})
			postItems = append(postItems, plan.ProjectionItem{Name: name, Expr: &ast.Variable{Name: name}})
			continue
		}
		if err := p.checkVariables(it.Expr, sc); err != nil {
			return nil, err
		}
		rewritten, aggItems, err := rewriteAggregates(it.Expr, &aggCounter)
		if err != nil {
			return nil, err
		}
		agg.Aggregations = append(agg.Aggregations, aggItems...)
		postItems = append(postItems, plan.ProjectionItem{Name: name, Expr: rewritten})
	}
	return &plan.Project{Input: agg, Items: postItems}, nil
}

// rewriteAggregates replaces every aggregate call in the expression with a
// reference to a generated column computed by the Aggregate operator.
func rewriteAggregates(e ast.Expr, counter *int) (ast.Expr, []plan.AggregationItem, error) {
	var items []plan.AggregationItem
	newExpr, err := rewriteExpr(e, func(sub ast.Expr) (ast.Expr, bool, error) {
		switch f := sub.(type) {
		case *ast.CountStar:
			*counter++
			name := fmt.Sprintf("  agg#%d", *counter)
			items = append(items, plan.AggregationItem{Name: name, Func: "count"})
			return &ast.Variable{Name: name}, true, nil
		case *ast.FunctionCall:
			if !eval.IsAggregate(f.Name) {
				return nil, false, nil
			}
			if len(f.Args) != 1 {
				return nil, false, fmt.Errorf("planner: %s(...) expects exactly one argument", f.Name)
			}
			if eval.ContainsAggregate(f.Args[0]) {
				return nil, false, fmt.Errorf("planner: aggregating functions cannot be nested")
			}
			*counter++
			name := fmt.Sprintf("  agg#%d", *counter)
			items = append(items, plan.AggregationItem{Name: name, Func: f.Name, Distinct: f.Distinct, Arg: f.Args[0]})
			return &ast.Variable{Name: name}, true, nil
		}
		return nil, false, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return newExpr, items, nil
}

// rewriteExpr rebuilds an expression tree, replacing sub-expressions for
// which replace returns a substitute.
func rewriteExpr(e ast.Expr, replace func(ast.Expr) (ast.Expr, bool, error)) (ast.Expr, error) {
	if e == nil {
		return nil, nil
	}
	if sub, ok, err := replace(e); err != nil {
		return nil, err
	} else if ok {
		return sub, nil
	}
	rw := func(x ast.Expr) (ast.Expr, error) { return rewriteExpr(x, replace) }
	switch x := e.(type) {
	case *ast.PropertyAccess:
		s, err := rw(x.Subject)
		if err != nil {
			return nil, err
		}
		return &ast.PropertyAccess{Subject: s, Key: x.Key}, nil
	case *ast.ListLiteral:
		out := &ast.ListLiteral{}
		for _, el := range x.Elems {
			ne, err := rw(el)
			if err != nil {
				return nil, err
			}
			out.Elems = append(out.Elems, ne)
		}
		return out, nil
	case *ast.MapLiteral:
		out := &ast.MapLiteral{Keys: x.Keys}
		for _, v := range x.Values {
			nv, err := rw(v)
			if err != nil {
				return nil, err
			}
			out.Values = append(out.Values, nv)
		}
		return out, nil
	case *ast.Index:
		s, err := rw(x.Subject)
		if err != nil {
			return nil, err
		}
		i, err := rw(x.Idx)
		if err != nil {
			return nil, err
		}
		return &ast.Index{Subject: s, Idx: i}, nil
	case *ast.Slice:
		s, err := rw(x.Subject)
		if err != nil {
			return nil, err
		}
		from, err := rw(x.From)
		if err != nil {
			return nil, err
		}
		to, err := rw(x.To)
		if err != nil {
			return nil, err
		}
		return &ast.Slice{Subject: s, From: from, To: to}, nil
	case *ast.BinaryOp:
		l, err := rw(x.LHS)
		if err != nil {
			return nil, err
		}
		r, err := rw(x.RHS)
		if err != nil {
			return nil, err
		}
		return &ast.BinaryOp{Op: x.Op, LHS: l, RHS: r}, nil
	case *ast.UnaryOp:
		o, err := rw(x.Operand)
		if err != nil {
			return nil, err
		}
		return &ast.UnaryOp{Op: x.Op, Operand: o}, nil
	case *ast.IsNull:
		o, err := rw(x.Operand)
		if err != nil {
			return nil, err
		}
		return &ast.IsNull{Operand: o, Negated: x.Negated}, nil
	case *ast.HasLabels:
		s, err := rw(x.Subject)
		if err != nil {
			return nil, err
		}
		return &ast.HasLabels{Subject: s, Labels: x.Labels}, nil
	case *ast.FunctionCall:
		out := &ast.FunctionCall{Name: x.Name, Distinct: x.Distinct}
		for _, a := range x.Args {
			na, err := rw(a)
			if err != nil {
				return nil, err
			}
			out.Args = append(out.Args, na)
		}
		return out, nil
	case *ast.Case:
		test, err := rw(x.Test)
		if err != nil {
			return nil, err
		}
		out := &ast.Case{Test: test}
		for _, alt := range x.Alternatives {
			w, err := rw(alt.When)
			if err != nil {
				return nil, err
			}
			th, err := rw(alt.Then)
			if err != nil {
				return nil, err
			}
			out.Alternatives = append(out.Alternatives, ast.CaseAlternative{When: w, Then: th})
		}
		els, err := rw(x.Else)
		if err != nil {
			return nil, err
		}
		out.Else = els
		return out, nil
	case *ast.ListComprehension:
		list, err := rw(x.List)
		if err != nil {
			return nil, err
		}
		where, err := rw(x.Where)
		if err != nil {
			return nil, err
		}
		proj, err := rw(x.Projection)
		if err != nil {
			return nil, err
		}
		return &ast.ListComprehension{Variable: x.Variable, List: list, Where: where, Projection: proj}, nil
	case *ast.Reduce:
		init, err := rw(x.Init)
		if err != nil {
			return nil, err
		}
		list, err := rw(x.List)
		if err != nil {
			return nil, err
		}
		expr, err := rw(x.Expr)
		if err != nil {
			return nil, err
		}
		return &ast.Reduce{Accumulator: x.Accumulator, Init: init, Variable: x.Variable, List: list, Expr: expr}, nil
	default:
		return e, nil
	}
}

// planCreate compiles a CREATE clause; the pattern's variables become bound.
func (p *Planner) planCreate(input plan.Operator, c *ast.Create, sc *scope) (plan.Operator, error) {
	for _, part := range c.Pattern.Parts {
		for i, np := range part.Nodes {
			if np.Properties != nil {
				for _, v := range np.Properties.Values {
					if err := p.checkVariables(v, sc); err != nil {
						return nil, err
					}
				}
			}
			_ = i
		}
	}
	op := &plan.CreateOp{Input: input, Pattern: c.Pattern}
	for _, v := range c.Pattern.Variables() {
		sc.add(v)
	}
	return op, nil
}

// planMerge compiles a MERGE clause.
func (p *Planner) planMerge(input plan.Operator, m *ast.Merge, sc *scope) (plan.Operator, error) {
	op := &plan.MergeOp{Input: input, Part: m.Part, OnCreate: m.OnCreate, OnMatch: m.OnMatch}
	for _, v := range m.Part.Variables() {
		sc.add(v)
	}
	return op, nil
}
