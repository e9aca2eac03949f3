// Package semantic performs static checks on parsed queries before they are
// planned: clause ordering, variable scoping rules for the linear query
// structure described in Section 2 of the paper (WITH cuts the scope), and
// the restrictions on updating clauses and aggregation placement.
package semantic

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/eval"
)

// Error is a semantic error.
type Error struct {
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string { return "semantic error: " + e.Msg }

func errorf(format string, args ...any) error {
	return &Error{Msg: fmt.Sprintf(format, args...)}
}

// Check validates the query and returns the first problem found.
func Check(q *ast.Query) error {
	var returnCols []string
	for i, part := range q.Parts {
		cols, err := checkSingleQuery(part)
		if err != nil {
			return err
		}
		if i == 0 {
			returnCols = cols
			continue
		}
		if len(cols) != len(returnCols) {
			return errorf("all sub-queries of a UNION must return the same number of columns")
		}
		for j := range cols {
			if cols[j] != returnCols[j] {
				return errorf("all sub-queries of a UNION must return the same columns (%q vs %q)", returnCols[j], cols[j])
			}
		}
	}
	return nil
}

type scope map[string]bool

func (s scope) names() []string {
	out := make([]string, 0, len(s))
	for n := range s {
		out = append(out, n)
	}
	return out
}

func checkSingleQuery(sq *ast.SingleQuery) ([]string, error) {
	if len(sq.Clauses) == 0 {
		return nil, errorf("a query must contain at least one clause")
	}
	sc := scope{}
	var returnCols []string
	hasUpdate := false
	for i, clause := range sq.Clauses {
		last := i == len(sq.Clauses)-1
		switch c := clause.(type) {
		case *ast.Return:
			if !last {
				return nil, errorf("RETURN can only be used at the end of a query")
			}
			cols, err := checkProjection(c.Projection, sc)
			if err != nil {
				return nil, err
			}
			returnCols = cols
		case *ast.With:
			cols, err := checkProjection(c.Projection, sc)
			if err != nil {
				return nil, err
			}
			if c.Where != nil {
				ws := scope{}
				for _, col := range cols {
					ws[col] = true
				}
				if err := checkExpr(c.Where, ws, false); err != nil {
					return nil, err
				}
			}
			sc = scope{}
			for _, col := range cols {
				sc[col] = true
			}
		case *ast.Match:
			if err := checkPattern(c.Pattern, sc, false); err != nil {
				return nil, err
			}
			for _, v := range c.Pattern.Variables() {
				sc[v] = true
			}
			if c.Where != nil {
				if err := checkExpr(c.Where, sc, false); err != nil {
					return nil, err
				}
			}
		case *ast.Unwind:
			if err := checkExpr(c.Expr, sc, false); err != nil {
				return nil, err
			}
			sc[c.Alias] = true
		case *ast.Create:
			hasUpdate = true
			if err := checkPattern(c.Pattern, sc, true); err != nil {
				return nil, err
			}
			for _, v := range c.Pattern.Variables() {
				sc[v] = true
			}
		case *ast.Merge:
			hasUpdate = true
			if err := checkPattern(ast.Pattern{Parts: []ast.PatternPart{c.Part}}, sc, false); err != nil {
				return nil, err
			}
			for _, items := range [][]ast.SetItem{c.OnCreate, c.OnMatch} {
				for _, item := range items {
					if err := checkFunctions(item.Value); err != nil {
						return nil, err
					}
				}
			}
			for _, v := range c.Part.Variables() {
				sc[v] = true
			}
		case *ast.Delete:
			hasUpdate = true
			for _, e := range c.Exprs {
				if err := checkExpr(e, sc, false); err != nil {
					return nil, err
				}
			}
		case *ast.Set:
			hasUpdate = true
			for _, item := range c.Items {
				if item.Variable != "" && !sc[item.Variable] {
					return nil, errorf("variable `%s` not defined", item.Variable)
				}
				if item.Property != nil {
					if err := checkExpr(item.Property, sc, false); err != nil {
						return nil, err
					}
				}
				if item.Value != nil {
					if err := checkExpr(item.Value, sc, false); err != nil {
						return nil, err
					}
				}
			}
		case *ast.Remove:
			hasUpdate = true
			for _, item := range c.Items {
				if item.Variable != "" && !sc[item.Variable] {
					return nil, errorf("variable `%s` not defined", item.Variable)
				}
				if item.Property != nil {
					if err := checkExpr(item.Property, sc, false); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	lastClause := sq.Clauses[len(sq.Clauses)-1]
	switch lastClause.(type) {
	case *ast.Return, *ast.Create, *ast.Merge, *ast.Delete, *ast.Set, *ast.Remove:
		// fine
	case *ast.With:
		return nil, errorf("query cannot conclude with WITH")
	default:
		if !hasUpdate {
			return nil, errorf("query cannot conclude with %s (must end with RETURN or an update clause)", clauseName(lastClause))
		}
	}
	return returnCols, nil
}

func clauseName(c ast.Clause) string {
	switch c.(type) {
	case *ast.Match:
		return "MATCH"
	case *ast.Unwind:
		return "UNWIND"
	case *ast.With:
		return "WITH"
	default:
		return "this clause"
	}
}

func checkProjection(p ast.Projection, sc scope) ([]string, error) {
	if p.Star && len(sc) == 0 {
		return nil, errorf("RETURN * is not allowed when there are no variables in scope")
	}
	var cols []string
	seen := map[string]bool{}
	if p.Star {
		for _, n := range sc.names() {
			seen[n] = true
		}
		cols = append(cols, sc.names()...)
	}
	hasAgg := false
	for _, it := range p.Items {
		if err := checkExpr(it.Expr, sc, true); err != nil {
			return nil, err
		}
		if eval.ContainsAggregate(it.Expr) {
			hasAgg = true
		}
		name := it.Name()
		if seen[name] {
			return nil, errorf("duplicate column name %q in projection", name)
		}
		seen[name] = true
		cols = append(cols, name)
	}
	for _, s := range p.OrderBy {
		if err := checkFunctions(s.Expr); err != nil {
			return nil, err
		}
		if eval.ContainsAggregate(s.Expr) && !hasAgg {
			return nil, errorf("aggregation in ORDER BY requires an aggregating projection")
		}
	}
	for _, e := range []ast.Expr{p.Skip, p.Limit} {
		if e == nil {
			continue
		}
		if err := checkFunctions(e); err != nil {
			return nil, err
		}
		if len(eval.Variables(e)) > 0 {
			return nil, errorf("SKIP and LIMIT cannot reference variables")
		}
		if eval.ContainsAggregate(e) {
			return nil, errorf("SKIP and LIMIT cannot contain aggregations")
		}
	}
	return cols, nil
}

// checkExpr validates variable references and aggregate placement within an
// expression. Pattern-predicate variables may be introduced locally, so they
// are tolerated.
func checkExpr(e ast.Expr, sc scope, allowAggregate bool) error {
	if e == nil {
		return nil
	}
	if err := checkFunctions(e); err != nil {
		return err
	}
	if !allowAggregate && eval.ContainsAggregate(e) {
		return errorf("aggregating functions are not allowed in this context (%s)", e.String())
	}
	// Aggregates cannot appear under a binding form even in aggregating
	// projections: hoisting sum(x) out of reduce(acc = 0, x IN ... | acc +
	// sum(x)) would evaluate it against the outer scope, not the bound
	// variable it references.
	var bindErr error
	eval.WalkExpr(e, func(sub ast.Expr) {
		if bindErr != nil {
			return
		}
		switch b := sub.(type) {
		case *ast.Reduce:
			if eval.ContainsAggregate(b.Expr) {
				bindErr = errorf("aggregating functions are not allowed inside a reduce expression (%s)", b.String())
			}
		case *ast.ListComprehension:
			if eval.ContainsAggregate(b.Where) || eval.ContainsAggregate(b.Projection) {
				bindErr = errorf("aggregating functions are not allowed inside a list comprehension (%s)", b.String())
			}
		}
	})
	if bindErr != nil {
		return bindErr
	}
	var patternVars scope
	eval.WalkExpr(e, func(sub ast.Expr) {
		if pp, ok := sub.(*ast.PatternPredicate); ok {
			if patternVars == nil {
				patternVars = scope{}
			}
			for _, v := range pp.Pattern.Variables() {
				patternVars[v] = true
			}
		}
	})
	for _, v := range eval.Variables(e) {
		if !sc[v] && !patternVars[v] {
			return errorf("variable `%s` not defined", v)
		}
	}
	return nil
}

// checkFunctions rejects calls to names that are neither registered scalar
// functions nor aggregates, and calls with a number of arguments the
// function does not take, including calls inside pattern predicates.
func checkFunctions(e ast.Expr) error {
	var err error
	eval.WalkExpr(e, func(sub ast.Expr) {
		if err != nil {
			return
		}
		switch x := sub.(type) {
		case *ast.FunctionCall:
			arity, ok := eval.FunctionArity(x.Name)
			if !ok {
				err = errorf("unknown function '%s'", x.Name)
			} else if aerr := eval.ArityError(x.Name, arity, len(x.Args)); aerr != nil {
				err = errorf("%v", aerr)
			}
		case *ast.PatternPredicate:
			err = checkPartFunctions(x.Pattern)
		}
	})
	return err
}

// checkPartFunctions applies checkFunctions to a pattern part's property
// maps.
func checkPartFunctions(part ast.PatternPart) error {
	for _, np := range part.Nodes {
		if np.Properties != nil {
			if err := checkFunctions(np.Properties); err != nil {
				return err
			}
		}
	}
	for _, rp := range part.Rels {
		if rp.Properties != nil {
			if err := checkFunctions(rp.Properties); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkPattern validates a pattern, including the stricter rules for CREATE.
func checkPattern(p ast.Pattern, sc scope, forCreate bool) error {
	relVars := map[string]bool{}
	for _, part := range p.Parts {
		if err := checkPartFunctions(part); err != nil {
			return err
		}
		for _, rp := range part.Rels {
			if rp.Variable != "" {
				if relVars[rp.Variable] || sc[rp.Variable] {
					return errorf("relationship variable `%s` is bound more than once", rp.Variable)
				}
				relVars[rp.Variable] = true
			}
			if forCreate {
				if len(rp.Types) != 1 {
					return errorf("CREATE requires exactly one relationship type")
				}
				if rp.Direction == ast.DirBoth {
					return errorf("CREATE requires a directed relationship")
				}
				if rp.VarLength {
					return errorf("variable-length relationships cannot be used in CREATE")
				}
			}
		}
		for _, np := range part.Nodes {
			if np.Properties != nil {
				for _, v := range np.Properties.Values {
					if eval.ContainsAggregate(v) {
						return errorf("aggregating functions are not allowed inside patterns")
					}
				}
			}
		}
	}
	return nil
}
